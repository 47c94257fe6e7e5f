"""Injectable monotonic time for backoff/deadline machinery.

Every component that schedules heartbeat deadlines, progress deadlines
or reconnect backoff (the fabric's
:class:`~repro.fabric.health.WorkerHealth` and
:class:`~repro.fabric.coordinator.FabricCoordinator`) takes a ``clock``
callable instead of reading :func:`time.monotonic` inline.  Production
code passes nothing and gets the real clock; tests pass a
:class:`FakeClock` and drive time explicitly -- deadline and backoff
paths then run in microseconds with zero sleeps and zero timing flakes.

A clock is just ``Callable[[], float]`` returning monotonic seconds.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["Clock", "MONOTONIC", "FakeClock"]

#: The clock signature: monotonic seconds, comparable only to itself.
Clock = Callable[[], float]

#: The production clock.
MONOTONIC: Clock = time.monotonic


class FakeClock:
    """A deterministic, manually advanced monotonic clock.

    Call the instance to read the current time; :meth:`advance` moves
    it forward.  Time never moves on its own, so a test asserts *exact*
    backoff arithmetic instead of sleeping through it.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("monotonic clocks only move forward")
        self.now += seconds
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FakeClock({self.now!r})"
