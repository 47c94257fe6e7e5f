"""Worker health states: CONNECTING -> HEALTHY -> DEGRADED -> DEAD.

Daemon hygiene for the campaign fabric, in the style of long-running
network supervisors: every remote worker is tracked by a small state
machine driven by two inputs only -- *frames arriving* (any frame is a
heartbeat) and *the clock* (injected, so every deadline is testable on
a :class:`~repro.resilience.clock.FakeClock` with zero sleeps).

::

    CONNECTING --connected--> HEALTHY
    HEALTHY    --no frame for degraded_after--> DEGRADED
    DEGRADED   --frame--> HEALTHY
    DEGRADED   --no frame for dead_after--> DEAD
    any        --connection lost / rejected--> DEAD
    DEAD       --reconnect backoff elapsed--> CONNECTING

Semantics the coordinator builds on:

* only **HEALTHY** workers receive new leases;
* a **DEGRADED** worker keeps its outstanding work (it may just be
  slow) but gets nothing new and is first in line for stealing;
* a **DEAD** worker's outstanding units are requeued immediately, and
  reconnection follows the capped exponential schedule of
  :func:`backoff_for`;
* a worker whose handshake is *rejected* (fingerprint mismatch) is
  terminally DEAD -- reconnecting a wrong-version worker forever would
  be noise, not resilience.

Every transition increments
``fabric_worker_transitions_total{from,to}`` and refreshes the
per-state ``fabric_workers{state}`` gauges plus a per-worker numeric
``fabric_worker_state{worker}`` gauge (0=CONNECTING 1=HEALTHY
2=DEGRADED 3=DEAD) in the shared
:class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterable, Optional

from repro.resilience.clock import MONOTONIC, Clock

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry

__all__ = ["WorkerHealth", "WorkerState", "backoff_for", "state_census"]


def backoff_for(attempt: int, base: float, cap: float) -> float:
    """The capped exponential backoff before reconnect round ``attempt``.

    ``attempt`` counts from 1 (the first retry); the schedule is
    ``min(cap, base * 2**(attempt-1))``.
    """
    if attempt < 1:
        raise ValueError("attempt counts from 1")
    # 2**(attempt-1) overflows no float for any sane retry budget, but
    # short-circuit once the cap is reached so huge attempt numbers
    # cost nothing.
    if base >= cap:
        return cap
    exponent = min(attempt - 1, 64)
    return min(cap, base * (2 ** exponent))


class WorkerState(enum.IntEnum):
    CONNECTING = 0
    HEALTHY = 1
    DEGRADED = 2
    DEAD = 3


class WorkerHealth:
    """The health machine of one remote worker.

    ``degraded_after``/``dead_after`` are seconds since the last
    received frame; ``dead_after`` must be the larger.  ``max_rounds``
    bounds how many CONNECTING attempts may *fail* before the worker is
    terminally dead (``None`` = reconnect forever).
    """

    def __init__(
        self,
        name: str,
        degraded_after: float = 2.0,
        dead_after: float = 6.0,
        backoff_base: float = 0.25,
        backoff_cap: float = 8.0,
        max_rounds: Optional[int] = None,
        clock: Clock = MONOTONIC,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if degraded_after <= 0 or dead_after <= degraded_after:
            raise ValueError(
                "need 0 < degraded_after < dead_after for a monotone ladder"
            )
        self.name = name
        self.degraded_after = degraded_after
        self.dead_after = dead_after
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_rounds = max_rounds
        self._clock = clock
        self._metrics = metrics
        self.state = WorkerState.CONNECTING
        self.last_frame = clock()
        #: failed connection rounds since the last successful connect.
        self.failed_rounds = 0
        self.terminal = False
        #: earliest clock time at which a reconnect may be attempted.
        self.reconnect_at = clock()
        self._gauge(None, self.state)

    # -- metrics --------------------------------------------------------
    def _gauge(
        self, old: Optional[WorkerState], new: WorkerState
    ) -> None:
        if self._metrics is None:
            return
        if old is not None:
            self._metrics.counter(
                "fabric_worker_transitions_total",
                **{"from": old.name, "to": new.name},
            ).inc()
        self._metrics.gauge(
            "fabric_worker_state", worker=self.name
        ).set(int(new))

    def _transition(self, new: WorkerState) -> None:
        if new == self.state:
            return
        old = self.state
        self.state = new
        self._gauge(old, new)

    # -- inputs ---------------------------------------------------------
    def on_connected(self) -> None:
        """The transport connected and the handshake succeeded."""
        self.failed_rounds = 0
        self.last_frame = self._clock()
        self._transition(WorkerState.HEALTHY)

    def on_frame(self) -> None:
        """Any frame arrived; every frame is a heartbeat."""
        self.last_frame = self._clock()
        if self.state == WorkerState.DEGRADED:
            self._transition(WorkerState.HEALTHY)

    def on_disconnect(self, terminal: bool = False) -> None:
        """The connection dropped (or the handshake was rejected).

        Schedules the next reconnect with capped exponential backoff;
        ``terminal`` (a fingerprint rejection, or the reconnect budget
        exhausted) pins the worker DEAD for good.
        """
        self.failed_rounds += 1
        if terminal or (
            self.max_rounds is not None
            and self.failed_rounds > self.max_rounds
        ):
            self.terminal = True
        backoff = backoff_for(
            self.failed_rounds, self.backoff_base, self.backoff_cap
        )
        self.reconnect_at = self._clock() + backoff
        self._transition(WorkerState.DEAD)

    def on_reconnecting(self) -> None:
        """A reconnect attempt is starting."""
        self._transition(WorkerState.CONNECTING)

    # -- clock-driven checks --------------------------------------------
    def check(self) -> WorkerState:
        """Apply heartbeat deadlines; returns the (possibly new) state.

        Only meaningful while connected: CONNECTING and DEAD have no
        heartbeat to miss.  The HEALTHY -> DEGRADED -> DEAD ladder is
        monotone in silence: one long-enough gap walks both steps.
        """
        if self.state in (WorkerState.CONNECTING, WorkerState.DEAD):
            return self.state
        silent = self._clock() - self.last_frame
        if silent >= self.dead_after:
            self.on_disconnect()
        elif silent >= self.degraded_after:
            self._transition(WorkerState.DEGRADED)
        return self.state

    def may_reconnect(self) -> bool:
        """Whether a DEAD worker's backoff window has elapsed."""
        return (
            self.state == WorkerState.DEAD
            and not self.terminal
            and self._clock() >= self.reconnect_at
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkerHealth({self.name!r}, {self.state.name})"


def state_census(
    workers: Iterable[WorkerHealth], metrics: "MetricsRegistry"
) -> None:
    """Refresh the per-state ``fabric_workers{state}`` gauges."""
    counts = {state: 0 for state in WorkerState}
    for worker in workers:
        counts[worker.state] += 1
    for state, count in counts.items():
        metrics.gauge("fabric_workers", state=state.name).set(count)
