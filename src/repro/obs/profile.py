"""Profiling hooks: per-phase wall time and progress reporting.

:class:`PhaseProfiler` accumulates wall-clock seconds per named phase.
The lane-parallel simulator (:class:`~repro.codegen.sim.CompiledSimulator`)
accepts one on its ``profile`` attribute and times its fused cycle
function under the phase ``"cycle"``; anything else can use
:meth:`PhaseProfiler.phase` as a context manager.  When constructed over a
:class:`~repro.obs.metrics.MetricsRegistry`, :meth:`snapshot` mirrors
the accumulated totals into ``phase_seconds{phase=...}`` gauges.

:class:`ProgressReporter` is a throttled callback for long builds --
Kripke-structure enumeration frontiers, fault-campaign chunk sweeps --
that prints at most one line every ``every`` reports.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Optional, TextIO

from repro.obs.metrics import MetricsRegistry

__all__ = ["PhaseProfiler", "ProgressReporter"]


class PhaseProfiler:
    """Wall-time accumulator per named phase."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def add(self, phase: str, seconds: float) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + 1

    @contextmanager
    def phase(self, name: str):
        t0 = perf_counter()
        try:
            yield self
        finally:
            self.add(name, perf_counter() - t0)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        snap = {
            name: {
                "calls": self.calls[name],
                "seconds": round(self.seconds[name], 6),
            }
            for name in sorted(self.seconds)
        }
        if self.registry is not None:
            for name, entry in snap.items():
                gauge = self.registry.gauge("phase_seconds", phase=name)
                gauge.set(entry["seconds"])
        return snap

    def render(self) -> str:
        total = sum(self.seconds.values()) or 1.0
        lines = []
        for name in sorted(self.seconds, key=self.seconds.get, reverse=True):
            secs = self.seconds[name]
            lines.append(
                f"{name:24s} {secs:10.4f}s  {100.0 * secs / total:5.1f}%  "
                f"({self.calls[name]} calls)"
            )
        return "\n".join(lines)


class ProgressReporter:
    """Throttled progress lines for long-running builds and sweeps.

    Call it like a function -- ``reporter(done, total)`` -- from any
    loop; it prints at most every ``every``-th call (and always the
    first), so hooking it into a hot frontier costs almost nothing.
    """

    def __init__(self, label: str, every: int = 1000,
                 stream: Optional[TextIO] = None):
        self.label = label
        self.every = max(1, every)
        self.stream = stream if stream is not None else sys.stderr
        self.reports = 0
        self.last: Optional[str] = None

    def __call__(self, done: int, total: Optional[int] = None) -> None:
        self.reports += 1
        if self.reports != 1 and self.reports % self.every != 0:
            return
        if total:
            line = f"{self.label}: {done}/{total}"
        else:
            line = f"{self.label}: {done}"
        self.last = line
        self.stream.write(line + "\n")
