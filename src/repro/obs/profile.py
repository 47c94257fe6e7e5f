"""Progress reporting for long builds and sweeps."""

from __future__ import annotations

import sys
from typing import Optional, TextIO

__all__ = ["ProgressReporter"]


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
