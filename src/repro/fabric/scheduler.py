"""Work-stealing scheduler with adaptive, determinism-preserving chunks.

The scheduler hands out *leases* -- runs of work units (chunk index +
payload), ordered by index -- to workers, and rebalances them without
ever being able to change the merged report:

* **results are keyed by unit index.**  A unit's result is a pure
  function of its payload, so *which* worker runs it, in *what* order,
  after *how many* retries is invisible to the merge (``sorted`` by
  index).  Scheduling is free to be greedy and adaptive.
* **adaptive lease sizing.**  Per-injection wall time is tracked as an
  EWMA (workers report each unit's compute seconds); a lease targets
  ``lease_target_s`` seconds of work, so chunks are large mid-campaign
  (amortising round trips) and naturally small near the tail (cutting
  last-chunk latency and the cost of losing a worker late).  A
  ``fixed_lease`` pins the size instead -- the benchmark's baseline.
* **deterministic stealing.**  When the queue drains and a worker
  idles, the victim is the worker with the most outstanding units
  (ties: lexicographically smallest name), and the steal takes the
  *back half* of the victim's outstanding run, split by unit index --
  ``remainder[ceil(n/2):]``.  The victim was handed its units in index
  order and works front-to-back, so the back half is the work it is
  least likely to have started.

The scheduler is synchronous and transport-free; the coordinator owns
sockets and time, and feeds completions/observations in.  Lease
history (size, seconds) is kept for the tail-latency benchmark.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.resilience.clock import MONOTONIC, Clock

__all__ = ["WorkStealingScheduler"]


class _Lease:
    """One granted run of units, timed for the tail-latency stats."""

    __slots__ = ("worker", "size", "granted_at", "finished_at")

    def __init__(self, worker: str, size: int, granted_at: float) -> None:
        self.worker = worker
        self.size = size
        self.granted_at = granted_at
        self.finished_at: Optional[float] = None


class WorkStealingScheduler:
    """Deterministic lease bookkeeping over indexed work units."""

    def __init__(
        self,
        units: Sequence[Tuple[int, object]],
        injections_per_unit: int = 1,
        lease_target_s: float = 1.0,
        ewma_alpha: float = 0.3,
        min_lease: int = 1,
        max_lease: int = 64,
        fixed_lease: Optional[int] = None,
        clock: Clock = MONOTONIC,
    ) -> None:
        if injections_per_unit < 1:
            raise ValueError("injections_per_unit must be >= 1")
        if fixed_lease is not None and fixed_lease < 1:
            raise ValueError("fixed_lease must be >= 1")
        if not 0 < ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.payloads: Dict[int, object] = {i: p for i, p in units}
        if len(self.payloads) != len(units):
            raise ValueError("unit indices must be unique")
        #: not-yet-leased unit indices, always sorted ascending.
        self.pending: List[int] = sorted(self.payloads)
        #: per-worker outstanding unit indices, each list sorted.
        self.outstanding: Dict[str, List[int]] = {}
        self.completed: set = set()
        self.injections_per_unit = injections_per_unit
        self.lease_target_s = lease_target_s
        self.ewma_alpha = ewma_alpha
        self.min_lease = min_lease
        self.max_lease = max_lease
        self.fixed_lease = fixed_lease
        #: EWMA of observed seconds per injection (None until first obs).
        self.ewma_per_injection: Optional[float] = None
        #: (worker, size) per granted lease, in grant order.
        self.lease_log: List[Tuple[str, int]] = []
        self.steals = 0
        #: wall-clock lease records (stats only: the clock never
        #: influences a scheduling decision, so determinism holds).
        self._clock = clock
        self._leases: List[_Lease] = []
        self._lease_of: Dict[int, _Lease] = {}

    # -- observations ---------------------------------------------------
    def observe(self, seconds: float, injections: Optional[int] = None) -> None:
        """Fold one unit's measured compute time into the EWMA."""
        injections = injections or self.injections_per_unit
        if injections < 1 or seconds < 0:
            return
        per_injection = seconds / injections
        if self.ewma_per_injection is None:
            self.ewma_per_injection = per_injection
        else:
            a = self.ewma_alpha
            self.ewma_per_injection = (
                a * per_injection + (1 - a) * self.ewma_per_injection
            )

    def lease_size(self) -> int:
        """How many units the next lease should carry."""
        if self.fixed_lease is not None:
            return self.fixed_lease
        if not self.ewma_per_injection:
            return self.min_lease  # calibrate on a small first lease
        per_unit = self.ewma_per_injection * self.injections_per_unit
        if per_unit <= 0:
            return self.max_lease
        want = round(self.lease_target_s / per_unit)
        return max(self.min_lease, min(self.max_lease, want))

    # -- leasing --------------------------------------------------------
    def grant(self, worker: str) -> List[Tuple[int, object]]:
        """Lease the next run of pending units to ``worker``.

        Empty when nothing is pending -- the caller may then try
        :meth:`steal`.
        """
        size = self.lease_size()
        taken, self.pending = self.pending[:size], self.pending[size:]
        if taken:
            self.outstanding.setdefault(worker, []).extend(taken)
            self.lease_log.append((worker, len(taken)))
            self._time_lease(worker, taken)
        return [(i, self.payloads[i]) for i in taken]

    def _time_lease(self, worker: str, indices: Sequence[int]) -> None:
        lease = _Lease(worker, len(indices), self._clock())
        self._leases.append(lease)
        for index in indices:
            self._lease_of[index] = lease

    def steal(self, thief: str) -> Tuple[Optional[str], List[Tuple[int, object]]]:
        """Move the back half of the biggest victim's units to ``thief``.

        Returns ``(victim, stolen_units)``; ``(None, [])`` when no
        worker has at least two outstanding units (stealing a lone unit
        that is most likely already running would only duplicate work).
        """
        victim = None
        most = 1
        for name in sorted(self.outstanding):
            if name == thief:
                continue
            count = len(self.outstanding[name])
            if count > most:
                victim, most = name, count
        if victim is None:
            return None, []
        remainder = self.outstanding[victim]
        keep = (len(remainder) + 1) // 2  # victim keeps the front half
        stolen = remainder[keep:]
        self.outstanding[victim] = remainder[:keep]
        self.outstanding.setdefault(thief, []).extend(stolen)
        self.outstanding[thief].sort()
        self.lease_log.append((thief, len(stolen)))
        self._time_lease(thief, stolen)
        self.steals += 1
        return victim, [(i, self.payloads[i]) for i in stolen]

    # -- completions and losses -----------------------------------------
    def complete(self, index: int) -> bool:
        """Record one unit's result; True the first time, False on a dup.

        Duplicates are normal under stealing and requeues (two workers
        may legitimately both compute a unit); results are identical by
        determinism, so the first one wins and the rest are dropped.
        """
        if index in self.completed:
            return False
        self.completed.add(index)
        for units in self.outstanding.values():
            if index in units:
                units.remove(index)
        lease = self._lease_of.get(index)
        if lease is not None:
            lease.finished_at = self._clock()
        return True

    def requeue(self, worker: str, indices: Sequence[int]) -> List[int]:
        """Take ``indices`` back from ``worker`` and queue the unfinished.

        The worker keeps the rest of its outstanding run.  Returns the
        requeued units: ``indices`` minus those already completed.
        """
        drop = set(indices)
        kept = [i for i in self.outstanding.pop(worker, []) if i not in drop]
        if kept:
            self.outstanding[worker] = kept
        units = [i for i in indices if i not in self.completed]
        self.pending = sorted(set(self.pending) | set(units))
        return units

    @property
    def done(self) -> bool:
        return len(self.completed) == len(self.payloads)

    def tail_latency(self) -> float:
        """Duration of the lease that finished last.

        The metric adaptive sizing exists to shrink: a big fixed chunk
        granted near the end keeps one worker busy while the rest
        idle, so its grant-to-last-result time bounds the campaign's
        drain.  0.0 until a lease has completed.
        """
        finished = [l for l in self._leases if l.finished_at is not None]
        if not finished:
            return 0.0
        last = max(finished, key=lambda l: l.finished_at)
        return last.finished_at - last.granted_at

    def stats(self) -> Dict[str, object]:
        sizes = [size for _, size in self.lease_log]
        return {
            "units": len(self.payloads),
            "leases": len(self.lease_log),
            "steals": self.steals,
            "min_lease": min(sizes) if sizes else 0,
            "max_lease": max(sizes) if sizes else 0,
            "last_lease": sizes[-1] if sizes else 0,
            "tail_latency_s": self.tail_latency(),
            "ewma_per_injection": self.ewma_per_injection,
        }
