"""Work-stealing scheduler with guided, determinism-preserving leases.

The scheduler hands out *leases* -- runs of work units (chunk index +
payload), ordered by index -- to workers, and rebalances them without
ever being able to change the merged report:

* **results are keyed by unit index.**  A unit's result is a pure
  function of its payload, so *which* worker runs it, in *what* order,
  after *how many* retries is invisible to the merge (``sorted`` by
  index).  Scheduling is free to be greedy.
* **guided self-scheduling** (Polychronopoulos & Kuck, IEEE Trans.
  Computers C-36(12), 1987).  A lease takes ``ceil(pending / workers)``
  units, where ``workers`` is the number of worker addresses, so leases
  are large early (amortising round trips) and shrink as the queue
  drains (cutting last-chunk latency and the cost of losing a worker
  late).  The size is a pure function of the queue: no clock reading
  ever changes a lease.
* **deterministic stealing.**  When the queue drains and a worker
  idles, the victim is the worker with the most outstanding units
  (ties: lexicographically smallest name), and the steal takes the
  *back half* of the victim's outstanding run, split by unit index --
  ``remainder[ceil(n/2):]``.  The victim was handed its units in index
  order and works front-to-back, so the back half is the work it is
  least likely to have started.

The scheduler is synchronous and transport-free; the coordinator owns
sockets and time, and feeds completions in.  Each lease's grant and
finish times are kept for the tail-latency statistic only.
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
        workers: int,
        clock: Clock = MONOTONIC,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.payloads: Dict[int, object] = {i: p for i, p in units}
        if len(self.payloads) != len(units):
            raise ValueError("unit indices must be unique")
        self.workers = workers
        #: not-yet-leased unit indices, always sorted ascending.
        self.pending: List[int] = sorted(self.payloads)
        #: per-worker outstanding unit indices, each list sorted.
        self.outstanding: Dict[str, List[int]] = {}
        self.completed: set = set()
        #: (worker, size) per granted lease, in grant order.
        self.lease_log: List[Tuple[str, int]] = []
        self.steals = 0
        #: wall-clock lease records (stats only: the clock never
        #: influences a scheduling decision, so determinism holds).
        self._clock = clock
        self._leases: List[_Lease] = []
        self._lease_of: Dict[int, _Lease] = {}

    # -- leasing --------------------------------------------------------
    def lease_size(self) -> int:
        """Units in the next lease: ``ceil(pending / workers)``."""
        return -(-len(self.pending) // self.workers)

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
        """Take ``indices`` back from ``worker`` and queue them again.

        The worker keeps the rest of its outstanding run.  Returns the
        requeued units: those of ``indices`` the worker still held.  A
        unit it no longer holds is completed, or was stolen and is
        another worker's to finish (a late revoke lets the victim
        report an error on it).
        """
        drop = set(indices)
        held = self.outstanding.pop(worker, [])
        kept = [i for i in held if i not in drop]
        if kept:
            self.outstanding[worker] = kept
        units = [i for i in held if i in drop]
        self.pending = sorted(set(self.pending) | set(units))
        return units

    @property
    def done(self) -> bool:
        return len(self.completed) == len(self.payloads)

    def tail_latency(self) -> float:
        """Duration of the lease that finished last.

        The metric shrinking leases exist to cut: a big chunk granted
        near the end keeps one worker busy while the rest idle, so its
        grant-to-last-result time bounds the campaign's drain.  0.0
        until a lease has completed.
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
            "last_lease": sizes[-1] if sizes else 0,
            "tail_latency_s": self.tail_latency(),
        }
