"""repro.resilience -- hardened execution for long-running workloads.

Two capabilities, threaded through the campaign, sweep and
model-checking drivers:

* **checkpoint/resume** (:mod:`~repro.resilience.checkpoint`) --
  atomic, fingerprint-validated on-disk stores; a resumed run emits the
  byte-identical report of an uninterrupted one;
* **stall watchdogs** (:mod:`~repro.resilience.watchdog`) -- no-progress
  windows over the behavioural network and the lanes of the compiled
  gate-level simulator, with a structured :class:`StallDiagnosis`
  naming the asserted-Stop cycle.

Crash-tolerant sharding (``jobs=N``, dead and hung worker detection,
requeues, :class:`~repro.fabric.ShardFailure`) lives in
:mod:`repro.fabric`, which runs local and remote workers alike.  A
lane-parallel campaign whose netlist the compiled simulator cannot
compile runs on the scalar engine instead
(:func:`repro.faults.campaign.run_campaign`).  See the "Resilience"
section of DESIGN.md for formats and criteria.
"""

from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointMismatch,
    CheckpointStore,
    atomic_write_json,
)
from repro.resilience.clock import MONOTONIC, Clock, FakeClock
from repro.resilience.watchdog import (
    BatchStallWatchdog,
    NetworkStallWatchdog,
    StallDiagnosis,
    StallError,
)

__all__ = [
    "BatchStallWatchdog",
    "CheckpointError",
    "CheckpointMismatch",
    "CheckpointStore",
    "Clock",
    "FakeClock",
    "MONOTONIC",
    "NetworkStallWatchdog",
    "StallDiagnosis",
    "StallError",
    "atomic_write_json",
]
