"""repro.resilience -- hardened execution for long-running workloads.

**Checkpoint/resume** (:mod:`~repro.resilience.checkpoint`), threaded
through the campaign and model-checking drivers: atomic,
fingerprint-validated on-disk stores; a resumed run emits the
byte-identical report of an uninterrupted one.
:mod:`~repro.resilience.clock` gives the fabric's deadlines an
injectable clock.

Crash-tolerant sharding (``jobs=N``, dead and hung worker detection,
requeues, :class:`~repro.fabric.ShardFailure`) lives in
:mod:`repro.fabric`, which runs local and remote workers alike.  A
campaign whose netlist has a combinational cycle, which the compiled
simulator cannot compile, raises
:class:`~repro.rtl.toposort.CombinationalCycleError` at any lane count
(:func:`repro.faults.campaign.run_campaign`).  A run that stops making
progress is diagnosed by the profilers of ``repro profile``
(:class:`repro.obs.analyze.StallDiagnosis`).  See the "Resilience"
section of DESIGN.md for formats and criteria.
"""

from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointMismatch,
    CheckpointStore,
    atomic_write_json,
)
from repro.resilience.clock import MONOTONIC, Clock, FakeClock

__all__ = [
    "CheckpointError",
    "CheckpointMismatch",
    "CheckpointStore",
    "Clock",
    "FakeClock",
    "MONOTONIC",
    "atomic_write_json",
]
