"""Core behavioural models: marked graphs and dual marked graphs.

This package implements Section 2 of the paper:

* :mod:`repro.core.mg` -- ordinary marked graphs (MGs), a subclass of
  Petri nets without choice, used to model conventional (lazy) elastic
  systems.
* :mod:`repro.core.dmg` -- dual marked graphs (DMGs), the paper's
  extension with negative markings (anti-tokens), early-enabling nodes
  and the three enabling rules (positive, negative, early).
* :mod:`repro.core.analysis` -- structural and behavioural analysis:
  cycle invariants, liveness, repetitive behaviour, reachability and
  throughput bounds.
* :mod:`repro.core.performance` -- timed simulation of (D)MGs for
  throughput estimation with early-evaluation guards.
"""

from repro.core.mg import Arc, MarkedGraph
from repro.core.dmg import DualMarkedGraph, Enabling, FiringEvent
from repro.core.analysis import (
    critical_cycle_arcs,
    cycle_token_sums,
    is_live,
    max_throughput,
    reachable_markings,
    verify_repetitive_behavior,
)
from repro.core.export import to_dot
from repro.core.performance import TimedDMGSimulator, ThroughputEstimate

__all__ = [
    "Arc",
    "MarkedGraph",
    "DualMarkedGraph",
    "Enabling",
    "FiringEvent",
    "critical_cycle_arcs",
    "cycle_token_sums",
    "is_live",
    "max_throughput",
    "to_dot",
    "reachable_markings",
    "verify_repetitive_behavior",
    "TimedDMGSimulator",
    "ThroughputEstimate",
]
