"""repro.obs -- unified observability for the repo's simulators.

Five pieces, usable separately or together:

* :class:`TraceRecorder` (:mod:`repro.obs.recorder`) -- cycle-stamped
  structured events from the behavioural network and the lanes of the
  compiled RTL simulator, into a bounded ring buffer and pluggable
  sinks;
* exporters -- :class:`VcdSink` (GTKWave waveforms) and
  :class:`JsonlSink` (one JSON object per event);
* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) -- labeled
  counters / gauges / histograms with a deterministic snapshot API and
  a Prometheus text renderer;
* the **performance observatory** (:mod:`repro.obs.analyze`) --
  per-channel cycle accounting, backpressure root-cause attribution,
  critical-cycle analysis against the DMG model and early-evaluation
  benefit accounting, as one deterministic JSON report;
* progress -- :class:`ProgressReporter` throttled progress lines.

The CLI surfaces this as ``repro trace`` (waveforms + event streams),
``repro stats`` (the metrics snapshot of a simulation, ``--prometheus``
for the exposition format), ``repro profile`` (the performance report)
and ``repro inject --metrics/--profile`` (campaign run metadata).
"""

from repro.obs.analyze import (
    NetworkProfiler,
    PerformanceReport,
    RtlChannelProfiler,
    classify_strict,
    profile_designs,
    run_profile,
)
from repro.obs.events import EVENT_KINDS, TraceEvent
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SummaryStats,
    summarize,
)
from repro.obs.profile import ProgressReporter
from repro.obs.recorder import JsonlSink, TraceRecorder, collect_network_metrics
from repro.obs.vcd import VcdSink, VcdWriter

__all__ = [
    "EVENT_KINDS",
    "NetworkProfiler",
    "PerformanceReport",
    "RtlChannelProfiler",
    "TraceEvent",
    "classify_strict",
    "profile_designs",
    "run_profile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SummaryStats",
    "summarize",
    "ProgressReporter",
    "JsonlSink",
    "TraceRecorder",
    "collect_network_metrics",
    "VcdSink",
    "VcdWriter",
]
