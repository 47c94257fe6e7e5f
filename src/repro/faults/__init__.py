"""repro.faults -- fault injection, online SELF monitors, trace shrinking.

The subsystem has four layers:

* :mod:`repro.faults.models` -- fault models: RTL stuck-at/flip
  injections replayed through the simulator's net-override hook, and
  behavioural channel glitches / buffer state upsets applied by
  saboteurs;
* :mod:`repro.faults.monitors` -- non-raising online checkers for the
  SELF invariants, persistence, EB state encoding, token conservation
  and golden-reference lock-step comparison;
* :mod:`repro.faults.campaign` -- seeded (site x kind x cycle) sweeps
  over the Figs. 5--7 controller targets and the Sect. 7 processor,
  with deterministic JSON reports, optionally lane-parallel
  (``lanes``) and sharded over fabric workers (``jobs``/``workers``);
* :mod:`repro.faults.batch` -- the lane-parallel campaign harness:
  word-wide monitor bank and 64-injections-per-pass harness over
  :class:`repro.codegen.sim.CompiledSimulator`;
* :mod:`repro.faults.shrink` -- ddmin minimisation of failing
  schedules, rendered as counterexample traces.
"""

from repro.faults.batch import (
    BatchCampaignHarness,
    batch_monitor_bank,
    lane_overrides,
)
from repro.faults.campaign import (
    CampaignConfig,
    CampaignHarness,
    CampaignReport,
    FaultOutcome,
    ProcessorCampaignConfig,
    enumerate_injections,
    enumerate_processor_faults,
    make_stimulus,
    resolve_target,
    run_campaign,
    run_processor_campaign,
)
from repro.faults.models import (
    BUFFER_FAULT_KINDS,
    CHANNEL_FAULT_KINDS,
    RTL_FAULT_KINDS,
    BufferFault,
    ChannelFault,
    Injection,
    RtlFaultInjector,
    StateSaboteur,
    WireSaboteur,
    transient_flip,
)
from repro.faults.monitors import (
    ConservationMonitor,
    EbProbe,
    EncodingMonitor,
    GoldenMonitor,
    InvariantMonitor,
    Monitor,
    PersistenceMonitor,
    Violation,
    buffer_monitors,
    channel_monitors,
)
from repro.faults.shrink import failing_predicate, render_failure, shrink_schedule
from repro.faults.targets import TARGETS, RtlTarget

__all__ = [
    "BUFFER_FAULT_KINDS",
    "CHANNEL_FAULT_KINDS",
    "RTL_FAULT_KINDS",
    "BatchCampaignHarness",
    "BufferFault",
    "CampaignConfig",
    "CampaignHarness",
    "CampaignReport",
    "ChannelFault",
    "ConservationMonitor",
    "EbProbe",
    "EncodingMonitor",
    "FaultOutcome",
    "GoldenMonitor",
    "Injection",
    "InvariantMonitor",
    "Monitor",
    "PersistenceMonitor",
    "ProcessorCampaignConfig",
    "RtlFaultInjector",
    "RtlTarget",
    "StateSaboteur",
    "TARGETS",
    "Violation",
    "WireSaboteur",
    "batch_monitor_bank",
    "buffer_monitors",
    "channel_monitors",
    "enumerate_injections",
    "enumerate_processor_faults",
    "failing_predicate",
    "lane_overrides",
    "make_stimulus",
    "render_failure",
    "resolve_target",
    "run_campaign",
    "run_processor_campaign",
    "shrink_schedule",
    "transient_flip",
]
