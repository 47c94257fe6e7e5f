"""repro.faults -- fault injection, online SELF monitors, trace shrinking.

The subsystem has five layers:

* :mod:`repro.faults.models` -- fault models: RTL stuck-at/flip
  injections, applied as lane override masks at the fault sites of the
  compiled simulator, and behavioural channel glitches / buffer state
  upsets applied by saboteurs;
* :mod:`repro.faults.monitors` -- what the online checkers report
  (:class:`Violation`) and where they find an EB (:class:`EbProbe`):
  the SELF invariants, persistence, EB state encoding, token
  conservation and golden-reference lock-step comparison;
* :mod:`repro.faults.campaign` -- seeded (site x kind x cycle) sweeps
  over the Figs. 5--7 controller targets and the Sect. 7 processor,
  with deterministic JSON reports, ``lanes`` injections per simulation
  and optionally sharded over fabric workers (``jobs``/``workers``);
* :mod:`repro.faults.batch` -- the campaign harness every RTL campaign
  runs on: word-wide monitor bank and ``lanes``-injections-per-pass
  harness over :class:`repro.codegen.sim.CompiledSimulator`;
* :mod:`repro.faults.shrink` -- ddmin minimisation of failing
  schedules, replayed in lane 0 and rendered as counterexample traces.
"""

from repro.faults.batch import (
    BatchCampaignHarness,
    batch_monitor_bank,
    lane_overrides,
)
from repro.faults.campaign import (
    CampaignConfig,
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
    StateSaboteur,
    WireSaboteur,
    transient_flip,
)
from repro.faults.monitors import EbProbe, Violation
from repro.faults.shrink import failing_predicate, render_failure, shrink_schedule
from repro.faults.targets import TARGETS, RtlTarget

__all__ = [
    "BUFFER_FAULT_KINDS",
    "CHANNEL_FAULT_KINDS",
    "RTL_FAULT_KINDS",
    "BatchCampaignHarness",
    "BufferFault",
    "CampaignConfig",
    "CampaignReport",
    "ChannelFault",
    "EbProbe",
    "FaultOutcome",
    "Injection",
    "ProcessorCampaignConfig",
    "RtlTarget",
    "StateSaboteur",
    "TARGETS",
    "Violation",
    "WireSaboteur",
    "batch_monitor_bank",
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
