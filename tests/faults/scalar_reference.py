"""Scalar references for the fault-campaign harness and its monitors.

Every RTL campaign runs on :class:`repro.faults.batch.BatchCampaignHarness`
over lanes of the compiled simulator.  The scalar harness and monitor
bank it replaced live on here, as the references the compiled harness
and the word-wide monitors are checked against:

* :func:`fault_override` -- the scalar net override of one injection;
* :class:`RtlFaultInjector` -- replays a schedule on a
  :class:`~repro.rtl.simulator.TwoPhaseSimulator`;
* :class:`InvariantMonitor`, :class:`PersistenceMonitor`,
  :class:`EncodingMonitor`, :class:`ConservationMonitor` and
  :class:`GoldenMonitor` -- the online SELF checkers on settled scalar
  values, with the :func:`channel_monitors` / :func:`buffer_monitors`
  factories;
* :class:`CampaignHarness` -- one target + one stimulus, one fault per
  scalar run, with ``run_chunk`` and ``run_schedule``.
"""

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.elastic.gates import GateChannel
from repro.faults.campaign import CampaignConfig, FaultOutcome, make_stimulus
from repro.faults.models import Injection
from repro.faults.monitors import EbProbe, Violation, _bit
from repro.faults.targets import RtlTarget
from repro.rtl.logic import Value, lnot
from repro.rtl.simulator import Override, TwoPhaseSimulator
from repro.verif.traces import TraceStep


def fault_override(injection: Injection) -> Override:
    """The scalar net override implementing one injection."""
    if injection.kind == "stuck0":
        return 0
    if injection.kind == "stuck1":
        return 1
    return lnot


class RtlFaultInjector:
    """Replays an injection schedule against a two-phase simulator.

    Wraps (and resets) a :class:`TwoPhaseSimulator`; before each cycle
    the simulator's override map is rebuilt from the schedule entries
    active at that cycle, so arbitrary overlapping stuck-ats and
    transients compose (later schedule entries win on the same net).
    """

    def __init__(
        self, sim: TwoPhaseSimulator, schedule: Sequence[Injection] = ()
    ) -> None:
        self.sim = sim
        self.schedule: List[Injection] = list(schedule)
        unknown = {
            i.net for i in self.schedule if i.net not in sim.netlist.signals()
        }
        if unknown:
            raise ValueError(f"injection sites not in netlist: {sorted(unknown)}")

    def reset(self, schedule: Optional[Sequence[Injection]] = None) -> None:
        """Restore the reset state; optionally replace the schedule."""
        if schedule is not None:
            self.schedule = list(schedule)
        self.sim.reset()
        self.sim.overrides = {}

    def overrides_at(self, time: int) -> Dict[str, Override]:
        return {
            inj.net: fault_override(inj)
            for inj in self.schedule
            if inj.active(time)
        }

    def cycle(self, inputs: Optional[Mapping[str, Value]] = None) -> Dict[str, Value]:
        """Advance one cycle with the schedule's overrides applied."""
        self.sim.overrides = self.overrides_at(self.sim.time)
        return self.sim.cycle(inputs)


class Monitor:
    """Base class: observe one settled cycle's signal values."""

    name = "monitor"

    def observe(
        self, cycle: int, values: Mapping[str, Value]
    ) -> Optional[Violation]:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget history before a new run."""


class InvariantMonitor(Monitor):
    """Equation (2) on one channel: ``¬(V− ∧ S+)`` and ``¬(V+ ∧ S−)``."""

    def __init__(self, channel: GateChannel) -> None:
        self.channel = channel
        self.name = f"invariant[{channel.name}]"

    def observe(self, cycle, values):
        ch = self.channel
        vp, sp = _bit(values, ch.vp), _bit(values, ch.sp)
        vn, sn = _bit(values, ch.vn), _bit(values, ch.sn)
        if vn and sp:
            return Violation(cycle, self.name, "V- and S+ both asserted")
        if vp and sn:
            return Violation(cycle, self.name, "V+ and S- both asserted")
        return None


class PersistenceMonitor(Monitor):
    """Retry persistence on one channel, positive and negative flows."""

    def __init__(self, channel: GateChannel) -> None:
        self.channel = channel
        self.name = f"persistence[{channel.name}]"
        self._pending_pos = False
        self._pending_neg = False

    def reset(self) -> None:
        self._pending_pos = False
        self._pending_neg = False

    def observe(self, cycle, values):
        ch = self.channel
        vp, sp = _bit(values, ch.vp), _bit(values, ch.sp)
        vn, sn = _bit(values, ch.vn), _bit(values, ch.sn)
        violation = None
        if self._pending_pos and not vp:
            violation = Violation(
                cycle, self.name, "V+ dropped during Retry+"
            )
        elif self._pending_neg and not vn:
            violation = Violation(
                cycle, self.name, "V- dropped during Retry-"
            )
        # A kill resolves both flows; only a genuine retry carries over.
        self._pending_pos = bool(vp and sp and not vn)
        self._pending_neg = bool(vn and sn and not vp)
        return violation


class EncodingMonitor(Monitor):
    """Thermometer-code invariants of the EB state bits."""

    def __init__(self, probe: EbProbe) -> None:
        self.probe = probe
        self.name = f"encoding[{probe.prefix}]"

    def observe(self, cycle, values):
        t0, t1, a0, a1 = (_bit(values, s) for s in self.probe.state_bits)
        if t1 > t0:
            return Violation(cycle, self.name, "t1 set without t0")
        if a1 > a0:
            return Violation(cycle, self.name, "a1 set without a0")
        if t0 and a0:
            return Violation(cycle, self.name, "tokens and anti-tokens coexist")
        return None


def _boundary_delta(
    probe: EbProbe, values: Mapping[str, Value]
) -> int:
    """Occupancy change implied by one cycle's boundary events.

    Mirrors the behavioural :class:`ElasticBuffer` commit arithmetic:
    ``+1`` for a token entering or a stored anti-token resolving at the
    input boundary, ``-1`` for a token leaving / being killed at the
    output boundary or an anti-token entering there.
    """
    l, r = probe.left, probe.right
    lvp, lsp, lvn = _bit(values, l.vp), _bit(values, l.sp), _bit(values, l.vn)
    lsn = _bit(values, l.sn)
    rvp, rsp, rvn = _bit(values, r.vp), _bit(values, r.sp), _bit(values, r.vn)
    rsn = _bit(values, r.sn)
    in_pos = lvp and not lsp and not lvn
    kill_left = lvp and lvn
    out_neg = lvn and not lsn and not lvp
    out_pos = rvp and not rsp and not rvn
    kill_right = rvp and rvn
    in_neg = rvn and not rsn and not rvp
    return (
        (1 if in_pos else 0)
        + (1 if kill_left else 0)
        + (1 if out_neg else 0)
        - (1 if out_pos else 0)
        - (1 if kill_right else 0)
        - (1 if in_neg else 0)
    )


class ConservationMonitor(Monitor):
    """Tokens are conserved: occupancy moves only by boundary events.

    With flip-flop state the values observed at cycle ``t`` hold the
    occupancy *during* ``t`` (pre-update), so the check is
    ``occ(t) == occ(t-1) + delta(events at t-1)``.
    """

    def __init__(self, probe: EbProbe) -> None:
        self.probe = probe
        self.name = f"conservation[{probe.prefix}]"
        self._prev: Optional[tuple] = None  # (occupancy, delta)

    def reset(self) -> None:
        self._prev = None

    def observe(self, cycle, values):
        occ = self.probe.occupancy(values)
        delta = _boundary_delta(self.probe, values)
        violation = None
        if self._prev is not None:
            prev_occ, prev_delta = self._prev
            if occ != prev_occ + prev_delta:
                violation = Violation(
                    cycle,
                    self.name,
                    f"occupancy {prev_occ} + delta {prev_delta} "
                    f"!= observed {occ}",
                )
        self._prev = (occ, delta)
        return violation


class GoldenMonitor(Monitor):
    """Lock-step comparison against a fault-free reference trace."""

    name = "golden"

    def __init__(
        self, wires: Sequence[str], golden: Sequence[Mapping[str, Value]]
    ) -> None:
        self.wires = list(wires)
        self.golden = golden

    def observe(self, cycle, values):
        if cycle >= len(self.golden):
            return None
        reference = self.golden[cycle]
        for wire in self.wires:
            got, want = values.get(wire), reference.get(wire)
            if got != want:
                return Violation(
                    cycle,
                    f"{self.name}[{wire}]",
                    f"expected {want!r}, observed {got!r}",
                )
        return None


def channel_monitors(channels: Sequence[GateChannel]) -> List[Monitor]:
    """The per-channel protocol monitors for a set of channels."""
    monitors: List[Monitor] = []
    for ch in channels:
        monitors.append(InvariantMonitor(ch))
        monitors.append(PersistenceMonitor(ch))
    return monitors


def buffer_monitors(probes: Sequence[EbProbe]) -> List[Monitor]:
    """The per-EB state monitors for a set of buffer probes."""
    monitors: List[Monitor] = []
    for probe in probes:
        monitors.append(EncodingMonitor(probe))
        monitors.append(ConservationMonitor(probe))
    return monitors


class CampaignHarness:
    """One target + one stimulus: golden reference and per-fault runs."""

    def __init__(self, target: RtlTarget, config: CampaignConfig) -> None:
        self.target = target
        self.config = config
        self.stimulus = make_stimulus(
            target.free_inputs, config.cycles, config.seed
        )
        self.sim = TwoPhaseSimulator(target.netlist)
        self.injector = RtlFaultInjector(self.sim)
        self.golden: List[Dict[str, Value]] = []
        self.golden_final: Dict[str, Value] = {}
        self._record_golden()

    def _record_golden(self) -> None:
        observe = self.target.observe
        self.injector.reset([])
        for inputs in self.stimulus:
            values = self.injector.cycle(inputs)
            self.golden.append({w: values.get(w) for w in observe})
        self.golden_final = dict(self.sim.state)

    def monitors(self) -> List[Monitor]:
        """A fresh monitor bank (protocol + EB state + golden lockstep)."""
        bank = channel_monitors(self.target.channels)
        bank.extend(buffer_monitors(self.target.ebs))
        bank.append(GoldenMonitor(self.target.observe, self.golden))
        return bank

    def run_schedule(
        self, schedule: Sequence[Injection], record: bool = False
    ) -> Tuple[Optional[Violation], Optional[List[TraceStep]], Dict[str, Value]]:
        """Run one injection schedule to first detection (or the horizon).

        Returns ``(violation, steps, final_state)`` where ``steps`` is
        the rendered trace up to and including the detection cycle when
        ``record`` is set.
        """
        self.injector.reset(schedule)
        bank = self.monitors()
        steps: Optional[List[TraceStep]] = [] if record else None
        for t, inputs in enumerate(self.stimulus):
            values = self.injector.cycle(inputs)
            if steps is not None:
                signals = {
                    w: (1 if values.get(w) == 1 else 0)
                    for w in self.target.observe
                }
                steps.append(TraceStep(state=t, inputs=dict(inputs),
                                       signals=signals))
            for monitor in bank:
                violation = monitor.observe(t, values)
                if violation is not None:
                    return violation, steps, dict(self.sim.state)
        return None, steps, dict(self.sim.state)

    def outcome(self, injection: Injection) -> FaultOutcome:
        """Run one fault and classify it."""
        violation, _, final_state = self.run_schedule([injection])
        if violation is not None:
            return FaultOutcome(
                fault=injection.label(),
                status="detected",
                monitor=violation.monitor,
                detection_cycle=violation.cycle,
                detail=violation.detail,
            )
        if final_state != self.golden_final:
            diverged = sorted(
                s for s, v in final_state.items()
                if self.golden_final.get(s) != v
            )
            return FaultOutcome(
                fault=injection.label(),
                status="latent",
                detail=f"state diverged: {', '.join(diverged[:4])}",
            )
        return FaultOutcome(fault=injection.label(), status="undetected")

    def run_chunk(
        self, injections: Sequence[Injection]
    ) -> List[FaultOutcome]:
        """Classify a chunk of injections one at a time (sweep order)."""
        return [self.outcome(injection) for injection in injections]
