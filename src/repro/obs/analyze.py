"""Stall attribution and throughput observatory (``repro profile``).

Where :mod:`repro.obs.recorder` answers "what happened, cycle by
cycle", this module answers "where did the cycles *go*" -- one
deterministic JSON performance report per design, measured on the
behavioural network or, for an RTL design, on one lane of the compiled
simulator:

* **cycle accounting** -- every channel-cycle lands in exactly one of
  the six events of :func:`repro.elastic.protocol.event_of`, counted
  in one :class:`~repro.elastic.channel.ChannelStats` per channel and
  reported under the :data:`~repro.elastic.protocol.CATEGORY` names
  (``transfer+``/``transfer-``/``kill``/``retry+``/``retry-``/
  ``idle``).  The behavioural profiler reads the channels' own
  counters; the gate-level one classifies each lane cycle's wires
  (an unknown wire reads as idle).  Token/anti-token conservation is
  checked per elastic buffer: the occupancy delta must equal the
  moved events (transfers and kills) in minus those out, the same
  invariant the fault-campaign monitors check online;
* **backpressure attribution** -- each blocked Stop wire (the Stop
  wire of a ``retry+`` or ``retry-`` channel) is walked backwards
  through the asserted-Stop chain to the root-cause wire, on the
  wait-for graph of the design (the controller-port graph of a
  network, the fan-in cones of a netlist), and the lost channel-cycles
  are tallied per blocking sink and per root;
* **stall diagnosis** -- in the same pass, ``_WINDOW`` cycles in
  which some Stop wire stays blocked but no channel moves make one
  :class:`StallDiagnosis`: the ring of blocked Stop wires each
  waiting on the next (a deadlock), or the chain to the root-cause
  wire when the wait-for graph has no cycle.  A fully idle design is
  not stalled: with nothing offered there is nothing to block;
* **critical-cycle analysis** -- the DMG abstraction's
  throughput-bounding cycle is named arc by arc, the timed DMG
  simulator predicts the throughput with early evaluation, and the
  measured figure is compared against it (divergence beyond the
  tolerance is *flagged*, because a protocol-level restriction the
  abstraction cannot see -- e.g. a passive M2->W boundary -- is
  exactly what the report should surface);
* **EE benefit accounting** -- early firings, anti-tokens generated
  and annihilated, and the cycles saved against a late-evaluation
  replay of the same design (early join vs lazy join, Fig. 9 active
  vs lazy, early vs in-order writeback).

Reports are byte-identical across repeated seeded runs; the
``backend`` tag names the engine a design runs on (``network`` or
``compiled``), and both engines share one schema.  Profilers
constructed with ``enabled=False`` attach nothing, mirroring the
:class:`~repro.obs.recorder.TraceRecorder` zero-cost no-op guarantee
that the overhead benchmark locks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.elastic.channel import ChannelStats
from repro.elastic.protocol import (
    MOVED,
    RETRY_NEG,
    RETRY_POS,
    RETRYING,
    event_of,
)
from repro.obs.metrics import _canon
from repro.rtl.logic import X
from repro.rtl.toposort import canonical_cycle, order_or_cycle

__all__ = [
    "NetworkProfiler",
    "PerformanceReport",
    "RtlChannelProfiler",
    "StallDiagnosis",
    "model_section",
    "pipeline_network",
    "profile_designs",
    "run_profile",
]

#: cycles with a blocked Stop wire and no moved event that make a stall
_WINDOW = 64


def _walk_root(
    wire: str,
    blocked: Set[str],
    primary: Mapping[str, Iterable[str]],
    fallback: Mapping[str, Iterable[str]],
) -> str:
    """Walk a blocked Stop wire back to its root cause.

    From ``wire``, repeatedly step to the smallest *blocked* wire in
    the primary dependency cone (combinational at gate level), falling
    back to the secondary cone (cross-cycle, through latch/flop ``d``
    pins) when the primary has none.  The walk terminates at a wire
    none of whose dependencies are blocked -- the root -- or when it
    would revisit a wire (a deadlock ring reports its smallest member).
    """
    seen = {wire}
    node = wire
    while True:
        deps = sorted(blocked.intersection(primary.get(node, ())) - seen)
        if not deps:
            deps = sorted(blocked.intersection(fallback.get(node, ())) - seen)
        if not deps:
            return node
        node = deps[0]
        seen.add(node)


@dataclass(frozen=True)
class StallDiagnosis:
    """Why a run stopped making progress.

    ``stop_cycle`` is the canonicalised ring of blocked Stop wires, each
    waiting on the next; ``blocked`` then lists every blocked wire.
    When the wait-for graph has no cycle, ``stop_cycle`` is empty and
    ``blocked`` is the chain from the smallest blocked wire to the
    root-cause wire.
    """

    cycle: int
    window: int
    last_progress: int
    stop_cycle: Tuple[str, ...]
    blocked: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "blocked": list(self.blocked),
            "cycle": self.cycle,
            "last_progress": self.last_progress,
            "stop_cycle": list(self.stop_cycle),
            "window": self.window,
        }


def _diagnose(
    cycle: int,
    last_progress: int,
    blocked: Set[str],
    waits_on: Mapping[str, Tuple[str, ...]],
) -> StallDiagnosis:
    """The deadlock ring (or root-cause chain) of a wait-for graph over
    the non-empty ``blocked`` set."""
    _, ring = order_or_cycle(waits_on)
    if ring is not None:
        return StallDiagnosis(
            cycle, _WINDOW, last_progress,
            tuple(canonical_cycle(ring)), tuple(sorted(blocked)),
        )
    # Acyclic: walk from the smallest blocked wire to the root cause
    # (a blocked wire none of whose waits are themselves blocked).
    chain = [min(blocked)]
    while chain[-1] in waits_on:
        chain.append(min(waits_on[chain[-1]]))
    return StallDiagnosis(cycle, _WINDOW, last_progress, (), tuple(chain))


def _fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class _ChannelProfiler:
    """What both profilers report from: one :class:`ChannelStats` per
    channel (:attr:`stats`, by channel name), the lost channel-cycles
    of each blocked Stop wire, tallied per root cause, and the stalls
    of the run (:attr:`diagnoses`)."""

    stats: Mapping[str, ChannelStats]

    def __init__(self) -> None:
        self.lost: Dict[str, int] = {}
        self.roots: Dict[str, Dict[str, int]] = {}
        self.diagnoses: List[StallDiagnosis] = []
        #: the last cycle that moved an event or blocked no Stop wire
        self.last_progress = -1

    def _attribute(
        self,
        blocked: Set[str],
        primary: Mapping[str, Iterable[str]],
        fallback: Mapping[str, Iterable[str]],
    ) -> None:
        for wire in sorted(blocked):
            root = _walk_root(wire, blocked, primary, fallback)
            self.lost[wire] = self.lost.get(wire, 0) + 1
            by_root = self.roots.setdefault(wire, {})
            by_root[root] = by_root.get(root, 0) + 1

    def _watch(self, cycle: int, moved: bool, blocked: Set[str]) -> None:
        """The no-progress rule: a cycle that moves an event, or blocks
        no Stop wire, is progress; ``_WINDOW`` cycles without progress
        make one stall diagnosis, and the window restarts."""
        if moved or not blocked:
            self.last_progress = cycle
        elif cycle - self.last_progress >= _WINDOW:
            self.diagnoses.append(_diagnose(
                cycle, self.last_progress, blocked, self._waits_on(blocked)
            ))
            self.last_progress = cycle

    def _waits_on(self, blocked: Set[str]) -> Dict[str, Tuple[str, ...]]:
        """The wait-for graph among the ``blocked`` Stop wires."""
        raise NotImplementedError

    def throughput(self, channel: str) -> float:
        return self.stats[channel].throughput

    def channel_section(self) -> Dict[str, Dict[str, object]]:
        section: Dict[str, Dict[str, object]] = {}
        for name, stats in sorted(self.stats.items()):
            entry: Dict[str, object] = stats.accounting()
            entry["throughput"] = _canon(stats.throughput)
            section[name] = entry
        return section

    def _conservation(self, buffers) -> Dict[str, object]:
        """Token/anti-token conservation over ``buffers``, each
        ``(name, initial, final, left channel, right channel)``: a
        buffer's occupancy delta must equal the events moved in on its
        left channel minus those moved out on its right one."""
        stats = self.stats
        section: Dict[str, object] = {}
        complete = True
        for name, initial, final, left, right in buffers:
            flux = stats[left].moved - stats[right].moved
            residual = (final - initial) - flux
            if residual != 0:
                complete = False
            section[name] = {
                "initial": initial, "final": final,
                "delta": final - initial, "flux": flux,
                "residual": residual,
            }
        return {
            "tokens_moved": sum(s.positive for s in stats.values()),
            "anti_tokens_moved": sum(s.negative for s in stats.values()),
            "annihilated": sum(s.kills for s in stats.values()),
            "buffers": section,
            "complete": complete,
        }

    def attribution_section(self) -> Dict[str, object]:
        sinks: Dict[str, object] = {}
        for wire in sorted(self.lost):
            roots = self.roots.get(wire, {})
            sinks[wire] = {
                "lost": self.lost[wire],
                "roots": {r: roots[r] for r in sorted(roots)},
            }
        return {
            "lost_cycles": sum(self.lost.values()),
            "sinks": sinks,
            "stalls": [d.to_dict() for d in self.diagnoses],
        }


# ----------------------------------------------------------------------
# Gate-level profiler (one lane of the compiled engine)
# ----------------------------------------------------------------------
class RtlChannelProfiler(_ChannelProfiler):
    """Per-channel cycle accounting and stall attribution at gate level.

    :meth:`attach_lane` hooks one lane of a
    :class:`~repro.codegen.sim.CompiledSimulator` (all watched channel
    wires must be in its module's observed set).  With
    ``enabled=False`` it is a no-op.  At gate level "my Stop is derived
    from your Stop" *is* the fan-in dependency: a blocked wire waits on
    the blocked wires of its combinational fan-in cone, or, when no
    blocked wire has one (the EBs of a design cut every combinational
    path), of its sequential cone through latch and flop ``d`` pins --
    a retry that persists because another one persisted last cycle.

    ``ee`` optionally names an early join to account:
    ``{"output": <channel>, "inputs": [<channel>, ...]}`` -- a firing
    of the output with some input valid missing is an early firing,
    and each missing input owes one generated anti-token.
    """

    def __init__(self, target, enabled: bool = True, ee=None) -> None:
        super().__init__()
        self.target = target
        self.enabled = enabled
        self.ee = ee
        self.stats: Dict[str, ChannelStats] = {
            ch.name: ChannelStats() for ch in target.channels
        }
        self.ee_fires = 0
        self.ee_early = 0
        self.ee_generated = 0
        self._sim = None
        self._lane: Optional[int] = None
        self._fanin_comb: Dict[str, Set[str]] = {}
        self._fanin_seq: Dict[str, Set[str]] = {}
        self._ee_out = None
        self._ee_ins: List = []

    # -- attachment ----------------------------------------------------
    def _prepare(self, sim) -> None:
        self._sim = sim
        watched = [ch.sp for ch in self.target.channels]
        watched += [ch.sn for ch in self.target.channels]
        self._fanin_comb = _fanin_cones(
            sim.netlist, watched, sequential=False
        )
        self._fanin_seq = _fanin_cones(sim.netlist, watched, sequential=True)
        if self.ee is not None:
            by_name = {ch.name: ch for ch in self.target.channels}
            self._ee_out = by_name[self.ee["output"]]
            self._ee_ins = [by_name[name] for name in self.ee["inputs"]]

    def attach_lane(self, sim, lane: int = 0) -> "RtlChannelProfiler":
        """Hook one lane of a compiled lane-parallel simulator."""
        from repro.rtl.batchsim import strict_planes

        if not self.enabled:
            return self
        self._prepare(sim)
        self._lane = lane
        wires = [w for ch in self.target.channels for w in ch.wires()]
        bit = 1 << lane

        def observe(time: int, s) -> None:
            values: Dict[str, object] = {}
            for wire in wires:
                ones, zeros = strict_planes(s, wire)
                values[wire] = 1 if ones & bit else (0 if zeros & bit else X)
            self._account(time, values)

        sim.observers.append(observe)
        return self

    # -- per-cycle accounting ------------------------------------------
    def _account(self, time: int, values: Mapping[str, object]) -> None:
        blocked: Set[str] = set()
        moved = False
        for ch in self.target.channels:
            event = event_of(values.get(ch.vp), values.get(ch.sp),
                             values.get(ch.vn), values.get(ch.sn))
            self.stats[ch.name].record(event)
            # By identity: a dict lookup would hash the enum member.
            if event is RETRY_POS or event is RETRY_NEG:
                blocked.add(getattr(ch, RETRYING[event]))
            elif event in MOVED:
                moved = True
        self._attribute(blocked, self._fanin_comb, self._fanin_seq)
        self._watch(time, moved, blocked)
        if self._ee_out is not None:
            out = self._ee_out
            if values.get(out.vp) == 1 and values.get(out.sp) == 0:
                self.ee_fires += 1
                missing = sum(
                    1 for ch in self._ee_ins if values.get(ch.vp) != 1
                )
                if missing:
                    self.ee_early += 1
                    self.ee_generated += missing

    def _waits_on(self, blocked: Set[str]) -> Dict[str, Tuple[str, ...]]:
        for fanin in (self._fanin_comb, self._fanin_seq):
            # Sorted, so the ring found never depends on string hashing.
            waits: Dict[str, Tuple[str, ...]] = {}
            for wire in sorted(blocked):
                # A wire's own fan-in (its retry state looping through
                # a flop) is "still stalled", not a wait-on edge.
                deps = tuple(sorted((fanin[wire] & blocked) - {wire}))
                if deps:
                    waits[wire] = deps
            if waits:
                return waits
        return {}

    # -- report sections -----------------------------------------------
    def _final_state(self) -> Mapping[str, object]:
        return self._sim.lane_state(self._lane)

    def conservation_section(self) -> Dict[str, object]:
        netlist = self.target.netlist
        final_state = self._final_state() if self.target.ebs else {}
        return self._conservation(
            (
                probe.prefix,
                probe.occupancy(_initial_bits(netlist, probe)),
                probe.occupancy(final_state),
                probe.left.name,
                probe.right.name,
            )
            for probe in self.target.ebs
        )


def _fanin_cones(
    netlist, wires: Sequence[str], sequential: bool
) -> Dict[str, Set[str]]:
    """Transitive fan-in of each wire.

    Always traverses gates; with ``sequential`` the walk also crosses
    latch and flop ``q <- d`` arcs (cross-cycle dependencies), otherwise
    state bits terminate the cone.
    """
    driver_ins: Dict[str, Tuple[str, ...]] = {
        out: gate.ins for out, gate in netlist.gates.items()
    }
    if sequential:
        for q, latch in netlist.latches.items():
            driver_ins[q] = (latch.d,)
        for q, flop in netlist.flops.items():
            driver_ins[q] = (flop.d,)
    cones: Dict[str, Set[str]] = {}
    for wire in wires:
        cone: Set[str] = set()
        stack = [wire]
        while stack:
            for dep in driver_ins.get(stack.pop(), ()):
                if dep not in cone:
                    cone.add(dep)
                    stack.append(dep)
        cones[wire] = cone
    return cones


def _initial_bits(netlist, probe) -> Dict[str, object]:
    """Reset values of an EB probe's state bits, from the netlist."""
    bits: Dict[str, object] = {}
    for sig in probe.state_bits:
        if sig in netlist.flops:
            bits[sig] = netlist.flops[sig].init
        elif sig in netlist.latches:
            bits[sig] = netlist.latches[sig].init
    return bits


# ----------------------------------------------------------------------
# Behavioural-network profiler
# ----------------------------------------------------------------------
class NetworkProfiler(_ChannelProfiler):
    """Cycle accounting and stall attribution for an ElasticNetwork.

    The channel counters are each channel's own
    :class:`~repro.elastic.channel.ChannelStats`; one probe (attribution
    and stall diagnosis, on the controller-port wait-for graph
    :func:`port_waits`) and the early-join observers are the only
    per-cycle additions.  With ``enabled=False``, :meth:`attach` is a
    no-op.
    """

    def __init__(self, enabled: bool = True) -> None:
        super().__init__()
        self.enabled = enabled
        self.joins: Dict[str, Dict[str, int]] = {}
        self._net = None
        self._ebs: List = []
        self._initial: Dict[str, int] = {}
        self._waits: Dict[str, List[str]] = {}

    @property
    def stats(self) -> Dict[str, ChannelStats]:
        return {name: ch.stats for name, ch in self._net.channels.items()}

    def attach(self, net) -> "NetworkProfiler":
        if not self.enabled:
            return self
        from repro.elastic.behavioral import EarlyJoin, ElasticBuffer

        self._net = net
        self._ebs = [
            c for c in net.controllers if isinstance(c, ElasticBuffer)
        ]
        self._initial = {eb.name: eb.count for eb in self._ebs}
        for ctrl in net.controllers:
            if isinstance(ctrl, EarlyJoin):
                tally = {"fires": 0, "early": 0, "generated": 0}
                self.joins[ctrl.name] = tally
                ctrl.output.observers.append(self._ee_observer(ctrl, tally))
        self._waits = port_waits(net)

        def probe(net) -> None:
            blocked: Set[str] = set()
            moved = False
            for name, ch in net.channels.items():
                event = ch.last_event
                if event is RETRY_POS or event is RETRY_NEG:
                    blocked.add(f"{name}.{RETRYING[event]}")
                elif event in MOVED:
                    moved = True
            self._attribute(blocked, self._waits, {})
            self._watch(net.cycle, moved, blocked)

        net.add_probe(probe)
        return self

    def _waits_on(self, blocked: Set[str]) -> Dict[str, Tuple[str, ...]]:
        waits: Dict[str, Tuple[str, ...]] = {}
        for wire, deps in self._waits.items():
            if wire in blocked:
                deps = tuple(dep for dep in deps if dep in blocked)
                if deps:
                    waits[wire] = deps
        return waits

    def _ee_observer(self, ctrl, tally: Dict[str, int]):
        def observe(channel) -> None:
            owing = ctrl.owing()
            if owing is None:
                return
            tally["fires"] += 1
            missing = len(owing)
            if missing:
                tally["early"] += 1
                tally["generated"] += missing

        return observe

    # -- report sections -----------------------------------------------
    def conservation_section(self) -> Dict[str, object]:
        return self._conservation(
            (eb.name, self._initial[eb.name], eb.count,
             eb.left.name, eb.right.name)
            for eb in self._ebs
        )


def port_waits(net) -> Dict[str, List[str]]:
    """The wait-for graph of a behavioural network's Stop wires.

    Maps each Stop wire to the Stop wires it waits on, from the
    controller ports: a full controller asserts Stop+ on its inputs
    because its outputs are stopped (``in.sp`` waits on ``out.sp``),
    and anti-token back-pressure flows forward (``out.sn`` on
    ``in.sn``).
    """
    from repro.elastic.behavioral import controller_ports

    graph: Dict[str, List[str]] = {}
    for ctrl in net.controllers:
        ins, outs = controller_ports(ctrl)
        for i in ins:
            graph.setdefault(f"{i.name}.sp", []).extend(
                f"{o.name}.sp" for o in outs
            )
        for o in outs:
            graph.setdefault(f"{o.name}.sn", []).extend(
                f"{i.name}.sn" for i in ins
            )
    return graph


# ----------------------------------------------------------------------
# Model comparison (critical cycle + timed DMG prediction)
# ----------------------------------------------------------------------
def model_section(
    spec,
    reference: str,
    measured: float,
    cycles: int,
    seed: int,
    tolerance: float,
    guards=None,
    mean_latency=None,
) -> Dict[str, object]:
    """Compare a measured throughput against the DMG abstraction.

    Names the critical (throughput-bounding) cycle of the abstraction
    -- ``structural`` when a latency-weighted cycle binds below one
    firing per clock, else ``clock`` with unit arc delays -- then runs
    the timed DMG simulator (early-evaluation guards, variable
    latencies, eager capacity-return arcs) for the same ``cycles`` and
    ``seed`` and reports the divergence of the measurement from that
    prediction.  Divergence beyond ``tolerance`` is flagged, not
    hidden: a protocol-level effect the abstraction cannot express
    (e.g. a passive boundary restricting counterflow) shows up here.
    """
    from repro.core.analysis import critical_cycle_arcs
    from repro.core.performance import TimedDMGSimulator
    from repro.synthesis.abstraction import spec_to_dmg

    graph, delays = spec_to_dmg(spec, mean_latency)
    try:
        ratio, arcs = critical_cycle_arcs(graph, delays)
    except ValueError:
        # No latency-weighted cycle at all: the lazy system is
        # clock-limited too.
        ratio, arcs = Fraction(1), ()
    # The lazy bound is the latency-weighted critical ratio itself
    # (what ``throughput_bound`` returns), capped at one per clock.
    lazy = min(ratio, Fraction(1))
    limit = "structural"
    if ratio >= 1:
        # No latency-weighted cycle binds below one firing per clock:
        # the clock itself is the limit.  Name the bounding cycle with
        # unit delays on the forward arcs (every hop costs one cycle).
        limit = "clock"
        ratio, arcs = critical_cycle_arcs(graph, dict.fromkeys(delays, 1))
    bound = min(ratio, Fraction(1))

    # Sources and sinks model the eager environment: they must not add
    # pipeline latency of their own (the env-closure arc already
    # carries the environment's token budget), so they evaluate
    # combinationally.  Registers keep the default one-cycle latency.
    comb = {b.name for b in spec.blocks.values() if b.latency is None}
    comb |= set(spec.sources) | set(spec.sinks)
    samplers = {
        b.name: b.latency
        for b in spec.blocks.values() if b.latency is not None
    }
    eager = {a.name for a in graph.arcs if a.name.startswith("~")}
    sim = TimedDMGSimulator(
        graph, latencies=samplers, guards=guards or {}, seed=seed,
        combinational=comb, eager_arcs=eager,
    )
    estimate = sim.run(cycles)
    predicted = estimate.throughput(graph.arc(reference).src)
    if predicted > 0:
        divergence = abs(measured - predicted) / predicted
    else:
        divergence = 0.0 if measured == 0 else math.inf
    finite = math.isfinite(divergence)
    return {
        "reference": reference,
        "critical_cycle": {
            "arcs": list(arcs),
            "ratio": _fraction(ratio),
            "throughput": _canon(float(bound)),
            "limit": limit,
        },
        "lazy_bound": _fraction(lazy),
        "predicted_throughput": _canon(predicted),
        "measured_throughput": _canon(measured),
        "divergence": _canon(divergence) if finite else "inf",
        "tolerance": _canon(tolerance),
        "within_tolerance": bool(finite and divergence <= tolerance),
        "beats_lazy_bound": bool(measured > float(lazy) + 1e-9),
    }


# ----------------------------------------------------------------------
# The performance report
# ----------------------------------------------------------------------
@dataclass
class PerformanceReport:
    """One profiled run, ready for JSON or human rendering."""

    design: str
    backend: str
    cycles: int
    seed: int
    channels: Dict[str, Dict[str, object]]
    conservation: Dict[str, object]
    attribution: Dict[str, object]
    ee: Optional[Dict[str, object]] = None
    model: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "design": self.design,
            "backend": self.backend,
            "cycles": self.cycles,
            "seed": self.seed,
            "channels": self.channels,
            "conservation": self.conservation,
            "attribution": self.attribution,
        }
        if self.ee is not None:
            out["ee"] = self.ee
        if self.model is not None:
            out["model"] = self.model
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        lines = [
            f"profile: {self.design} "
            f"({self.backend}, {self.cycles} cycles, seed {self.seed})",
            f"{'channel':16s} {'Th':>6s} "
            f"{'t+':>6s} {'t-':>6s} {'kill':>6s} "
            f"{'r+':>6s} {'r-':>6s} {'idle':>6s}",
        ]
        for name, entry in self.channels.items():
            lines.append(
                f"{name:16s} {entry['throughput']:>6} "
                f"{entry['transfer+']:>6d} {entry['transfer-']:>6d} "
                f"{entry['kill']:>6d} {entry['retry+']:>6d} "
                f"{entry['retry-']:>6d} {entry['idle']:>6d}"
            )
        cons = self.conservation
        lines.append(
            f"conservation: {cons['tokens_moved']} tokens, "
            f"{cons['anti_tokens_moved']} anti-tokens, "
            f"{cons['annihilated']} annihilated "
            f"({'OK' if cons['complete'] else 'RESIDUAL'})"
        )
        attr = self.attribution
        lines.append(f"backpressure: {attr['lost_cycles']} lost channel-cycles")
        for wire, entry in attr["sinks"].items():
            roots = ", ".join(
                f"{r} x{n}" for r, n in entry["roots"].items()
            )
            lines.append(f"  {wire}: {entry['lost']} lost (root: {roots})")
        for stall in attr["stalls"]:
            where = (
                " -> ".join(stall["stop_cycle"]) or
                (stall["blocked"][-1] if stall["blocked"] else "?")
            )
            lines.append(
                f"  stall at cycle {stall['cycle']}: {where}"
            )
        if self.ee is not None:
            for name, j in self.ee["joins"].items():
                lines.append(
                    f"ee[{name}]: {j['fires']} firings, {j['early']} early, "
                    f"{j['anti_tokens_generated']} anti-tokens generated"
                )
            lines.append(
                f"ee: {self.ee['anti_tokens_annihilated']} anti-tokens "
                f"annihilated"
            )
            replay = self.ee.get("late_replay")
            if replay is not None:
                lines.append(
                    f"ee: late replay ({replay['design']}) Th="
                    f"{replay['throughput']}; {replay['cycles_saved']} "
                    f"cycle(s) saved over {replay['tokens']} tokens"
                )
        if self.model is not None:
            m = self.model
            cc = m["critical_cycle"]
            verdict = "OK" if m["within_tolerance"] else "DIVERGED"
            lines.append(
                f"model: critical cycle [{' '.join(cc['arcs'])}] "
                f"ratio {cc['ratio']} ({cc['limit']}-limited)"
            )
            lines.append(
                f"model: predicted {m['predicted_throughput']} vs measured "
                f"{m['measured_throughput']} on {m['reference']} "
                f"(divergence {m['divergence']}, tolerance "
                f"{m['tolerance']}): {verdict}"
                + (" [beats lazy bound "
                   f"{m['lazy_bound']}]" if m["beats_lazy_bound"] else "")
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Design registry: mirrors, guards and references per profile design
# ----------------------------------------------------------------------
_RTL_REFERENCE = {
    "dual_ehb": "R", "dual_ehb_latches": "R", "join": "Z",
    "early_join": "Z", "fork": "O0", "passive": "D", "vl": "R",
}

_RTL_EE = {"early_join": {"output": "Z", "inputs": ["I0", "I1"]}}

#: late-evaluation replay twin of each early design
_RTL_LATE_TWIN = {"early_join": "join"}

_FIG9_CONFIGS = ("active", "no_buffer", "passive_f3w", "passive_m2w", "lazy")

_NETWORK_DESIGNS = ("pipeline", "processor") + _FIG9_CONFIGS


def profile_designs() -> List[str]:
    """Every design name :func:`run_profile` accepts."""
    from repro.faults.targets import TARGETS

    return sorted(TARGETS) + sorted(_NETWORK_DESIGNS)


def _mirror_spec(design: str):
    """The SystemSpec mirror of one RTL campaign target.

    Connection names equal the RTL channel names, so the model section
    names arcs the profiled channels map onto directly.  Returns
    ``(spec, guards, mean_latency)`` for :func:`model_section`.
    """
    from repro.core.performance import fixed_latency, select_guard
    from repro.elastic.ee import ThresholdEE
    from repro.synthesis.spec import SystemSpec

    spec = SystemSpec(f"mirror[{design}]")
    guards: Dict[str, object] = {}
    mean: Dict[str, float] = {}
    if design in ("dual_ehb", "dual_ehb_latches"):
        spec.add_source("src")
        spec.add_sink("snk")
        spec.add_register("eb")
        spec.connect(spec.source("src"), spec.register_in("eb"), name="L")
        spec.connect(spec.register_out("eb"), spec.sink("snk"), name="R")
    elif design in ("join", "early_join"):
        spec.add_source("src0")
        spec.add_source("src1")
        spec.add_sink("snk")
        ee = ThresholdEE(1, 2) if design == "early_join" else None
        spec.add_block("j", n_inputs=2, ee=ee)
        spec.connect(spec.source("src0"), spec.block_in("j", 0), name="I0")
        spec.connect(spec.source("src1"), spec.block_in("j", 1), name="I1")
        spec.connect(spec.block_out("j"), spec.sink("snk"), name="Z")
        if design == "early_join":
            guards["j"] = select_guard({"I0": 0.5, "I1": 0.5})
    elif design == "fork":
        spec.add_source("src")
        spec.add_sink("snk0")
        spec.add_sink("snk1")
        spec.add_block("f", n_outputs=2)
        spec.connect(spec.source("src"), spec.block_in("f"), name="I")
        spec.connect(spec.block_out("f", 0), spec.sink("snk0"), name="O0")
        spec.connect(spec.block_out("f", 1), spec.sink("snk1"), name="O1")
    elif design == "passive":
        spec.add_source("src")
        spec.add_sink("snk")
        spec.add_block("p")
        spec.connect(spec.source("src"), spec.block_in("p"), name="U")
        spec.connect(spec.block_out("p"), spec.sink("snk"), name="D",
                     passive=True)
    elif design == "vl":
        spec.add_source("src")
        spec.add_sink("snk")
        spec.add_block("vl", latency=fixed_latency(2))
        spec.connect(spec.source("src"), spec.block_in("vl"), name="L")
        spec.connect(spec.block_out("vl"), spec.sink("snk"), name="R")
        mean["vl"] = 2.0
    else:  # pragma: no cover - registry and TARGETS move together
        raise ValueError(f"no mirror spec for {design!r}")
    return spec, guards, mean


def _fig9_guards(spec) -> Dict[str, object]:
    """The W multiplexer's firing guard: select plus one chosen operand."""
    from repro.core.performance import select_guard

    if not spec.blocks["W"].is_early:
        return {}
    inner = select_guard({"I->W": 0.6, "F3->W": 0.3, "M->W": 0.1})

    def w_guard(rng):
        return {"C->W"} | inner(rng)

    return {"W": w_guard}


# ----------------------------------------------------------------------
# Profile drivers
# ----------------------------------------------------------------------
def _eager_stimulus(free_inputs: Sequence[str]) -> Dict[str, int]:
    """The eager environment: always offer, never stall, never kill."""
    return {
        name: 1 if name.endswith(".choice") or name.endswith(".done") else 0
        for name in free_inputs
    }


def _run_rtl(target, cycles: int, cache, ee) -> RtlChannelProfiler:
    """Profile one lane of the compiled engine for ``cycles``."""
    from repro.codegen.sim import CompiledSimulator
    from repro.rtl.batchsim import broadcast

    sim = CompiledSimulator(
        target.netlist, lanes=1, hooks=frozenset(),
        observe=frozenset(target.observe), cache=cache,
    )
    profiler = RtlChannelProfiler(target, ee=ee).attach_lane(sim, 0)
    planes = {
        name: broadcast(value, 1)
        for name, value in _eager_stimulus(target.free_inputs).items()
    }
    for _ in range(cycles):
        sim.cycle(planes)
    return profiler


def _profile_rtl(
    design: str, cycles: int, seed: int,
    compare_model: bool, tolerance: float, cache,
) -> PerformanceReport:
    from repro.faults.targets import TARGETS

    target = TARGETS[design]()
    reference = _RTL_REFERENCE[design]
    ee_spec = _RTL_EE.get(design)
    profiler = _run_rtl(target, cycles, cache, ee_spec)
    measured = profiler.throughput(reference)

    ee_section = None
    if ee_spec is not None:
        twin_name = _RTL_LATE_TWIN[design]
        twin = _run_rtl(TARGETS[twin_name](), cycles, cache, None)
        lazy_th = twin.throughput(_RTL_REFERENCE[twin_name])
        tokens = profiler.stats[reference].positive
        ee_section = {
            "joins": {
                ee_spec["output"]: {
                    "fires": profiler.ee_fires,
                    "early": profiler.ee_early,
                    "anti_tokens_generated": profiler.ee_generated,
                },
            },
            "anti_tokens_annihilated": sum(
                s.kills for s in profiler.stats.values()
            ),
            "late_replay": _late_replay(twin_name, lazy_th, tokens, cycles),
        }

    model = None
    if compare_model:
        spec, guards, mean = _mirror_spec(design)
        model = model_section(
            spec, reference, measured, cycles, seed, tolerance,
            guards=guards, mean_latency=mean,
        )
    return PerformanceReport(
        design=design, backend="compiled", cycles=cycles, seed=seed,
        channels=profiler.channel_section(),
        conservation=profiler.conservation_section(),
        attribution=profiler.attribution_section(),
        ee=ee_section, model=model,
    )


def _late_replay(
    twin: str, lazy_th: float, tokens: int, cycles: int
) -> Dict[str, object]:
    """Cycles the early design saved over its late-evaluation twin."""
    if lazy_th > 0:
        saved = max(0, math.ceil(tokens / lazy_th) - cycles)
    else:
        saved = 0
    return {
        "design": twin,
        "throughput": _canon(lazy_th),
        "tokens": tokens,
        "cycles_saved": saved,
    }


def pipeline_network():
    """The deterministic Fig. 5 dual-EB chain of ``repro trace``, ``repro
    stats`` and ``repro profile`` (``pipeline``)."""
    from repro.elastic.behavioral import (
        ElasticBuffer,
        ElasticNetwork,
        Sink,
        Source,
    )

    net = ElasticNetwork("fig5")
    din = net.add_channel("Din")
    mid = net.add_channel("mid")
    dout = net.add_channel("Dout")
    net.add(Source("src", din))
    net.add(ElasticBuffer("EB0", din, mid, initial_tokens=1,
                          initial_data=["t0"]))
    net.add(ElasticBuffer("EB1", mid, dout))
    net.add(Sink("snk", dout))
    return net


def _pipeline_spec():
    from repro.synthesis.spec import SystemSpec

    spec = SystemSpec("mirror[pipeline]")
    spec.add_source("src")
    spec.add_sink("snk")
    spec.add_register("EB0", initial_tokens=1, initial_data=["t0"])
    spec.add_register("EB1")
    spec.connect(spec.source("src"), spec.register_in("EB0"), name="Din")
    spec.connect(spec.register_out("EB0"), spec.register_in("EB1"),
                 name="mid")
    spec.connect(spec.register_out("EB1"), spec.sink("snk"), name="Dout")
    return spec


def _profile_network(
    design: str, cycles: int, seed: int,
    compare_model: bool, tolerance: float,
) -> PerformanceReport:
    spec = None
    guards: Dict[str, object] = {}
    mean: Optional[Dict[str, float]] = None
    twin_builder = None
    if design == "pipeline":
        net = pipeline_network()
        reference = "Din"
        spec = _pipeline_spec()
    elif design == "processor":
        from repro.casestudy.processor import ProcessorConfig, build_processor

        net, _, _ = build_processor(ProcessorConfig(seed=seed))
        reference = "wb"
        if compare_model:
            raise ValueError(
                "the processor case study has no DMG abstraction; "
                "run it without --compare-model"
            )

        def twin_builder():
            twin, _, _ = build_processor(
                ProcessorConfig(seed=seed, early_writeback=False)
            )
            return twin
    else:
        from repro.casestudy.fig9 import MEAN_LATENCY, Config, build_fig9_spec
        from repro.synthesis.elaborate import to_behavioral

        config = Config[design.upper()]
        spec = build_fig9_spec(config, seed=seed)
        net = to_behavioral(spec, seed=seed)
        reference = "Din->S"
        guards = _fig9_guards(spec)
        mean = MEAN_LATENCY
        if config is not Config.LAZY:

            def twin_builder():
                return to_behavioral(
                    build_fig9_spec(Config.LAZY, seed=seed), seed=seed
                )

    profiler = NetworkProfiler().attach(net)
    net.run(cycles)
    measured = net.throughput(reference)

    ee_section = None
    if profiler.joins:
        ee_section = {
            "joins": {
                name: {
                    "fires": tally["fires"],
                    "early": tally["early"],
                    "anti_tokens_generated": tally["generated"],
                }
                for name, tally in sorted(profiler.joins.items())
            },
            "anti_tokens_annihilated": sum(
                s.kills for s in profiler.stats.values()
            ),
        }
        if twin_builder is not None:
            twin = twin_builder()
            twin.run(cycles)
            lazy_th = twin.throughput(reference)
            tokens = profiler.stats[reference].positive
            twin_name = (
                "lazy" if design in _FIG9_CONFIGS else "in_order_writeback"
            )
            ee_section["late_replay"] = _late_replay(
                twin_name, lazy_th, tokens, cycles
            )

    model = None
    if compare_model:
        if spec is None:  # pragma: no cover - processor raised above
            raise ValueError(f"no model for {design!r}")
        model = model_section(
            spec, reference, measured, cycles, seed, tolerance,
            guards=guards, mean_latency=mean,
        )
    return PerformanceReport(
        design=design, backend="network", cycles=cycles, seed=seed,
        channels=profiler.channel_section(),
        conservation=profiler.conservation_section(),
        attribution=profiler.attribution_section(),
        ee=ee_section, model=model,
    )


def run_profile(
    design: str,
    cycles: int = 2000,
    seed: int = 2007,
    compare_model: bool = False,
    tolerance: float = 0.15,
    cache=None,
) -> PerformanceReport:
    """Profile one design end to end; the ``repro profile`` entry point.

    ``design`` is an RTL campaign target (one lane of the compiled
    engine under the eager environment), a Fig. 9 configuration,
    ``pipeline`` (the Fig. 5 chain) or ``processor`` (both behavioural).
    The report is byte-identical across repeated runs.  ``cache`` is
    the compiled engine's build cache: a
    :class:`~repro.codegen.cache.BuildCache`, a directory, or ``None``
    for the default directory; behavioural designs build nothing.
    ``cycles`` below 1 and a ``tolerance`` that is not ``>= 0`` (NaN
    included) raise :class:`ValueError`.
    """
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if design in _NETWORK_DESIGNS:
        return _profile_network(
            design, cycles, seed, compare_model, tolerance
        )
    from repro.faults.targets import TARGETS

    if design not in TARGETS:
        raise ValueError(
            f"unknown design {design!r}; pick one of "
            f"{', '.join(profile_designs())}"
        )
    return _profile_rtl(
        design, cycles, seed, compare_model, tolerance, cache
    )
