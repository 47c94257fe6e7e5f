"""Fault campaigns on the compiled lane-parallel simulator.

:class:`BatchCampaignHarness` runs every RTL campaign: one
:class:`~repro.codegen.sim.CompiledSimulator` classifies up to
``lanes`` injections of the same sweep simultaneously, each in its own
bit lane, under the broadcast campaign stimulus (``lanes=1`` is the
one-fault-per-run sweep).  The simulator has one lane more than that:
the top lane never receives an override, so it is the fault-free
(golden) run of the same stimulus, computed in the same kernel call as
the faulty lanes -- parallel fault simulation with the good machine in
one bit of the word.  :meth:`~BatchCampaignHarness.run_schedule`
replays a whole injection schedule in lane 0, for
:mod:`repro.faults.shrink`.

The online SELF monitors (the rules listed in
:mod:`repro.faults.monitors`) are word-wide: every rule is evaluated
for all lanes with a few integer operations on the simulator's plane
arrays (signal slots are resolved once, at bank construction), and
per-lane values are only unpacked on a violation, to build the detail
string.  A lane's verdict depends only on its own trace and the
golden lane's, which every chunk computes alike, under a fixed bank
order, if/elif precedence inside each monitor and
first-detection-wins rule, which is what makes a report byte-identical
for every lanes/jobs split (locked by
``tests/faults/test_campaign_determinism.py``).  The scalar harness and
monitor bank these replaced are the reference in
``tests/faults/scalar_reference.py``.

The conservation monitor checks ``occ(t) == occ(t-1) + delta(t-1)``
by counting: with every term moved to the side where it is added, both
sides are sums of seven bits, and two lane-parallel popcounts (four
full adders each, a count of 0..7 as three planes, bit ``i`` of plane
``j`` holding bit ``j`` of lane ``i``'s count) are compared plane by
plane.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry

from repro.codegen.cache import BuildCache
from repro.codegen.sim import CompiledSimulator
from repro.faults.campaign import (
    _FAULT_MASK,
    CampaignConfig,
    FaultOutcome,
    make_stimulus,
)
from repro.faults.models import Injection
from repro.faults.monitors import EbProbe, Violation
from repro.faults.targets import RtlTarget
from repro.rtl.batchsim import (
    LaneOverride,
    broadcast,
    unpack_lane,
)
from repro.rtl.logic import Value
from repro.verif.traces import TraceStep

__all__ = [
    "BatchCampaignHarness",
    "batch_monitor_bank",
    "lane_overrides",
    "protocol_monitors",
]


def _lanes_of(mask: int) -> Iterator[int]:
    """The set bit positions of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _count7(
    x1: int, x2: int, x3: int, x4: int, x5: int, x6: int, x7: int
) -> Tuple[int, int, int]:
    """Lane-parallel count of seven bits (0..7) as three planes, lowest
    first: four full adders, each ``(a ^ b ^ c, majority(a, b, c))``."""
    h = x1 ^ x2
    s1, c1 = h ^ x3, (x1 & x2) | (h & x3)
    h = x4 ^ x5
    s2, c2 = h ^ x6, (x4 & x5) | (h & x6)
    h = s1 ^ s2
    b0, c3 = h ^ x7, (s1 & s2) | (h & x7)
    h = c1 ^ c2
    return b0, h ^ c3, (c1 & c2) | (h & c3)


# ----------------------------------------------------------------------
# Word-wide monitors
# ----------------------------------------------------------------------
class BatchMonitor:
    """Base: observe one settled cycle for all (still alive) lanes.

    ``observe`` reads the simulator's live value planes (``v[slot]`` is
    the strict-bit word of a wire: lane set iff known 1, the word-wide
    :func:`repro.faults.monitors._bit`) and returns ``(lane,
    Violation)`` pairs; the harness kills each reported lane before
    calling the next monitor, so the first monitor in bank order to
    fire on a lane decides its verdict.
    """

    name = "monitor"

    def observe(
        self, cycle: int, v: List[int], k: List[int], alive: int
    ) -> List[Tuple[int, Violation]]:
        raise NotImplementedError


class BatchInvariantMonitor(BatchMonitor):
    """Word-wide equation (2) check on one channel."""

    def __init__(self, channel, sim: CompiledSimulator) -> None:
        self.name = f"invariant[{channel.name}]"
        self._vp = sim.slot(channel.vp)
        self._sp = sim.slot(channel.sp)
        self._vn = sim.slot(channel.vn)
        self._sn = sim.slot(channel.sn)

    def observe(self, cycle, v, k, alive):
        neg = v[self._vn] & v[self._sp] & alive
        pos = v[self._vp] & v[self._sn] & alive & ~neg
        if not (neg | pos):
            return []
        out = [
            (lane, Violation(cycle, self.name, "V- and S+ both asserted"))
            for lane in _lanes_of(neg)
        ]
        out.extend(
            (lane, Violation(cycle, self.name, "V+ and S- both asserted"))
            for lane in _lanes_of(pos)
        )
        return out


class BatchPersistenceMonitor(BatchMonitor):
    """Word-wide Retry persistence on one channel."""

    def __init__(self, channel, sim: CompiledSimulator) -> None:
        self.name = f"persistence[{channel.name}]"
        self._vp = sim.slot(channel.vp)
        self._sp = sim.slot(channel.sp)
        self._vn = sim.slot(channel.vn)
        self._sn = sim.slot(channel.sn)
        self._pending_pos = 0
        self._pending_neg = 0

    def observe(self, cycle, v, k, alive):
        vp = v[self._vp]
        vn = v[self._vn]
        dropped_pos = self._pending_pos & ~vp & alive
        dropped_neg = self._pending_neg & ~vn & alive & ~dropped_pos
        # A kill resolves both flows; only a genuine retry carries over.
        self._pending_pos = vp & v[self._sp] & ~vn
        self._pending_neg = vn & v[self._sn] & ~vp
        if not (dropped_pos | dropped_neg):
            return []
        out = [
            (lane, Violation(cycle, self.name, "V+ dropped during Retry+"))
            for lane in _lanes_of(dropped_pos)
        ]
        out.extend(
            (lane, Violation(cycle, self.name, "V- dropped during Retry-"))
            for lane in _lanes_of(dropped_neg)
        )
        return out


class BatchEncodingMonitor(BatchMonitor):
    """Word-wide thermometer-code invariants of the EB state bits."""

    def __init__(self, probe: EbProbe, sim: CompiledSimulator) -> None:
        self.name = f"encoding[{probe.prefix}]"
        self._bits = tuple(sim.slot(s) for s in probe.state_bits)

    def observe(self, cycle, v, k, alive):
        t0, t1, a0, a1 = (v[s] for s in self._bits)
        bad_t = t1 & ~t0 & alive
        bad_a = a1 & ~a0 & alive & ~bad_t
        coexist = t0 & a0 & alive & ~bad_t & ~bad_a
        if not (bad_t | bad_a | coexist):
            return []
        out = [
            (lane, Violation(cycle, self.name, "t1 set without t0"))
            for lane in _lanes_of(bad_t)
        ]
        out.extend(
            (lane, Violation(cycle, self.name, "a1 set without a0"))
            for lane in _lanes_of(bad_a)
        )
        out.extend(
            (lane, Violation(cycle, self.name,
                             "tokens and anti-tokens coexist"))
            for lane in _lanes_of(coexist)
        )
        return out


class BatchConservationMonitor(BatchMonitor):
    """Word-wide token conservation, checked by counting.

    ``occ(t) == occ(t-1) + delta(t-1)``, with ``occ = t0 + t1 - a0 - a1``
    and ``delta`` the previous cycle's boundary flux (tokens in and
    anti-tokens out on the left, tokens out and anti-tokens in on the
    right, kills on either side), is rearranged so both sides only add;
    primes mark the previous cycle::

        t0 + t1 + a0' + a1' + out_pos' + kill_right' + in_neg'
          == a0 + a1 + t0' + t1' + in_pos' + kill_left' + out_neg'

    Each side is a popcount of seven bit planes, so comparing the two
    counts plane by plane is exact.  The integers of the detail string
    are only decoded for the lanes that fire.
    """

    def __init__(self, probe: EbProbe, sim: CompiledSimulator) -> None:
        self.name = f"conservation[{probe.prefix}]"
        left, right = probe.left, probe.right
        self._read = itemgetter(*(
            sim.slot(s) for s in (
                *probe.state_bits,
                left.vp, left.sp, left.vn, left.sn,
                right.vp, right.sp, right.vn, right.sn,
            )
        ))
        #: the previous cycle's ``(t0, t1, a0, a1, in_pos, kill_left,
        #: out_neg, out_pos, kill_right, in_neg)`` planes
        self._prev: Optional[Tuple[int, ...]] = None

    def observe(self, cycle, v, k, alive):
        t0, t1, a0, a1, lvp, lsp, lvn, lsn, rvp, rsp, rvn, rsn = self._read(v)
        prev = self._prev
        self._prev = (
            t0, t1, a0, a1,
            lvp & ~(lsp | lvn), lvp & lvn, lvn & ~(lsn | lvp),
            rvp & ~(rsp | rvn), rvp & rvn, rvn & ~(rsn | rvp),
        )
        if prev is None:
            return []
        (pt0, pt1, pa0, pa1, in_pos, kill_left, out_neg,
         out_pos, kill_right, in_neg) = prev
        g0, g1, g2 = _count7(t0, t1, pa0, pa1, out_pos, kill_right, in_neg)
        h0, h1, h2 = _count7(a0, a1, pt0, pt1, in_pos, kill_left, out_neg)
        mismatch = ((g0 ^ h0) | (g1 ^ h1) | (g2 ^ h2)) & alive
        out: List[Tuple[int, Violation]] = []
        for lane in _lanes_of(mismatch):
            b = [(word >> lane) & 1 for word in (*prev, t0, t1, a0, a1)]
            occupancy = b[0] + b[1] - b[2] - b[3]
            delta = b[4] + b[5] + b[6] - b[7] - b[8] - b[9]
            observed = b[10] + b[11] - b[12] - b[13]
            out.append((lane, Violation(
                cycle, self.name,
                f"occupancy {occupancy} + delta {delta} "
                f"!= observed {observed}",
            )))
        return out


class BatchGoldenMonitor(BatchMonitor):
    """Word-wide lock-step comparison against the golden (top) lane.

    The caller runs ``sim``'s top lane ``g`` on the same stimulus
    without faults.  The planes never carry bits above the lane mask, so
    ``w >> g`` is exactly the golden bit of a plane word ``w``,
    ``-(w >> g)`` spreads it to every lane, and with both planes
    canonical (``v & ~k == 0``) ``(v ^ -(v >> g)) | (k ^ -(k >> g))`` is
    set exactly on the lanes whose ternary value differs from the golden
    one -- ``X`` matches only ``X``.  Lanes are claimed by the first
    mismatching wire in ``wires`` order.
    """

    name = "golden"

    def __init__(self, wires: Sequence[str], sim: CompiledSimulator) -> None:
        self.wires = list(wires)
        self._slots = [sim.slot(w) for w in wires]
        #: the golden lane; only the top one makes ``w >> g`` one bit
        self.lane = sim.lanes - 1

    def observe(self, cycle, v, k, alive):
        g = self.lane
        out: List[Tuple[int, Violation]] = []
        for i, slot in enumerate(self._slots):
            vs, ks = v[slot], k[slot]
            mismatch = ((vs ^ -(vs >> g)) | (ks ^ -(ks >> g))) & alive
            if not mismatch:
                continue
            alive &= ~mismatch
            want = unpack_lane((vs, ks), g)
            for lane in _lanes_of(mismatch):
                got = unpack_lane((vs, ks), lane)
                out.append((
                    lane,
                    Violation(
                        cycle,
                        f"{self.name}[{self.wires[i]}]",
                        f"expected {want!r}, observed {got!r}",
                    ),
                ))
            if not alive:
                break
        return out


def protocol_monitors(
    channels: Sequence, sim: CompiledSimulator
) -> List[BatchMonitor]:
    """Equation (2) then Retry persistence, per channel in order."""
    bank: List[BatchMonitor] = []
    for ch in channels:
        bank.append(BatchInvariantMonitor(ch, sim))
        bank.append(BatchPersistenceMonitor(ch, sim))
    return bank


def batch_monitor_bank(
    target: RtlTarget, sim: CompiledSimulator
) -> List[BatchMonitor]:
    """A fresh monitor bank: channel protocol, EB state, then golden.

    The golden monitor compares ``target.observe`` with the simulator's
    top lane, which the caller runs fault-free.
    """
    bank = protocol_monitors(target.channels, sim)
    for probe in target.ebs:
        bank.append(BatchEncodingMonitor(probe, sim))
        bank.append(BatchConservationMonitor(probe, sim))
    bank.append(BatchGoldenMonitor(target.observe, sim))
    return bank


# ----------------------------------------------------------------------
# Harnesses
# ----------------------------------------------------------------------
def lane_overrides(
    injections: Sequence[Injection], time: int
) -> Dict[str, LaneOverride]:
    """Per-net override masks for one cycle, lane ``i`` = injection ``i``."""
    overrides: Dict[str, LaneOverride] = {}
    for lane, injection in enumerate(injections):
        if not injection.active(time):
            continue
        override = overrides.setdefault(injection.net, LaneOverride())
        bit = 1 << lane
        if injection.kind == "stuck0":
            override.set0 |= bit
        elif injection.kind == "stuck1":
            override.set1 |= bit
        else:
            override.flip |= bit
    return overrides


def _activity_edges(injections: Sequence[Injection]) -> frozenset:
    """The cycles where some injection switches on or off."""
    edges = set()
    for injection in injections:
        edges.add(injection.cycle)
        if injection.duration is not None:
            edges.add(injection.cycle + injection.duration)
    return frozenset(edges)


def _schedule_overrides(
    schedule: Sequence[Injection], time: int
) -> Dict[str, LaneOverride]:
    """Lane-0 override masks for one cycle of a whole schedule.

    On each net the last active entry wins: a later stuck-at replaces
    an earlier one on the same net instead of combining with it.
    """
    last = {inj.net: inj for inj in schedule if inj.active(time)}
    return {
        net: LaneOverride(**{_FAULT_MASK[inj.kind]: 1})
        for net, inj in last.items()
    }


class BatchCampaignHarness:
    """One target + one stimulus, up to ``lanes`` faults per simulation.

    :meth:`run_chunk` classifies up to ``lanes`` injections, one per
    lane, in a single run and returns their :class:`FaultOutcome`
    objects in sweep order; :meth:`run_schedule` replays one injection
    schedule in lane 0.  The simulator runs ``lanes + 1`` lanes: lane
    ``lanes`` never receives an override and is the golden run every
    sweep compares against.

    ``cache`` is the build cache of the generated module: a
    :class:`~repro.codegen.cache.BuildCache`, a directory path, or
    ``None`` for the default directory.  Construction compiles the
    target, so a netlist with a combinational cycle raises
    :class:`~repro.rtl.toposort.CombinationalCycleError` naming it.
    """

    def __init__(
        self,
        target: RtlTarget,
        config: CampaignConfig,
        lanes: int = 64,
        metrics: Optional["MetricsRegistry"] = None,
        cache: Union[BuildCache, str, None] = None,
    ) -> None:
        if lanes < 1:
            raise ValueError("need at least one lane")
        self.target = target
        self.config = config
        self.lanes = lanes
        self.metrics = metrics
        self.cache = cache
        self.sim = self._make_sim()
        self.stimulus = make_stimulus(
            target.free_inputs, config.cycles, config.seed
        )
        self.packed = [
            {name: broadcast(value, self.sim.lanes)
             for name, value in inputs.items()}
            for inputs in self.stimulus
        ]

    def _make_sim(self) -> CompiledSimulator:
        """The simulator restricted to what a campaign touches.

        Override hooks sit at the target's fault sites only, and
        end-of-cycle writeback covers the target's observed wires (the
        union of every monitor's read set).  One lane above ``lanes``
        carries the golden run; generated modules are lane-agnostic, so
        it costs no other build.
        """
        return CompiledSimulator(
            self.target.netlist,
            self.lanes + 1,
            hooks=frozenset(self.target.fault_sites),
            observe=frozenset(self.target.observe),
            cache=self.cache,
            metrics=self.metrics,
        )

    def _sweep(
        self,
        overrides_at: Callable[[int], Dict[str, LaneOverride]],
        edges: frozenset,
        alive: int,
        steps: Optional[List[TraceStep]] = None,
    ) -> Dict[int, Violation]:
        """Run the stimulus from reset until every ``alive`` lane is caught.

        ``overrides_at(t)`` is installed at each cycle of ``edges`` (the
        cycles where some fault switches on or off); it never touches
        the golden lane, which ``alive`` leaves out.  Returns each
        caught lane's first violation; ``steps``, when given, receives
        lane 0's trace up to and including the last cycle run.
        """
        sim = self.sim
        sim.reset()
        # Clear the previous run's lane overrides: a stuck fault stays
        # active to the end of its run, and a run whose earliest
        # activity edge sits past cycle 0 would otherwise simulate its
        # opening cycles under the previous run's faults -- making the
        # verdict depend on which chunk the harness ran before, i.e. on
        # scheduling.
        sim.set_overrides({})
        bank = batch_monitor_bank(self.target, sim)
        found: Dict[int, Violation] = {}
        value_planes = sim.value_planes
        known_planes = sim.known_planes
        metrics = self.metrics
        cycles_run = busy_lanes = 0
        for t, packed in enumerate(self.packed):
            if t in edges:
                sim.set_overrides(overrides_at(t))
            sim.cycle(packed)
            if steps is not None:
                steps.append(TraceStep(
                    state=t,
                    inputs=dict(self.stimulus[t]),
                    signals={
                        w: 1 if sim.lane_value(w, 0) == 1 else 0
                        for w in self.target.observe
                    },
                ))
            if metrics is not None:
                cycles_run += 1
                busy_lanes += bin(alive).count("1")
            for monitor in bank:
                for lane, violation in monitor.observe(
                    t, value_planes, known_planes, alive
                ):
                    found[lane] = violation
                    alive &= ~(1 << lane)
                if not alive:
                    break
            if not alive:
                break
        if metrics is not None:
            metrics.counter("batchsim_cycles_total").inc(cycles_run)
            metrics.counter("batchsim_busy_lane_cycles_total").inc(busy_lanes)
            metrics.gauge("batchsim_lane_utilization").set(
                round(busy_lanes / (cycles_run * self.lanes), 6)
                if cycles_run else 0.0
            )
        return found

    def run_chunk(self, injections: Sequence[Injection]) -> List[FaultOutcome]:
        """Classify up to ``lanes`` injections in one lane-parallel run."""
        if not injections:
            return []
        if len(injections) > self.lanes:
            raise ValueError(
                f"{len(injections)} injections exceed {self.lanes} lanes"
            )
        found = self._sweep(
            lambda t: lane_overrides(injections, t),
            _activity_edges(injections),
            (1 << len(injections)) - 1,
        )
        # A lane that survives kept the sweep going to the horizon, so
        # the golden lane's state is then the golden final state.
        golden_final: Optional[Dict[str, Value]] = None
        outcomes: List[FaultOutcome] = []
        for lane, injection in enumerate(injections):
            violation = found.get(lane)
            if violation is not None:
                outcomes.append(FaultOutcome(
                    fault=injection.label(),
                    status="detected",
                    monitor=violation.monitor,
                    detection_cycle=violation.cycle,
                    detail=violation.detail,
                ))
                continue
            if golden_final is None:
                golden_final = self.sim.lane_state(self.lanes)
            final = self.sim.lane_state(lane)
            if final != golden_final:
                diverged = sorted(
                    s for s, v in final.items() if golden_final.get(s) != v
                )
                outcomes.append(FaultOutcome(
                    fault=injection.label(),
                    status="latent",
                    detail=f"state diverged: {', '.join(diverged[:4])}",
                ))
            else:
                outcomes.append(FaultOutcome(
                    fault=injection.label(), status="undetected"
                ))
        return outcomes

    def run_schedule(
        self, schedule: Sequence[Injection], record: bool = False
    ) -> Tuple[Optional[Violation], Optional[List[TraceStep]], Dict[str, Value]]:
        """Run one injection schedule in lane 0 to first detection.

        On one net the later active entry of ``schedule`` wins.  Returns
        ``(violation, steps, final_state)``: the first violation (or
        ``None`` at the horizon), lane 0's trace up to and including
        the detection cycle when ``record`` is set, and lane 0's
        latch/flop state where the run stopped.  A net outside the
        target's fault sites, which carry the module's only override
        guards, raises ``ValueError`` before anything runs.
        """
        sites = set(self.target.fault_sites)
        outside = sorted({inj.net for inj in schedule} - sites)
        if outside:
            raise ValueError(
                f"not fault sites of {self.target.name}: "
                f"{', '.join(outside)}"
            )
        steps: Optional[List[TraceStep]] = [] if record else None
        found = self._sweep(
            lambda t: _schedule_overrides(schedule, t),
            _activity_edges(schedule),
            1,
            steps,
        )
        return found.get(0), steps, self.sim.lane_state(0)
