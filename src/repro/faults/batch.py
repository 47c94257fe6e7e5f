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
:mod:`repro.faults.monitors`) are word-wide: each monitor class states
its rules once, as integer operations on plane words
(:meth:`BatchMonitor.rules`), and a :class:`MonitorBank` traces the
rules of all its monitors into one generated straight-line check,
compiled once per process per bank.  Per cycle the check reads each
observed slot once, moves the carried planes (persistence's pending
retries, conservation's previous cycle) on for every lane and returns
nothing unless a live lane breaks a rule; only then are the rule words
applied in bank order and per-lane values unpacked, to build the
detail strings.  A lane's verdict depends only on its own trace and
the golden lane's, which every chunk computes alike, under a fixed
bank order and first-rule-wins, which is what makes a report
byte-identical for every lanes/jobs split (locked by
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

import hashlib
import re
from collections.abc import Sequence as SequenceABC
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry

from repro.codegen import cache as codegen_cache
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
from repro.rtl.batchsim import LaneOverride, unpack_lane
from repro.rtl.logic import Value
from repro.verif.traces import TraceStep

__all__ = [
    "BatchCampaignHarness",
    "MonitorBank",
    "batch_monitor_bank",
    "campaign_restriction",
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
    first: four full adders, each ``(a ^ b ^ c, majority(a, b, c))``.
    Called on traced planes, it writes the same adders into a bank's
    generated check."""
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
class _Trace:
    """The statements of one generated check, bound as they are traced."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._bound: Dict[str, str] = {}

    def bind(self, expr: str) -> "_Plane":
        """The local holding ``expr``, bound once per check."""
        name = self._bound.get(expr)
        if name is None:
            name = self._bound[expr] = f"t{len(self.lines)}"
            self.lines.append(f"{name}={expr}")
        return _Plane(self, name)


class _Plane:
    """A plane word while a bank traces the rules of its monitors.

    Each operator binds its result to a fresh local of the generated
    check, so a rule written as plain word arithmetic becomes
    straight-line code in which every subexpression is computed once.
    Plain ints enter as literals.
    """

    __slots__ = ("trace", "name")

    def __init__(self, trace: _Trace, name: str) -> None:
        self.trace = trace
        self.name = name

    def __and__(self, other) -> "_Plane":
        return self.trace.bind(f"{self.name}&{_term(other)}")

    def __or__(self, other) -> "_Plane":
        return self.trace.bind(f"{self.name}|{_term(other)}")

    def __xor__(self, other) -> "_Plane":
        return self.trace.bind(f"{self.name}^{_term(other)}")

    def __rshift__(self, other) -> "_Plane":
        return self.trace.bind(f"{self.name}>>{_term(other)}")

    def __invert__(self) -> "_Plane":
        return self.trace.bind(f"~{self.name}")

    def __neg__(self) -> "_Plane":
        return self.trace.bind(f"-{self.name}")


def _term(word) -> str:
    return word.name if isinstance(word, _Plane) else repr(int(word))


#: One rule of a monitor: the monitor name its violations carry, the
#: word of lanes breaking it, and its detail string (``None`` when
#: :meth:`BatchMonitor.describe` builds one per lane).
Rule = Tuple[str, object, Optional[str]]


class BatchMonitor:
    """Base: one family of SELF rules, stated once as word arithmetic.

    ``wires`` are the signals the monitor reads.  :meth:`rules` gets
    their value planes ``v`` (lane set iff known 1: the strict-bit
    reading of :func:`repro.faults.monitors._bit`), their known planes
    ``k`` (``None`` while the simulator runs the known dialect, where
    every lane is known), the planes carried from the previous cycle
    (named by ``carried``; all 0 at the start of a sweep) and the
    golden lane ``g``.  It returns the monitor's rules in precedence
    order -- a lane is claimed by the first rule it breaks -- and the
    planes to carry into the next cycle.

    A :class:`MonitorBank` traces the rules of all its monitors into one
    generated check; :meth:`observe` runs a bank of this monitor alone.
    """

    name = "monitor"
    carried: Tuple[str, ...] = ()

    def __init__(self, wires: Sequence[str], sim: CompiledSimulator) -> None:
        self.wires = list(wires)
        self.slots = tuple(sim.slot(w) for w in self.wires)
        #: the top lane of ``sim``, the golden run
        self.lane = sim.lanes - 1
        self._bank: Optional[MonitorBank] = None

    def rules(self, v, k, prev, g) -> Tuple[List[Rule], Sequence]:
        raise NotImplementedError

    def describe(self, rule: int, lane: int, v: List[int], k: List[int],
                 prev: Tuple[int, ...]) -> str:
        """The detail of rule ``rule`` on ``lane``, for a rule declared
        without one; ``prev`` is this monitor's carried planes going
        into the cycle."""
        raise NotImplementedError

    def observe(
        self, cycle: int, v: List[int], k: List[int], alive: int
    ) -> List[Tuple[int, Violation]]:
        """This monitor alone on one settled cycle: the ``(lane,
        Violation)`` pairs of the ``alive`` lanes it claims."""
        if self._bank is None:
            self._bank = MonitorBank([self], self.lane)
        return self._bank.observe(cycle, v, k, alive)


class BatchInvariantMonitor(BatchMonitor):
    """Word-wide equation (2) check on one channel."""

    def __init__(self, channel, sim: CompiledSimulator) -> None:
        super().__init__(channel.wires(), sim)
        self.name = f"invariant[{channel.name}]"

    def rules(self, v, k, prev, g):
        vp, sp, vn, sn = v
        return [
            (self.name, vn & sp, "V- and S+ both asserted"),
            (self.name, vp & sn, "V+ and S- both asserted"),
        ], ()


class BatchPersistenceMonitor(BatchMonitor):
    """Word-wide Retry persistence on one channel."""

    carried = ("pending_pos", "pending_neg")

    def __init__(self, channel, sim: CompiledSimulator) -> None:
        super().__init__(channel.wires(), sim)
        self.name = f"persistence[{channel.name}]"

    def rules(self, v, k, prev, g):
        vp, sp, vn, sn = v
        pending_pos, pending_neg = prev
        # A kill resolves both flows; only a genuine retry carries over.
        return [
            (self.name, pending_pos & ~vp, "V+ dropped during Retry+"),
            (self.name, pending_neg & ~vn, "V- dropped during Retry-"),
        ], (vp & sp & ~vn, vn & sn & ~vp)


class BatchEncodingMonitor(BatchMonitor):
    """Word-wide thermometer-code invariants of the EB state bits."""

    def __init__(self, probe: EbProbe, sim: CompiledSimulator) -> None:
        super().__init__(probe.state_bits, sim)
        self.name = f"encoding[{probe.prefix}]"

    def rules(self, v, k, prev, g):
        t0, t1, a0, a1 = v
        return [
            (self.name, t1 & ~t0, "t1 set without t0"),
            (self.name, a1 & ~a0, "a1 set without a0"),
            (self.name, t0 & a0, "tokens and anti-tokens coexist"),
        ], ()


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
    counts plane by plane is exact.  ``primed`` is all ones from the
    second cycle of a sweep on, so the first cycle, which has no
    previous one, checks nothing.  The integers of the detail string
    are only decoded for the lanes that fire.
    """

    carried = (
        "primed", "t0", "t1", "a0", "a1",
        "in_pos", "kill_left", "out_neg", "out_pos", "kill_right", "in_neg",
    )

    def __init__(self, probe: EbProbe, sim: CompiledSimulator) -> None:
        super().__init__(
            (*probe.state_bits, *probe.left.wires(), *probe.right.wires()),
            sim,
        )
        self.name = f"conservation[{probe.prefix}]"

    def rules(self, v, k, prev, g):
        t0, t1, a0, a1, lvp, lsp, lvn, lsn, rvp, rsp, rvn, rsn = v
        (primed, pt0, pt1, pa0, pa1, in_pos, kill_left, out_neg,
         out_pos, kill_right, in_neg) = prev
        g0, g1, g2 = _count7(t0, t1, pa0, pa1, out_pos, kill_right, in_neg)
        h0, h1, h2 = _count7(a0, a1, pt0, pt1, in_pos, kill_left, out_neg)
        mismatch = ((g0 ^ h0) | (g1 ^ h1) | (g2 ^ h2)) & primed
        return [(self.name, mismatch, None)], (
            -1, t0, t1, a0, a1,
            lvp & ~(lsp | lvn), lvp & lvn, lvn & ~(lsn | lvp),
            rvp & ~(rsp | rvn), rvp & rvn, rvn & ~(rsn | rvp),
        )

    def describe(self, rule, lane, v, k, prev):
        now = (v[slot] for slot in self.slots[:4])
        b = [(word >> lane) & 1 for word in (*prev[1:], *now)]
        occupancy = b[0] + b[1] - b[2] - b[3]
        delta = b[4] + b[5] + b[6] - b[7] - b[8] - b[9]
        observed = b[10] + b[11] - b[12] - b[13]
        return f"occupancy {occupancy} + delta {delta} != observed {observed}"


class BatchGoldenMonitor(BatchMonitor):
    """Word-wide lock-step comparison against the golden (top) lane.

    The caller runs ``sim``'s top lane ``g`` on the same stimulus
    without faults.  The planes never carry bits above the lane mask, so
    ``w >> g`` is exactly the golden bit of a plane word ``w``,
    ``-(w >> g)`` spreads it to every lane, and with both planes
    canonical (``v & ~k == 0``) ``(v ^ -(v >> g)) | (k ^ -(k >> g))`` is
    set exactly on the lanes whose ternary value differs from the golden
    one -- ``X`` matches only ``X``.  In the known dialect every lane is
    known, so the known-plane term is 0 and drops out.  Lanes are
    claimed by the first mismatching wire in ``wires`` order.
    """

    name = "golden"

    def rules(self, v, k, prev, g):
        rules: List[Rule] = []
        for i, wire in enumerate(self.wires):
            mismatch = v[i] ^ -(v[i] >> g)
            if k is not None:
                mismatch = mismatch | (k[i] ^ -(k[i] >> g))
            rules.append((f"{self.name}[{wire}]", mismatch, None))
        return rules, ()

    def describe(self, rule, lane, v, k, prev):
        slot = self.slots[rule]
        planes = (v[slot], k[slot])
        return (f"expected {unpack_lane(planes, self.lane)!r}, "
                f"observed {unpack_lane(planes, lane)!r}")


def _tuple(names: Sequence[str]) -> str:
    return f"({','.join(names)},)" if names else "()"


def _bank_source(
    monitors: Sequence[BatchMonitor],
) -> Tuple[str, List[tuple], int]:
    """The generated source of one bank, its rules in bank order as
    ``(monitor position, index, name, detail, lo, hi)`` (``lo:hi`` the
    monitor's share of the carried planes) and the number of carried
    planes."""
    parts = ["# Generated by repro.faults.batch -- one monitor bank."]
    for function, known in (("check", False), ("known_check", True)):
        trace = _Trace()
        carried: List[str] = []
        nexts: List[str] = []
        words: List[str] = []
        rules: List[tuple] = []
        for position, monitor in enumerate(monitors):
            v = tuple(_Plane(trace, f"v{s}") for s in monitor.slots)
            k = None if known else tuple(
                _Plane(trace, f"k{s}") for s in monitor.slots
            )
            lo = len(carried)
            carried.extend(
                f"p{lo + i}" for i in range(len(monitor.carried))
            )
            prev = tuple(_Plane(trace, name) for name in carried[lo:])
            declared, after = monitor.rules(v, k, prev, _Plane(trace, "g"))
            nexts.extend(_term(word) for word in after)
            for index, (name, word, detail) in enumerate(declared):
                words.append(_term(word))
                rules.append((position, index, name, detail, lo,
                              len(carried)))
        # Read only the slots some statement uses (the known dialect's
        # check reads no known plane).
        body = trace.lines + words + nexts
        reads = sorted(
            {(m[0], int(m[1:])) for m in re.findall(r"\b[vk]\d+\b",
                                                     "\n".join(body))},
        )
        lines = [f"def {function}(v, k, s, alive, g):"]
        lines.extend(f"{p}{slot}={p}[{slot}]" for p, slot in reads)
        if carried:
            lines.append(f"{','.join(carried)},=s")
        lines.extend(trace.lines)
        if carried:
            lines.append(f"s[:]={_tuple(nexts)}")
        if words:
            lines.append(f"if ({'|'.join(words)})&alive:")
            lines.append(f"    return {_tuple(words)},{_tuple(carried)}")
        if len(lines) == 1:
            lines.append("return None")
        parts.extend(["", "", lines[0]])
        parts.extend(f"    {line}" for line in lines[1:])
    parts.append("")
    return "\n".join(parts), rules, len(carried)


#: Compiled banks by shape, oldest first; at most :data:`_MAX_BANKS`.
_BANKS: Dict[tuple, tuple] = {}
_MAX_BANKS = 64


def _compiled_bank(monitors: Sequence[BatchMonitor]) -> tuple:
    """``(check, known_check, rules, carried)`` of a bank, generated and
    compiled once per process per shape: the monitor classes, names,
    wires and slots, which fix the generated source."""
    shape = tuple(
        (type(m), m.name, tuple(m.wires), m.slots) for m in monitors
    )
    bank = _BANKS.get(shape)
    if bank is None:
        source, rules, carried = _bank_source(monitors)
        key = hashlib.sha256(source.encode()).hexdigest()
        filename = f"<repro.faults.bank:{key[:16]}>"
        module = codegen_cache._exec_module(
            key, codegen_cache._compile_chunks(source, filename), filename
        )
        bank = (module.check, module.known_check, tuple(rules), carried)
        if len(_BANKS) >= _MAX_BANKS:
            del _BANKS[next(iter(_BANKS))]
        _BANKS[shape] = bank
    return bank


class MonitorBank(SequenceABC):
    """Monitors in bank order, checked by one generated function.

    The rules of every monitor are traced into one straight-line source
    with two entry points, compiled once per process per bank shape:
    ``check`` for two-plane values and ``known_check`` for the known
    dialect, without the known-plane terms.  Both are called as
    ``(v, k, state, alive, g)``: they read each observed slot once,
    move ``state`` (the carried planes in bank order, updated for every
    lane) on by one cycle, and return ``None`` unless an ``alive`` lane
    breaks a rule; then they return every rule's word and the carried
    planes going into the cycle, which :meth:`violations` turns into
    violations.  ``lane`` is the golden lane ``g``.
    """

    def __init__(self, monitors: Sequence[BatchMonitor], lane: int) -> None:
        self.monitors = tuple(monitors)
        self.lane = lane
        self.check, self.known_check, self._rules, carried = _compiled_bank(
            self.monitors
        )
        self.state: List[int] = [0] * carried

    def __getitem__(self, index):
        return self.monitors[index]

    def __len__(self) -> int:
        return len(self.monitors)

    def reset(self) -> None:
        """Zero the carried planes, as at the start of a sweep."""
        self.state[:] = [0] * len(self.state)

    def observe(
        self, cycle: int, v: List[int], k: List[int], alive: int
    ) -> List[Tuple[int, Violation]]:
        """The whole bank on one settled cycle of two-plane values."""
        fired = self.check(v, k, self.state, alive, self.lane)
        if fired is None:
            return []
        return self.violations(cycle, fired, v, k, alive)

    def violations(
        self, cycle: int, fired: tuple, v: List[int], k: List[int],
        alive: int,
    ) -> List[Tuple[int, Violation]]:
        """The ``(lane, Violation)`` pairs of a firing cycle: rules in
        bank order, each claiming the ``alive`` lanes no earlier rule
        claimed, lanes in ascending order within a rule."""
        words, prev = fired
        out: List[Tuple[int, Violation]] = []
        for word, (position, index, name, detail, lo, hi) in zip(
            words, self._rules
        ):
            hit = word & alive
            if not hit:
                continue
            alive ^= hit
            for lane in _lanes_of(hit):
                text = detail if detail is not None else self.monitors[
                    position
                ].describe(index, lane, v, k, prev[lo:hi])
                out.append((lane, Violation(cycle, name, text)))
            if not alive:
                break
        return out


def _protocol(channels: Sequence, sim: CompiledSimulator) -> List[BatchMonitor]:
    monitors: List[BatchMonitor] = []
    for ch in channels:
        monitors.append(BatchInvariantMonitor(ch, sim))
        monitors.append(BatchPersistenceMonitor(ch, sim))
    return monitors


def protocol_monitors(
    channels: Sequence, sim: CompiledSimulator
) -> MonitorBank:
    """Equation (2) then Retry persistence, per channel in order."""
    return MonitorBank(_protocol(channels, sim), sim.lanes - 1)


def batch_monitor_bank(
    target: RtlTarget, sim: CompiledSimulator
) -> MonitorBank:
    """A fresh monitor bank: channel protocol, EB state, then golden.

    The golden monitor compares ``target.observe`` with the simulator's
    top lane, which the caller runs fault-free.
    """
    monitors = _protocol(target.channels, sim)
    for probe in target.ebs:
        monitors.append(BatchEncodingMonitor(probe, sim))
        monitors.append(BatchConservationMonitor(probe, sim))
    monitors.append(BatchGoldenMonitor(target.observe, sim))
    return MonitorBank(monitors, sim.lanes - 1)


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


def campaign_restriction(target: RtlTarget) -> Dict[str, FrozenSet[str]]:
    """The ``hooks`` and ``observe`` of a campaign's generated module,
    which with the netlist make its build-cache key.

    Override hooks sit at the target's fault sites only, and
    end-of-cycle writeback covers the target's observed wires (the
    union of every monitor's read set).  The harness builds its
    simulator with these, and :func:`~repro.faults.campaign.run_campaign`
    loads the same module before it forks local workers.
    """
    return {
        "hooks": frozenset(target.fault_sites),
        "observe": frozenset(target.observe),
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
        self.packed = self.sim.broadcast(self.stimulus)
        self.bank = batch_monitor_bank(target, self.sim)

    def _make_sim(self) -> CompiledSimulator:
        """The simulator restricted to what a campaign touches
        (:func:`campaign_restriction`).  One lane above ``lanes``
        carries the golden run; generated modules are lane-agnostic, so
        it costs no other build.
        """
        return CompiledSimulator(
            self.target.netlist,
            self.lanes + 1,
            **campaign_restriction(self.target),
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
        bank = self.bank
        bank.reset()
        state, golden = bank.state, bank.lane
        check, known_check = bank.check, bank.known_check
        found: Dict[int, Violation] = {}
        v, k = sim.value_planes, sim.known_planes
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
            fired = (known_check if sim.known_dialect else check)(
                v, k, state, alive, golden
            )
            if fired is not None:
                for lane, violation in bank.violations(t, fired, v, k, alive):
                    found[lane] = violation
                    alive &= ~(1 << lane)
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
