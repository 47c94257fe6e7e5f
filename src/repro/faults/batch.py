"""Lane-parallel fault campaigns on the compiled simulator.

:class:`BatchCampaignHarness` is the 64-lane counterpart of
:class:`~repro.faults.campaign.CampaignHarness`: one
:class:`~repro.codegen.sim.CompiledSimulator` runs up to ``lanes``
injections of the same sweep simultaneously, each in its own bit lane,
under the broadcast campaign stimulus.

The monitors here are word-wide re-implementations of the scalar bank
in :mod:`repro.faults.monitors`: every rule is evaluated for all lanes
with a few integer operations on the simulator's plane arrays (signal
slots are resolved once, at bank construction), and per-lane values are
only unpacked on a violation, to build the identical detail string.
Bank order, the if/elif precedence inside each monitor and the
first-detection-wins rule all mirror the scalar harness exactly, which
is what makes a lane-sharded campaign report byte-identical to the
sequential one (locked by ``tests/faults/test_campaign_determinism.py``).

Signed occupancy arithmetic for the conservation monitor runs on
bit-plane ripple-carry adders: a lane-parallel 4-bit two's-complement
number is four machine words, bit ``i`` of plane ``j`` holding bit
``j`` of lane ``i``'s value.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Mapping,
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

__all__ = [
    "BatchCampaignHarness",
    "batch_monitor_bank",
    "lane_overrides",
]


def _lanes_of(mask: int) -> Iterator[int]:
    """The set bit positions of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ----------------------------------------------------------------------
# Lane-parallel signed arithmetic (bit planes, two's complement)
# ----------------------------------------------------------------------
def _sext(planes: Sequence[int], width: int) -> List[int]:
    sign = planes[-1]
    return list(planes) + [sign] * (width - len(planes))


def _add(a: Sequence[int], b: Sequence[int], width: int, mask: int) -> List[int]:
    a = _sext(a, width)
    b = _sext(b, width)
    out: List[int] = []
    carry = 0
    for ai, bi in zip(a, b):
        out.append((ai ^ bi ^ carry) & mask)
        carry = ((ai & bi) | (carry & (ai | bi))) & mask
    return out


def _neg(planes: Sequence[int], width: int, mask: int) -> List[int]:
    inverted = [(~p) & mask for p in _sext(planes, width)]
    one = [mask] + [0] * (width - 1)
    return _add(inverted, one, width, mask)


def _sub(a: Sequence[int], b: Sequence[int], width: int, mask: int) -> List[int]:
    return _add(_sext(a, width), _neg(b, width, mask), width, mask)


def _count2(x: int, y: int) -> List[int]:
    """Lane-parallel unsigned count of two bits (0..2) as 3 planes."""
    return [x ^ y, x & y, 0]


def _count3(x: int, y: int, z: int) -> List[int]:
    """Lane-parallel unsigned count of three bits (0..3) as 3 planes."""
    return [x ^ y ^ z, (x & y) | (x & z) | (y & z), 0]


def _plane_int(planes: Sequence[int], lane: int) -> int:
    """One lane's signed value out of two's-complement bit planes."""
    bit = 1 << lane
    value = 0
    for i, plane in enumerate(planes):
        if plane & bit:
            value |= 1 << i
    if planes[-1] & bit:
        value -= 1 << len(planes)
    return value


# ----------------------------------------------------------------------
# Word-wide monitors
# ----------------------------------------------------------------------
class BatchMonitor:
    """Base: observe one settled cycle for all (still alive) lanes.

    ``observe`` reads the simulator's live value planes (``v[slot]`` is
    the strict-bit word of a wire: lane set iff known 1, the batch twin
    of :func:`repro.faults.monitors._bit`) and returns
    ``(lane, Violation)`` pairs; the harness kills each reported lane
    before calling the next monitor, preserving the scalar bank's
    first-detection-wins order.
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
    """Word-wide token conservation via bit-plane occupancy arithmetic."""

    #: two's-complement width: occupancy+delta spans [-5, 5]
    _WIDTH = 4

    def __init__(self, probe: EbProbe, sim: CompiledSimulator) -> None:
        self.name = f"conservation[{probe.prefix}]"
        self.mask = sim.mask
        self._bits = tuple(sim.slot(s) for s in probe.state_bits)
        left, right = probe.left, probe.right
        self._lvp, self._lsp = sim.slot(left.vp), sim.slot(left.sp)
        self._lvn, self._lsn = sim.slot(left.vn), sim.slot(left.sn)
        self._rvp, self._rsp = sim.slot(right.vp), sim.slot(right.sp)
        self._rvn, self._rsn = sim.slot(right.vn), sim.slot(right.sn)
        self._prev: Optional[Tuple[List[int], List[int]]] = None

    def _occupancy(self, v: List[int]) -> List[int]:
        t0, t1, a0, a1 = (v[s] for s in self._bits)
        return _sub(_count2(t0, t1), _count2(a0, a1), self._WIDTH, self.mask)

    def _delta(self, v: List[int]) -> List[int]:
        mask = self.mask
        lvp, lsp, lvn, lsn = v[self._lvp], v[self._lsp], v[self._lvn], v[self._lsn]
        rvp, rsp, rvn, rsn = v[self._rvp], v[self._rsp], v[self._rvn], v[self._rsn]
        in_pos = lvp & (mask ^ lsp) & (mask ^ lvn)
        kill_left = lvp & lvn
        out_neg = lvn & (mask ^ lsn) & (mask ^ lvp)
        out_pos = rvp & (mask ^ rsp) & (mask ^ rvn)
        kill_right = rvp & rvn
        in_neg = rvn & (mask ^ rsn) & (mask ^ rvp)
        return _sub(
            _count3(in_pos, kill_left, out_neg),
            _count3(out_pos, kill_right, in_neg),
            self._WIDTH,
            self.mask,
        )

    def observe(self, cycle, v, k, alive):
        occ = self._occupancy(v)
        delta = self._delta(v)
        out: List[Tuple[int, Violation]] = []
        if self._prev is not None:
            prev_occ, prev_delta = self._prev
            expected = _add(prev_occ, prev_delta, self._WIDTH, self.mask)
            mismatch = 0
            for got, want in zip(occ, expected):
                mismatch |= got ^ want
            for lane in _lanes_of(mismatch & alive):
                out.append((
                    lane,
                    Violation(
                        cycle,
                        self.name,
                        f"occupancy {_plane_int(prev_occ, lane)} + delta "
                        f"{_plane_int(prev_delta, lane)} "
                        f"!= observed {_plane_int(occ, lane)}",
                    ),
                ))
        self._prev = (occ, delta)
        return out


class BatchGoldenMonitor(BatchMonitor):
    """Word-wide lock-step comparison against a golden plane trace.

    ``golden[cycle]`` holds one ``(gv, gk)`` pair per observed wire;
    lanes are claimed by the first mismatching wire, like the scalar
    monitor's wire loop.  With both sides canonical (``v & ~k == 0``),
    ``(k ^ gk) | (v ^ gv)`` is nonzero exactly on the lanes where the
    scalar ``got != want`` holds -- ``X`` matches only ``X``.
    """

    name = "golden"

    def __init__(
        self,
        wires: Sequence[str],
        golden: Sequence[Sequence[Tuple[int, int]]],
        sim: CompiledSimulator,
    ) -> None:
        self.wires = list(wires)
        self._slots = [sim.slot(w) for w in wires]
        self.golden = golden

    @classmethod
    def from_scalar(
        cls,
        wires: Sequence[str],
        golden: Sequence[Mapping[str, Value]],
        sim: CompiledSimulator,
    ) -> "BatchGoldenMonitor":
        """Broadcast a scalar golden trace to every lane."""
        lanes = sim.lanes
        trace = [
            [broadcast(reference.get(w), lanes) for w in wires]
            for reference in golden
        ]
        return cls(wires, trace, sim)

    def observe(self, cycle, v, k, alive):
        if cycle >= len(self.golden):
            return []
        out: List[Tuple[int, Violation]] = []
        claimed = 0
        reference = self.golden[cycle]
        for i, slot in enumerate(self._slots):
            gv, gk = reference[i]
            mismatch = ((k[slot] ^ gk) | (v[slot] ^ gv)) & alive & ~claimed
            if not mismatch:
                continue
            claimed |= mismatch
            for lane in _lanes_of(mismatch):
                want = unpack_lane((gv, gk), lane)
                got = unpack_lane((v[slot], k[slot]), lane)
                out.append((
                    lane,
                    Violation(
                        cycle,
                        f"{self.name}[{self.wires[i]}]",
                        f"expected {want!r}, observed {got!r}",
                    ),
                ))
        return out


def batch_monitor_bank(
    target: RtlTarget, sim: CompiledSimulator, golden: BatchGoldenMonitor
) -> List[BatchMonitor]:
    """A fresh word-wide monitor bank in the scalar bank's order."""
    bank: List[BatchMonitor] = []
    for ch in target.channels:
        bank.append(BatchInvariantMonitor(ch, sim))
        bank.append(BatchPersistenceMonitor(ch, sim))
    for probe in target.ebs:
        bank.append(BatchEncodingMonitor(probe, sim))
        bank.append(BatchConservationMonitor(probe, sim))
    bank.append(golden)
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


class BatchCampaignHarness:
    """One target + one stimulus, many faults per simulation.

    :meth:`run_chunk` takes up to ``lanes`` injections and classifies
    all of them in a single lane-parallel run, returning the same
    :class:`FaultOutcome` objects (same order, same detail strings) the
    scalar :class:`~repro.faults.campaign.CampaignHarness` would.

    ``cache`` is the build cache of the generated module: a
    :class:`~repro.codegen.cache.BuildCache`, a directory path, or
    ``None`` for the default directory.
    """

    def __init__(
        self,
        target: RtlTarget,
        config: CampaignConfig,
        lanes: int = 64,
        metrics: Optional["MetricsRegistry"] = None,
        cache: Union[BuildCache, str, None] = None,
    ) -> None:
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
            {name: broadcast(value, lanes) for name, value in inputs.items()}
            for inputs in self.stimulus
        ]
        self.golden: List[Dict[str, Value]] = []
        self.golden_final: Dict[str, Value] = {}
        self._record_golden()
        self._golden_monitor = BatchGoldenMonitor.from_scalar(
            target.observe, self.golden, self.sim
        )

    def _make_sim(self) -> CompiledSimulator:
        """The simulator restricted to what a campaign touches.

        Override hooks sit at the target's fault sites only, and
        end-of-cycle writeback covers the target's observed wires (the
        union of every monitor's read set).
        """
        return CompiledSimulator(
            self.target.netlist,
            self.lanes,
            hooks=frozenset(self.target.fault_sites),
            observe=frozenset(self.target.observe),
            cache=self.cache,
            metrics=self.metrics,
        )

    def _record_golden(self) -> None:
        sim = self.sim
        sim.set_overrides({})
        sim.reset()
        observe = self.target.observe
        for packed in self.packed:
            sim.cycle(packed)
            self.golden.append({w: sim.lane_value(w, 0) for w in observe})
        self.golden_final = sim.lane_state(0)

    def run_chunk(self, injections: Sequence[Injection]) -> List[FaultOutcome]:
        """Classify up to ``lanes`` injections in one batched run."""
        if not injections:
            return []
        if len(injections) > self.lanes:
            raise ValueError(
                f"{len(injections)} injections exceed {self.lanes} lanes"
            )
        sim = self.sim
        sim.reset()
        # Clear the previous chunk's lane overrides (the scalar
        # injector does this in reset()): a stuck fault stays active to
        # the end of its run, and a chunk whose earliest activity edge
        # sits past cycle 0 would otherwise simulate its opening cycles
        # under the previous chunk's faults -- making the verdict depend
        # on which chunk the harness ran before, i.e. on scheduling.
        sim.set_overrides({})
        bank = batch_monitor_bank(self.target, sim, self._golden_monitor)
        alive = (1 << len(injections)) - 1
        found: Dict[int, Violation] = {}
        edges = _activity_edges(injections)
        value_planes = sim.value_planes
        known_planes = sim.known_planes
        metrics = self.metrics
        cycles_run = busy_lanes = 0
        for t, packed in enumerate(self.packed):
            if t in edges:
                sim.set_overrides(lane_overrides(injections, t))
            sim.cycle(packed)
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
            final = sim.lane_state(lane)
            if final != self.golden_final:
                diverged = sorted(
                    s for s, v in final.items()
                    if self.golden_final.get(s) != v
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
