"""Online monitors: invariants, persistence, encoding, conservation.

Every rule is checked twice: on the word-wide monitors of
:mod:`repro.faults.batch` that campaigns run, fed one-lane planes
through :class:`LaneSim`, and on the scalar reference bank of
``tests/faults/scalar_reference.py``.  A Hypothesis property then
requires the generated check of the whole word-wide bank and the
reference bank to report the same first violation on every lane of
random ternary traces, with the golden trace packed into the top lane
as a campaign runs it.
"""

import types
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.elastic.gates import GateChannel
from repro.faults.batch import (
    BatchConservationMonitor,
    BatchEncodingMonitor,
    BatchGoldenMonitor,
    BatchInvariantMonitor,
    BatchPersistenceMonitor,
    _count7,
    batch_monitor_bank,
    protocol_monitors,
)
from repro.faults.monitors import EbProbe, Violation
from repro.rtl.batchsim import pack_values, truth_table_columns
from repro.rtl.logic import X, Value
from repro.rtl.netlist import Netlist
from tests.faults.scalar_reference import (
    ConservationMonitor,
    EncodingMonitor,
    GoldenMonitor,
    InvariantMonitor,
    PersistenceMonitor,
    buffer_monitors,
    channel_monitors,
)


class LaneSim:
    """What the word-wide monitors read off a simulator: ``slot``,
    ``mask`` and ``lanes`` (a bank's golden monitor reads the top lane).

    Slots are handed out on first lookup; :meth:`planes` packs one
    cycle's values, lane ``i`` from ``per_lane[i]`` (absent wires X).
    """

    def __init__(self, lanes: int = 1) -> None:
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        self._slots: Dict[str, int] = {}

    def slot(self, sig: str) -> int:
        return self._slots.setdefault(sig, len(self._slots))

    def planes(
        self, per_lane: Sequence[Mapping[str, Value]]
    ) -> Tuple[List[int], List[int]]:
        v = [0] * len(self._slots)
        k = [0] * len(self._slots)
        for sig, slot in self._slots.items():
            v[slot], k[slot] = pack_values(
                [values.get(sig, X) for values in per_lane]
            )
        return v, k


def lane0(monitor, sim: LaneSim, cycle: int,
          values: Mapping[str, Value]) -> Optional[Violation]:
    """One word-wide observation on one lane: its violation or None."""
    v, k = sim.planes([values])
    fired = monitor.observe(cycle, v, k, sim.mask)
    assert all(lane == 0 for lane, _ in fired)
    return fired[0][1] if fired else None


@pytest.fixture
def channel():
    return GateChannel.declare(Netlist("scratch"), "C")


@pytest.fixture
def sim():
    return LaneSim()


def wires(ch, vp=0, sp=0, vn=0, sn=0):
    return {ch.vp: vp, ch.sp: sp, ch.vn: vn, ch.sn: sn}


class TestInvariantMonitor:
    def test_quiet_channel_is_fine(self, channel):
        mon = InvariantMonitor(channel)
        assert mon.observe(0, wires(channel)) is None
        assert mon.observe(1, wires(channel, vp=1, sp=1)) is None

    def test_vp_and_sn_fires(self, channel):
        violation = InvariantMonitor(channel).observe(
            3, wires(channel, vp=1, sn=1)
        )
        assert violation is not None
        assert violation.cycle == 3
        assert "invariant" in violation.monitor

    def test_vn_and_sp_fires(self, channel):
        assert InvariantMonitor(channel).observe(
            0, wires(channel, vn=1, sp=1)
        ) is not None


class TestBatchInvariantMonitor:
    def test_quiet_channel_is_fine(self, channel, sim):
        mon = BatchInvariantMonitor(channel, sim)
        assert lane0(mon, sim, 0, wires(channel)) is None
        assert lane0(mon, sim, 1, wires(channel, vp=1, sp=1)) is None

    def test_vp_and_sn_fires(self, channel, sim):
        violation = lane0(BatchInvariantMonitor(channel, sim), sim, 3,
                          wires(channel, vp=1, sn=1))
        assert violation == Violation(3, "invariant[C]",
                                      "V+ and S- both asserted")

    def test_vn_and_sp_fires(self, channel, sim):
        violation = lane0(BatchInvariantMonitor(channel, sim), sim, 0,
                          wires(channel, vn=1, sp=1))
        assert violation == Violation(0, "invariant[C]",
                                      "V- and S+ both asserted")

    def test_x_reads_as_zero(self, channel, sim):
        mon = BatchInvariantMonitor(channel, sim)
        assert lane0(mon, sim, 0, wires(channel, vp=1, sn=X)) is None


class TestPersistenceMonitor:
    def test_retry_must_persist(self, channel):
        mon = PersistenceMonitor(channel)
        assert mon.observe(0, wires(channel, vp=1, sp=1)) is None
        violation = mon.observe(1, wires(channel))
        assert violation is not None and "Retry+" in violation.detail

    def test_kill_resolves_the_retry(self, channel):
        mon = PersistenceMonitor(channel)
        # V+ and V- together: the token is killed, no retry pends.
        assert mon.observe(0, wires(channel, vp=1, sp=1, vn=1)) is None
        assert mon.observe(1, wires(channel)) is None

    def test_negative_retry_must_persist(self, channel):
        mon = PersistenceMonitor(channel)
        assert mon.observe(0, wires(channel, vn=1, sn=1)) is None
        violation = mon.observe(1, wires(channel))
        assert violation is not None and "Retry-" in violation.detail

    def test_reset_forgets_history(self, channel):
        mon = PersistenceMonitor(channel)
        mon.observe(0, wires(channel, vp=1, sp=1))
        mon.reset()
        assert mon.observe(1, wires(channel)) is None


class TestBatchPersistenceMonitor:
    def test_retry_must_persist(self, channel, sim):
        mon = BatchPersistenceMonitor(channel, sim)
        assert lane0(mon, sim, 0, wires(channel, vp=1, sp=1)) is None
        violation = lane0(mon, sim, 1, wires(channel))
        assert violation == Violation(1, "persistence[C]",
                                      "V+ dropped during Retry+")

    def test_kill_resolves_the_retry(self, channel, sim):
        mon = BatchPersistenceMonitor(channel, sim)
        # V+ and V- together: the token is killed, no retry pends.
        assert lane0(mon, sim, 0, wires(channel, vp=1, sp=1, vn=1)) is None
        assert lane0(mon, sim, 1, wires(channel)) is None

    def test_negative_retry_must_persist(self, channel, sim):
        mon = BatchPersistenceMonitor(channel, sim)
        assert lane0(mon, sim, 0, wires(channel, vn=1, sn=1)) is None
        violation = lane0(mon, sim, 1, wires(channel))
        assert violation == Violation(1, "persistence[C]",
                                      "V- dropped during Retry-")

    def test_a_fresh_monitor_has_no_history(self, channel, sim):
        # The word-wide bank is rebuilt per run instead of reset.
        BatchPersistenceMonitor(channel, sim).observe(
            0, *sim.planes([wires(channel, vp=1, sp=1)]), sim.mask
        )
        mon = BatchPersistenceMonitor(channel, sim)
        assert lane0(mon, sim, 1, wires(channel)) is None


@pytest.fixture
def probe():
    nl = Netlist("scratch")
    return EbProbe("eb", GateChannel.declare(nl, "L"),
                   GateChannel.declare(nl, "R"))


def eb_values(probe, t0=0, t1=0, a0=0, a1=0, **boundary):
    values = {f"eb.{k}": v
              for k, v in dict(t0=t0, t1=t1, a0=a0, a1=a1).items()}
    values.update(wires(probe.left))
    values.update(wires(probe.right))
    for key, value in boundary.items():
        side, wire = key.split("_")
        ch = probe.left if side == "l" else probe.right
        values[getattr(ch, wire)] = value
    return values


class TestEncodingMonitor:
    def test_thermometer_violations(self, probe):
        mon = EncodingMonitor(probe)
        assert mon.observe(0, eb_values(probe, t0=1, t1=1)) is None
        assert mon.observe(1, eb_values(probe, t1=1)) is not None
        assert mon.observe(2, eb_values(probe, a1=1)) is not None

    def test_token_antitoken_exclusion(self, probe):
        violation = EncodingMonitor(probe).observe(
            0, eb_values(probe, t0=1, a0=1)
        )
        assert violation is not None and "coexist" in violation.detail


class TestBatchEncodingMonitor:
    def test_thermometer_violations(self, probe, sim):
        mon = BatchEncodingMonitor(probe, sim)
        assert lane0(mon, sim, 0, eb_values(probe, t0=1, t1=1)) is None
        assert lane0(mon, sim, 1, eb_values(probe, t1=1)) == Violation(
            1, "encoding[eb]", "t1 set without t0")
        assert lane0(mon, sim, 2, eb_values(probe, a1=1)) == Violation(
            2, "encoding[eb]", "a1 set without a0")

    def test_token_antitoken_exclusion(self, probe, sim):
        violation = lane0(BatchEncodingMonitor(probe, sim), sim, 0,
                          eb_values(probe, t0=1, a0=1))
        assert violation == Violation(0, "encoding[eb]",
                                      "tokens and anti-tokens coexist")


class TestConservationMonitor:
    def test_spontaneous_token_loss_fires(self, probe):
        mon = ConservationMonitor(probe)
        assert mon.observe(0, eb_values(probe, t0=1)) is None
        violation = mon.observe(1, eb_values(probe))
        assert violation is not None and "conservation" in violation.monitor

    def test_transfer_out_is_legal(self, probe):
        mon = ConservationMonitor(probe)
        # Cycle 0: one token, transferring out (R.vp, no stop/anti).
        assert mon.observe(0, eb_values(probe, t0=1, r_vp=1)) is None
        # Cycle 1: empty, as the event implies.
        assert mon.observe(1, eb_values(probe)) is None

    def test_token_in_is_legal(self, probe):
        mon = ConservationMonitor(probe)
        assert mon.observe(0, eb_values(probe, l_vp=1)) is None
        assert mon.observe(1, eb_values(probe, t0=1)) is None
        # ... and a second consecutive accept.
        assert mon.observe(1, eb_values(probe, t0=1, l_vp=1)) is None
        assert mon.observe(2, eb_values(probe, t0=1, t1=1)) is None

    def test_kill_annihilates(self, probe):
        mon = ConservationMonitor(probe)
        # An anti-token stored; a token arrives: kill at the left edge.
        assert mon.observe(0, eb_values(probe, a0=1, l_vp=1, l_vn=1)) is None
        assert mon.observe(1, eb_values(probe)) is None

    def test_anti_token_flows_are_legal(self, probe):
        mon = ConservationMonitor(probe)
        # An anti-token arrives on the right (V-, no S-, no V+) ...
        assert mon.observe(0, eb_values(probe, r_vn=1)) is None
        # ... is stored, and leaves on the left the next cycle.
        assert mon.observe(1, eb_values(probe, a0=1, l_vn=1)) is None
        assert mon.observe(2, eb_values(probe)) is None


class TestBatchConservationMonitor:
    def test_spontaneous_token_loss_fires(self, probe, sim):
        mon = BatchConservationMonitor(probe, sim)
        assert lane0(mon, sim, 0, eb_values(probe, t0=1)) is None
        assert lane0(mon, sim, 1, eb_values(probe)) == Violation(
            1, "conservation[eb]", "occupancy 1 + delta 0 != observed 0")

    def test_transfer_out_is_legal(self, probe, sim):
        mon = BatchConservationMonitor(probe, sim)
        # Cycle 0: one token, transferring out (R.vp, no stop/anti).
        assert lane0(mon, sim, 0, eb_values(probe, t0=1, r_vp=1)) is None
        # Cycle 1: empty, as the event implies.
        assert lane0(mon, sim, 1, eb_values(probe)) is None

    def test_token_in_is_legal(self, probe, sim):
        mon = BatchConservationMonitor(probe, sim)
        assert lane0(mon, sim, 0, eb_values(probe, l_vp=1)) is None
        assert lane0(mon, sim, 1, eb_values(probe, t0=1)) is None
        # ... and a second consecutive accept.
        assert lane0(mon, sim, 1, eb_values(probe, t0=1, l_vp=1)) is None
        assert lane0(mon, sim, 2, eb_values(probe, t0=1, t1=1)) is None

    def test_kill_annihilates(self, probe, sim):
        mon = BatchConservationMonitor(probe, sim)
        # An anti-token stored; a token arrives: kill at the left edge.
        assert lane0(mon, sim, 0,
                     eb_values(probe, a0=1, l_vp=1, l_vn=1)) is None
        assert lane0(mon, sim, 1, eb_values(probe)) is None

    def test_anti_token_flows_are_legal(self, probe, sim):
        mon = BatchConservationMonitor(probe, sim)
        # An anti-token arrives on the right (V-, no S-, no V+) ...
        assert lane0(mon, sim, 0, eb_values(probe, r_vn=1)) is None
        # ... is stored, and leaves on the left the next cycle.
        assert lane0(mon, sim, 1, eb_values(probe, a0=1, l_vn=1)) is None
        assert lane0(mon, sim, 2, eb_values(probe)) is None

    def test_negative_occupancy_is_signed(self, probe, sim):
        mon = BatchConservationMonitor(probe, sim)
        assert lane0(mon, sim, 0, eb_values(probe, a0=1, a1=1)) is None
        assert lane0(mon, sim, 1, eb_values(probe, t0=1)) == Violation(
            1, "conservation[eb]", "occupancy -2 + delta 0 != observed 1")

    def test_negative_observed_is_signed(self, probe, sim):
        mon = BatchConservationMonitor(probe, sim)
        assert lane0(mon, sim, 0, eb_values(probe, t0=1)) is None
        assert lane0(mon, sim, 1, eb_values(probe, a0=1, a1=1)) == Violation(
            1, "conservation[eb]", "occupancy 1 + delta 0 != observed -2")

    def test_a_swing_of_four_is_caught(self, probe, sim):
        # Both sides' counts differ by 4: only the top count plane shows it.
        mon = BatchConservationMonitor(probe, sim)
        assert lane0(mon, sim, 0, eb_values(probe, a0=1, a1=1)) is None
        assert lane0(mon, sim, 1, eb_values(probe, t0=1, t1=1)) == Violation(
            1, "conservation[eb]", "occupancy -2 + delta 0 != observed 2")


def test_count7_is_a_popcount():
    # Lane L of the truth-table columns holds the bits of L: every input
    # combination once, all 128 in one call.
    planes = _count7(*truth_table_columns(7))
    for lane in range(128):
        count = sum(((p >> lane) & 1) << i for i, p in enumerate(planes))
        assert count == bin(lane).count("1"), lane


class TestGoldenMonitor:
    def test_matches_are_silent(self):
        mon = GoldenMonitor(["w"], [{"w": 1}, {"w": 0}])
        assert mon.observe(0, {"w": 1}) is None
        assert mon.observe(1, {"w": 0}) is None
        assert mon.observe(5, {"w": 1}) is None  # past the reference

    def test_divergence_names_the_wire(self):
        violation = GoldenMonitor(["w"], [{"w": 1}]).observe(0, {"w": 0})
        assert violation is not None
        assert "w" in violation.monitor


def against_golden(monitor, sim: LaneSim, cycle: int,
                   values: Mapping[str, Value],
                   golden: Mapping[str, Value]) -> Optional[Violation]:
    """Lane 0 observed beside the golden run in lane 1, the top lane."""
    v, k = sim.planes([values, golden])
    fired = monitor.observe(cycle, v, k, 1)
    assert all(lane == 0 for lane, _ in fired)
    return fired[0][1] if fired else None


@pytest.fixture
def pair():
    return LaneSim(2)


class TestBatchGoldenMonitor:
    def test_matches_are_silent(self, pair):
        mon = BatchGoldenMonitor(["w"], pair)
        assert against_golden(mon, pair, 0, {"w": 1}, {"w": 1}) is None
        assert against_golden(mon, pair, 1, {"w": 0}, {"w": 0}) is None

    def test_divergence_names_the_wire(self, pair):
        mon = BatchGoldenMonitor(["w"], pair)
        assert against_golden(mon, pair, 0, {"w": 0}, {"w": 1}) == Violation(
            0, "golden[w]", "expected 1, observed 0")
        assert against_golden(mon, pair, 1, {"w": 1}, {"w": 0}) == Violation(
            1, "golden[w]", "expected 0, observed 1")

    def test_x_matches_only_x(self, pair):
        # X in the top lane: the golden run itself carries an unknown.
        mon = BatchGoldenMonitor(["w"], pair)
        assert against_golden(mon, pair, 0, {"w": X}, {"w": X}) is None
        assert against_golden(mon, pair, 1, {"w": 0}, {"w": X}) == Violation(
            1, "golden[w]", "expected X, observed 0")
        assert against_golden(mon, pair, 2, {"w": 1}, {"w": X}) == Violation(
            2, "golden[w]", "expected X, observed 1")
        assert against_golden(mon, pair, 3, {"w": X}, {"w": 0}) == Violation(
            3, "golden[w]", "expected 0, observed X")

    def test_first_wire_in_order_claims_a_lane(self):
        sim = LaneSim(4)
        mon = BatchGoldenMonitor(["a", "b"], sim)
        v, k = sim.planes([
            {"a": 0, "b": 0},  # off golden on both wires
            {"a": 1, "b": 0},  # off golden on b only
            {"a": 1, "b": 1},  # the golden values
            {"a": 1, "b": 1},  # golden
        ])
        assert mon.observe(4, v, k, 0b111) == [
            (0, Violation(4, "golden[a]", "expected 1, observed 0")),
            (1, Violation(4, "golden[b]", "expected 1, observed 0")),
        ]
        # Dead lanes are never reported.
        assert mon.observe(5, v, k, 0b100) == []


def test_factories_cover_all_rules(probe, channel):
    bank = channel_monitors([channel])
    assert {type(m) for m in bank} == {InvariantMonitor, PersistenceMonitor}
    bank = buffer_monitors([probe])
    assert {type(m) for m in bank} == {EncodingMonitor, ConservationMonitor}


def test_word_wide_bank_order_matches_the_reference(probe, channel):
    sim = LaneSim(3)
    target = types.SimpleNamespace(channels=[channel], ebs=[probe],
                                   observe=["w"])
    bank = batch_monitor_bank(target, sim)
    reference = channel_monitors([channel]) + buffer_monitors([probe])
    assert [m.name for m in bank] == [m.name for m in reference] + ["golden"]
    assert (bank[-1].wires, bank[-1].lane) == (["w"], 2)  # the top lane
    assert [m.name for m in protocol_monitors([channel], sim)] == [
        m.name for m in channel_monitors([channel])
    ]


# ----------------------------------------------------------------------
# Property: word-wide bank == reference bank, lane by lane
# ----------------------------------------------------------------------
_NL = Netlist("property")
CHANNEL = GateChannel.declare(_NL, "C")
PROBE = EbProbe("eb", GateChannel.declare(_NL, "L"),
                GateChannel.declare(_NL, "R"))
SIGNALS = (
    list(CHANNEL.wires()) + list(PROBE.state_bits)
    + list(PROBE.left.wires()) + list(PROBE.right.wires())
)
#: 0 twice as likely as 1 or X, so runs outlive their first cycles.
TERNARY = st.sampled_from([0, 0, 1, X])


def _reference_first(
    trace: Sequence[Mapping[str, Value]], golden_wires, golden
) -> Optional[Tuple[int, str, str]]:
    bank = channel_monitors([CHANNEL]) + buffer_monitors([PROBE])
    bank.append(GoldenMonitor(golden_wires, golden))
    for t, values in enumerate(trace):
        for monitor in bank:
            violation = monitor.observe(t, values)
            if violation is not None:
                return violation.cycle, violation.monitor, violation.detail
    return None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_word_wide_bank_matches_the_reference_on_every_lane(data):
    lanes = data.draw(st.integers(1, 6), label="lanes")
    cycles = data.draw(st.integers(1, 10), label="cycles")
    cycle_values = st.fixed_dictionaries({s: TERNARY for s in SIGNALS})
    traces = data.draw(st.lists(
        st.lists(cycle_values, min_size=cycles, max_size=cycles),
        min_size=lanes, max_size=lanes,
    ), label="traces")
    golden_wires = data.draw(st.lists(
        st.sampled_from(SIGNALS), unique=True, max_size=2
    ), label="golden_wires")
    # The golden run, X included, on every signal of the top lane.
    golden_trace = data.draw(st.lists(
        cycle_values, min_size=cycles, max_size=cycles
    ), label="golden")
    golden = [{w: values[w] for w in golden_wires} for values in golden_trace]

    sim = LaneSim(lanes + 1)
    target = types.SimpleNamespace(
        channels=[CHANNEL], ebs=[PROBE], observe=golden_wires
    )
    bank = batch_monitor_bank(target, sim)
    found: Dict[int, Violation] = {}
    alive = (1 << lanes) - 1
    for t in range(cycles):
        v, k = sim.planes([trace[t] for trace in traces] + [golden_trace[t]])
        for lane, violation in bank.observe(t, v, k, alive):
            found[lane] = violation
            alive &= ~(1 << lane)
        if not alive:
            break

    assert set(found) <= set(range(lanes))
    for lane, trace in enumerate(traces):
        got = found.get(lane)
        assert (
            None if got is None else (got.cycle, got.monitor, got.detail)
        ) == _reference_first(trace, golden_wires, golden), f"lane {lane}"


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_known_check_fires_as_the_two_plane_check_without_x(data):
    """The known dialect's check drops the known-plane terms: on planes
    with no X it claims the same lanes with the same violations as the
    two-plane check, and carries the same planes."""
    lanes = data.draw(st.integers(1, 6), label="lanes")
    cycles = data.draw(st.integers(1, 10), label="cycles")
    cycle_values = st.fixed_dictionaries(
        {s: st.sampled_from([0, 0, 1]) for s in SIGNALS}
    )
    trace = data.draw(st.lists(
        st.lists(cycle_values, min_size=lanes + 1, max_size=lanes + 1),
        min_size=cycles, max_size=cycles,
    ), label="trace")
    sim = LaneSim(lanes + 1)
    target = types.SimpleNamespace(
        channels=[CHANNEL], ebs=[PROBE], observe=SIGNALS
    )
    bank = batch_monitor_bank(target, sim)
    state, known_state = list(bank.state), list(bank.state)
    alive = (1 << lanes) - 1
    for t, values in enumerate(trace):
        v, k = sim.planes(values)
        fired = bank.check(v, k, state, alive, bank.lane)
        known = bank.known_check(v, k, known_state, alive, bank.lane)
        assert known_state == state
        assert (fired is None) == (known is None)
        if fired is not None:
            assert bank.violations(t, known, v, k, alive) == \
                bank.violations(t, fired, v, k, alive)
