"""Unit tests for the two-plane lane encoding and the lane-parallel kernel.

The deep cross-checking against the scalar simulator lives in
``test_batchsim_differential.py``; this file covers the packing
helpers, lane overrides, the compiled simulator's basic cadence, and
the combinational-cycle diagnostics shared by both simulators.
"""

import pytest

from repro.codegen.sim import CompiledSimulator
from repro.rtl.batchsim import (
    LaneOverride,
    broadcast,
    pack_stimulus,
    pack_values,
    unpack_lane,
)
from repro.rtl.logic import X
from repro.rtl.netlist import Netlist, Phase
from repro.rtl.simulator import CombinationalCycleError, TwoPhaseSimulator
from repro.rtl.toposort import canonical_cycle, find_combinational_cycle


class TestPacking:
    def test_broadcast_known(self):
        assert broadcast(1, lanes=4) == (0b1111, 0b1111)
        assert broadcast(0, lanes=4) == (0, 0b1111)

    def test_broadcast_x(self):
        assert broadcast(X, lanes=4) == (0, 0)

    def test_pack_unpack_roundtrip(self):
        values = [0, 1, X, 1, X, 0, 0, 1]
        planes = pack_values(values)
        assert [unpack_lane(planes, i) for i in range(len(values))] == values

    def test_canonical_invariant(self):
        v, k = pack_values([0, 1, X, 1])
        assert v & ~k == 0

    def test_pack_stimulus_shapes(self):
        packed = pack_stimulus([
            [{"a": 1}, {"a": 0, "b": 1}],
            [{"a": X}, {"b": 0}],
        ])
        assert len(packed) == 2
        assert packed[0]["a"] == (0b01, 0b01)  # lane 1 is X
        # lane 0 never mentions "b" on cycle 0 -> absent entirely
        assert "b" not in packed[0]
        assert packed[1]["a"] == (0, 0b01)  # lane 1 leaves "a" at X
        assert packed[1]["b"] == (0b01, 0b11)  # lane0 b=1, lane1 b=0

    def test_pack_stimulus_ragged_traces(self):
        with pytest.raises(ValueError, match="differ in length"):
            pack_stimulus([[{"a": 1}], [{"a": 1}, {"a": 0}]])


class TestLaneOverride:
    def test_conflicting_masks(self):
        with pytest.raises(ValueError):
            LaneOverride(set0=0b10, set1=0b11)

    def test_stuck_lanes(self):
        ov = LaneOverride(set0=0b0001, set1=0b0010)
        v, k = ov.apply(*pack_values([1, 0, X, 1]))
        assert [unpack_lane((v, k), i) for i in range(4)] == [0, 1, X, 1]

    def test_flip_keeps_unknown_lanes_x(self):
        ov = LaneOverride(flip=0b111)
        v, k = ov.apply(*pack_values([1, 0, X]))
        assert [unpack_lane((v, k), i) for i in range(3)] == [0, 1, X]


def _toy_netlist() -> Netlist:
    nl = Netlist("toy")
    a = nl.add_input("a")
    b = nl.add_input("b")
    s = nl.XOR(a, b, out="s")
    nl.add_latch(s, Phase.HIGH, q="lh", init=0)
    nl.add_flop(nl.AND(a, "lh", out="c"), q="ff", init=0)
    nl.add_output(s)
    nl.validate()
    return nl


class TestBatchSimulator:
    def test_matches_scalar_on_toy(self):
        nl = _toy_netlist()
        batch = CompiledSimulator(nl, lanes=4)
        scalars = [TwoPhaseSimulator(nl) for _ in range(4)]
        stimuli = [
            [{"a": 1, "b": 0}, {"a": 1, "b": 1}, {"a": 0, "b": 1}],
            [{"a": 0, "b": 0}, {"a": 1, "b": 0}, {"a": 1, "b": 0}],
            [{"a": X, "b": 1}, {"a": 1, "b": X}, {"a": 0, "b": 0}],
            [{"a": 1, "b": 1}, {"a": 0, "b": 1}, {"a": X, "b": X}],
        ]
        for t, packed in enumerate(pack_stimulus(stimuli)):
            batch.cycle(packed)
            for lane, sim in enumerate(scalars):
                values = sim.cycle(stimuli[lane][t])
                for sig in nl.signals():
                    assert batch.lane_value(sig, lane) == values[sig], (
                        t, lane, sig)
                assert batch.lane_state(lane) == sim.state

    def test_reset_keeps_plane_arrays_attached(self):
        batch = CompiledSimulator(_toy_netlist(), lanes=2)
        v, k = batch.value_planes, batch.known_planes
        batch.cycle({"a": (0b11, 0b11), "b": (0b01, 0b11)})
        batch.reset()
        assert batch.value_planes is v and batch.known_planes is k
        assert batch.time == 0
        assert batch.lane_state(0) == {"lh": 0, "ff": 0}

    def test_unknown_override_net(self):
        batch = CompiledSimulator(_toy_netlist(), lanes=2)
        with pytest.raises(ValueError, match="unknown net"):
            batch.set_overrides({"nope": LaneOverride(set1=1)})

    def test_missing_inputs_are_x(self):
        batch = CompiledSimulator(_toy_netlist(), lanes=2)
        batch.cycle({})
        assert batch.lane_value("s", 0) is X
        assert batch.lane_value("s", 1) is X


def _ring_netlist() -> Netlist:
    nl = Netlist("ring")
    nl.NOT("q2", out="q")
    nl.BUF("q", out="q2")
    nl.validate()
    return nl


class TestCombinationalCycleDiagnostics:
    """Satellite: both simulators report the same full cycle path."""

    def test_canonical_rotation(self):
        assert canonical_cycle(["c", "a", "b"]) == ["a", "b", "c"]

    def test_find_cycle(self):
        nl = _ring_netlist()
        for phase in (Phase.HIGH, Phase.LOW):
            assert find_combinational_cycle(nl, phase) == ["q", "q2"]

    def _errors(self):
        """The error each simulator raises on the ring oscillator."""
        nl = _ring_netlist()
        with pytest.raises(CombinationalCycleError) as scalar:
            TwoPhaseSimulator(nl, strict_x=True).cycle({})
        with pytest.raises(CombinationalCycleError) as batch:
            CompiledSimulator(nl, lanes=8)
        return scalar.value, batch.value

    def test_both_simulators_report_full_path(self):
        scalar, batch = self._errors()
        assert str(scalar) == "combinational cycle: q -> q2 -> q"
        assert str(batch) == str(scalar)
        assert scalar.cycle == batch.cycle == ["q", "q2"]

    def test_latch_through_path_is_not_a_cycle(self):
        # A loop broken by an opaque latch is fine in one phase: only
        # the phase where the latch is transparent closes the cycle.
        nl = Netlist("halfring")
        nl.add_latch("q", Phase.HIGH, q="lq", init=0)
        nl.NOT("lq", out="q")
        nl.validate()
        assert find_combinational_cycle(nl, Phase.LOW) is None
        cyc = find_combinational_cycle(nl, Phase.HIGH)
        assert cyc is not None and set(cyc) == {"lq", "q"}
        with pytest.raises(CombinationalCycleError):
            CompiledSimulator(nl)
