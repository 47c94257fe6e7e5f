"""Tests for the per-lane stall watchdog on the lane-parallel engine.

The scalar reference watchdog (``tests/obs/scalar_reference.py``)
defines the ground truth; the batch watchdog must reproduce its
diagnosis for an equivalent lane of the compiled simulator -- fully
observed or restricted to a campaign's observed wires -- while
tracking each lane's window independently.
"""

import pytest

from repro.codegen.sim import CompiledSimulator
from repro.faults.targets import TARGETS
from repro.resilience import BatchStallWatchdog, StallError
from repro.rtl.batchsim import (
    broadcast,
    pack_stimulus,
    strict_planes,
)
from repro.rtl.logic import X
from repro.rtl.simulator import TwoPhaseSimulator
from tests.obs.scalar_reference import RtlStallWatchdog, cycle

STUCK = {"src.choice": 1, "src.accept": 0, "snk.stall": 1, "snk.kill": 0}
HEALTHY = {"src.choice": 1, "src.accept": 0, "snk.stall": 0, "snk.kill": 0}


def scalar_diagnosis(window=8):
    target = TARGETS["dual_ehb"]()
    sim = TwoPhaseSimulator(target.netlist)
    watchdog = RtlStallWatchdog.for_target(target, window=window)
    with pytest.raises(StallError) as exc:
        for _ in range(100):
            cycle(sim, STUCK, [watchdog.observe])
    return exc.value.diagnosis


class TestStrictPlanes:
    def test_lane_masks_split_ones_zeros_and_x(self):
        class Fake:
            def planes(self, sig):
                # lanes: 0 -> known 1, 1 -> known 0, 2 -> X
                return (0b001, 0b011)

        ones, zeros = strict_planes(Fake(), "w")
        assert ones == 0b001
        assert zeros == 0b010


class TestBatchWatchdog:
    def test_stalled_lanes_match_the_scalar_diagnosis(self):
        reference = scalar_diagnosis()
        target = TARGETS["dual_ehb"]()
        lanes = 4
        sim = CompiledSimulator(target.netlist, lanes)
        BatchStallWatchdog.for_target(target, sim, window=8)
        with pytest.raises(StallError) as exc:
            for _ in range(100):
                sim.cycle({k: broadcast(v, lanes)
                           for k, v in STUCK.items()})
        d = exc.value.diagnosis
        assert d.blocked == reference.blocked == ("L.sp", "R.sp")
        assert d.stop_cycle == reference.stop_cycle
        assert d.cycle == reference.cycle
        assert d.lane is not None

    def test_only_the_stalled_lane_is_diagnosed(self):
        # Lane 0 wedges behind a stuck sink; lane 1 drains freely.
        target = TARGETS["dual_ehb"]()
        sim = CompiledSimulator(target.netlist, 2)
        wd = BatchStallWatchdog.for_target(
            target, sim, window=8, raise_on_stall=False
        )
        cycles = 60
        stimulus = pack_stimulus([[STUCK] * cycles, [HEALTHY] * cycles])
        for inputs in stimulus:
            sim.cycle(inputs)
        assert wd.diagnoses
        assert {d.lane for d in wd.diagnoses} == {0}

    def test_no_progress_mask_names_expired_lanes(self):
        target = TARGETS["dual_ehb"]()
        sim = CompiledSimulator(target.netlist, 2)
        wd = BatchStallWatchdog.for_target(target, sim, window=8)
        cycles = 40
        with pytest.raises(StallError) as exc:
            for inputs in pack_stimulus(
                [[STUCK] * cycles, [HEALTHY] * cycles]
            ):
                sim.cycle(inputs)
        # At the moment lane 0's window expired, lane 1 was progressing.
        assert wd.no_progress_mask(exc.value.diagnosis.cycle) == 0b01

    def test_healthy_broadcast_run_never_fires(self):
        target = TARGETS["dual_ehb"]()
        lanes = 4
        sim = CompiledSimulator(target.netlist, lanes)
        wd = BatchStallWatchdog.for_target(target, sim, window=8)
        for _ in range(100):
            sim.cycle({k: broadcast(v, lanes) for k, v in HEALTHY.items()})
        assert wd.diagnoses == []

    def test_idle_lane_is_not_a_stall(self):
        # Nothing offered, nothing pending: windows refresh on idle
        # however long the lanes sit there.
        target = TARGETS["dual_ehb"]()
        idle = {"src.choice": 0, "src.accept": 0,
                "snk.stall": 0, "snk.kill": 0}
        sim = CompiledSimulator(target.netlist, 2)
        wd = BatchStallWatchdog.for_target(target, sim, window=4)
        for _ in range(30):
            sim.cycle({k: broadcast(v, 2) for k, v in idle.items()})
        assert wd.diagnoses == []

    def test_window_validated(self):
        target = TARGETS["dual_ehb"]()
        sim = CompiledSimulator(target.netlist, 2)
        with pytest.raises(ValueError):
            BatchStallWatchdog.for_target(target, sim, window=0)


class TestCompiledWatchdog:
    def test_compiled_lane_matches_the_scalar_diagnosis(self, tmp_path):
        from repro.codegen import build_cache

        reference = scalar_diagnosis()
        target = TARGETS["dual_ehb"]()
        lanes = 2
        sim = CompiledSimulator(
            target.netlist, lanes, hooks=frozenset(),
            observe=frozenset(target.observe),
            cache=build_cache(str(tmp_path / "cache")),
        )
        BatchStallWatchdog.for_target(target, sim, window=8)
        with pytest.raises(StallError) as exc:
            for _ in range(100):
                sim.cycle({k: broadcast(v, lanes)
                           for k, v in STUCK.items()})
        d = exc.value.diagnosis
        assert d.blocked == reference.blocked
        assert d.stop_cycle == reference.stop_cycle
        assert d.cycle == reference.cycle
