"""Tests for the no-progress stall rule on lanes of the compiled engine.

Each lane has its own :class:`repro.obs.analyze.RtlChannelProfiler`,
which applies the rule in its accounting pass.  The scalar reference
watchdog (``tests/obs/scalar_reference.py``) defines the ground truth:
a lane's diagnoses must reproduce its diagnoses for the same stimulus,
with the compiled module fully observed or restricted to a campaign's
observed wires, and each lane's window runs independently.
"""

from repro.codegen.sim import CompiledSimulator
from repro.faults.targets import TARGETS
from repro.obs.analyze import _WINDOW, RtlChannelProfiler
from repro.rtl.batchsim import (
    broadcast,
    pack_stimulus,
    strict_planes,
)
from repro.rtl.simulator import TwoPhaseSimulator
from tests.obs.scalar_reference import RtlStallWatchdog, cycle

STUCK = {"src.choice": 1, "src.accept": 0, "snk.stall": 1, "snk.kill": 0}
HEALTHY = {"src.choice": 1, "src.accept": 0, "snk.stall": 0, "snk.kill": 0}

#: three windows of the stuck sink, and a little more
CYCLES = 3 * _WINDOW + 10


def scalar_diagnoses(cycles=CYCLES):
    target = TARGETS["dual_ehb"]()
    sim = TwoPhaseSimulator(target.netlist)
    watchdog = RtlStallWatchdog.for_target(target)
    for _ in range(cycles):
        cycle(sim, STUCK, [watchdog.observe])
    return watchdog.diagnoses


def lane_profilers(target, sim):
    return [
        RtlChannelProfiler(target).attach_lane(sim, lane)
        for lane in range(sim.lanes)
    ]


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
        reference = scalar_diagnoses()
        # Progress stops after cycle 1; then one diagnosis per expired
        # window.
        assert [(d.last_progress, d.cycle) for d in reference] == [
            (1, 1 + _WINDOW), (1 + _WINDOW, 1 + 2 * _WINDOW),
            (1 + 2 * _WINDOW, 1 + 3 * _WINDOW),
        ]
        assert all(d.blocked == ("L.sp", "R.sp") for d in reference)
        assert all(d.stop_cycle == ("L.sp", "R.sp") for d in reference)
        target = TARGETS["dual_ehb"]()
        lanes = 4
        sim = CompiledSimulator(target.netlist, lanes)
        profilers = lane_profilers(target, sim)
        for _ in range(CYCLES):
            sim.cycle({k: broadcast(v, lanes) for k, v in STUCK.items()})
        for profiler in profilers:
            assert profiler.diagnoses == reference

    def test_only_the_stalled_lane_is_diagnosed(self):
        # Lane 0 wedges behind a stuck sink; lane 1 drains freely.
        target = TARGETS["dual_ehb"]()
        sim = CompiledSimulator(target.netlist, 2)
        stuck, healthy = lane_profilers(target, sim)
        for inputs in pack_stimulus([[STUCK] * CYCLES, [HEALTHY] * CYCLES]):
            sim.cycle(inputs)
        assert stuck.diagnoses == scalar_diagnoses()
        assert healthy.diagnoses == []

    def test_healthy_broadcast_run_never_fires(self):
        target = TARGETS["dual_ehb"]()
        lanes = 4
        sim = CompiledSimulator(target.netlist, lanes)
        profilers = lane_profilers(target, sim)
        for _ in range(CYCLES):
            sim.cycle({k: broadcast(v, lanes) for k, v in HEALTHY.items()})
        assert all(p.diagnoses == [] for p in profilers)

    def test_idle_lane_is_not_a_stall(self):
        # Nothing offered, nothing pending: windows refresh on idle
        # however long the lanes sit there.
        target = TARGETS["dual_ehb"]()
        idle = {"src.choice": 0, "src.accept": 0,
                "snk.stall": 0, "snk.kill": 0}
        sim = CompiledSimulator(target.netlist, 2)
        profilers = lane_profilers(target, sim)
        for _ in range(CYCLES):
            sim.cycle({k: broadcast(v, 2) for k, v in idle.items()})
        assert all(p.diagnoses == [] for p in profilers)


class TestCompiledWatchdog:
    def test_compiled_lane_matches_the_scalar_diagnosis(self, tmp_path):
        from repro.codegen import build_cache

        target = TARGETS["dual_ehb"]()
        lanes = 2
        sim = CompiledSimulator(
            target.netlist, lanes, hooks=frozenset(),
            observe=frozenset(target.observe),
            cache=build_cache(str(tmp_path / "cache")),
        )
        profilers = lane_profilers(target, sim)
        for _ in range(CYCLES):
            sim.cycle({k: broadcast(v, lanes) for k, v in STUCK.items()})
        reference = scalar_diagnoses()
        assert reference
        for profiler in profilers:
            assert profiler.diagnoses == reference
