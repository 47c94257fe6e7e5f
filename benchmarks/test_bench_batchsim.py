"""Lane-parallel kernel throughput and campaign speedup.

Times the 64-lane compiled simulator against the scalar two-phase
simulator (cycles/sec, all 64 lanes counted) and the full fault
campaign on the scalar reference harness (one fault per run) vs the
64-lane campaign.  The lane-parallel campaign must be at least 10x
faster on the Fig. 5 dual-EHB target *and* produce a byte-identical
JSON report -- speed never buys a different answer.
"""

import time

import pytest

from repro.codegen.sim import CompiledSimulator
from repro.faults.campaign import (
    CampaignConfig,
    CampaignReport,
    enumerate_injections,
    run_campaign,
)
from repro.faults.targets import TARGETS
from repro.rtl.batchsim import pack_stimulus
from repro.rtl.simulator import TwoPhaseSimulator
from tests.faults.scalar_reference import CampaignHarness

LANES = 64
# untestable analysis is a shared post-pass (identical in both modes);
# excluding it isolates the simulation work the lanes actually
# parallelise, and lets the sequential report be built straight from
# the reference harness's outcomes.  Transient flips are included:
# faults that stay undetected make the sequential harness run to the
# horizon, which is exactly the load lanes amortise.
CONFIG = CampaignConfig(
    cycles=300, seed=2007, kinds=("stuck0", "stuck1", "flip"),
    untestable_analysis=False,
)


def _stimulus(target, cycles, lanes):
    import random

    return [
        [
            {name: rng.getrandbits(1) for name in target.free_inputs}
            for _ in range(cycles)
        ]
        for rng in (random.Random(f"bench:{lane}") for lane in range(lanes))
    ]


def test_bench_scalar_kernel(benchmark):
    target = TARGETS["dual_ehb"]()
    stim = _stimulus(target, 200, 1)[0]
    sim = TwoPhaseSimulator(target.netlist)

    def run():
        sim.reset()
        for inputs in stim:
            sim.cycle(inputs)

    benchmark(run)
    benchmark.extra_info["lane_cycles_per_call"] = len(stim)


def test_bench_batch_kernel_64_lanes(benchmark):
    target = TARGETS["dual_ehb"]()
    packed = pack_stimulus(_stimulus(target, 200, LANES))
    sim = CompiledSimulator(
        target.netlist, LANES,
        hooks=frozenset(target.fault_sites),
        observe=frozenset(target.observe),
    )

    def run():
        sim.reset()
        for inputs in packed:
            sim.cycle(inputs)

    benchmark(run)
    benchmark.extra_info["lane_cycles_per_call"] = len(packed) * LANES


def _sequential_campaign(name: str) -> CampaignReport:
    """The sweep on the scalar reference harness, one fault per run."""
    target = TARGETS[name]()
    report = CampaignReport(target=name, seed=CONFIG.seed,
                            cycles=CONFIG.cycles)
    report.outcomes = CampaignHarness(target, CONFIG).run_chunk(
        enumerate_injections(target, CONFIG)
    )
    return report


@pytest.mark.parametrize("name", ["dual_ehb", "early_join"])
def test_bench_campaign_speedup(benchmark, best_time, name):
    """Scalar reference vs 64-lane campaign: >=10x on dual-EHB, same bytes."""
    start = time.perf_counter()
    sequential = _sequential_campaign(name)
    sequential_s = time.perf_counter() - start

    batched_s, batched = best_time(run_campaign, name, CONFIG, lanes=LANES)
    benchmark(run_campaign, name, CONFIG, lanes=LANES)
    speedup = sequential_s / batched_s

    assert batched.to_json() == sequential.to_json()
    benchmark.extra_info["faults"] = len(batched.outcomes)
    benchmark.extra_info["sequential_s"] = round(sequential_s, 4)
    benchmark.extra_info["speedup_vs_sequential"] = round(speedup, 2)
    print(f"\n{name}: sequential {sequential_s:.3f}s, "
          f"batched {batched_s:.3f}s, speedup {speedup:.1f}x")
    if name == "dual_ehb":
        assert speedup >= 10.0
