"""Build-cache gate: a warm artifact loads faster than a cold build.

The compiled simulator is the only lane-parallel engine, so there is no
second kernel to race it against; its campaign throughput is gated
against the scalar reference harness (``tests/faults/scalar_reference``)
in ``test_bench_batchsim.py`` and measured
end to end by the ledger (``benchmarks/ledger``).  This file gates the
cache itself: a second load of the same artifact must skip codegen and
beat the cold build.

The Sect. 7 processor campaign is included as reference timing only:
that pipeline is modelled behaviourally (controllers stepping Python
objects, no gate netlist exists to elaborate), so the compiled
simulator structurally does not apply to it.
"""

import time

from repro.codegen.cache import BuildCache, process_stats
from repro.faults.campaign import (
    ProcessorCampaignConfig,
    run_processor_campaign,
)
from repro.faults.targets import TARGETS


def test_bench_warm_cache_skips_codegen(benchmark, best_time, tmp_path):
    """Second build of the same artifact is a pure cache hit."""
    target = TARGETS["dual_ehb"]()
    hooks = frozenset(target.fault_sites)
    observe = frozenset(target.observe)

    t0 = time.perf_counter()
    cold_cache = BuildCache(tmp_path / "cold")
    cold_cache.load_module(target.netlist, hooks, observe)
    cold_s = time.perf_counter() - t0

    warm_cache = BuildCache(tmp_path / "cold")  # same root, empty memory

    def warm_load():
        # a fresh instance per call: disk tier only, no memory hits
        return BuildCache(tmp_path / "cold").load_module(
            target.netlist, hooks, observe
        )

    before = process_stats()
    warm_s, _ = best_time(warm_load)
    benchmark(warm_load)
    assert process_stats()["misses"] == before["misses"]
    benchmark.extra_info["cold_build_s"] = round(cold_s, 4)
    benchmark.extra_info["warm_vs_cold"] = round(cold_s / warm_s, 1)
    print(f"\nbuild dual_ehb: cold {cold_s*1e3:.1f} ms, "
          f"warm {warm_s*1e3:.1f} ms ({cold_s/warm_s:.0f}x faster)")
    assert warm_s < cold_s
    assert warm_cache.stats()["entries"] == 1


def test_bench_processor_reference(benchmark, best_time):
    """Sect. 7 processor campaign: behavioural-only reference timing.

    No gate netlist exists for this pipeline (the case study steps
    behavioural controllers), so there is nothing for the compiled
    simulator to elaborate; this row documents the scalar baseline the
    RTL targets are compared against.
    """
    config = ProcessorCampaignConfig(cycles=120)
    seconds, report = best_time(run_processor_campaign, config)
    benchmark(run_processor_campaign, config)
    benchmark.extra_info["faults"] = len(report.outcomes)
    benchmark.extra_info["compiled_backend"] = "n/a (behavioural model)"
    print(f"\nprocessor campaign (reference): "
          f"{len(report.outcomes)} faults, "
          f"{seconds:.3f}s "
          f"(compiled backend n/a: behavioural model, no netlist)")
