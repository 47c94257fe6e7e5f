"""Fuzz harness scale: generation, repair and the differential oracle.

Times the three kernels the fuzzing campaign is built from -- the
seeded spec generator (with its validity-repair pass), the behavioural
cross-check oracle, and spec-level ddmin shrinking of a planted
broken-early-join counterexample -- and records throughput-style
numbers in ``extra_info`` so capacity regressions (specs/s, blocks per
generated model, shrink ratio) show up next to the timings.
"""

import random

import pytest

from repro.fuzz.generate import GeneratorConfig, generate_model
from repro.fuzz.mutations import MUTATIONS
from repro.fuzz.oracle import OracleConfig, run_oracle
from repro.fuzz.runner import FuzzConfig, run_fuzz
from repro.fuzz.shrink import shrink_model

FAST = OracleConfig(cycles=48, check_gates=False,
                    check_verify=False)


def test_bench_generate_large_spec(benchmark):
    cfg = GeneratorConfig(max_blocks=400, min_blocks=400)

    def generate():
        return generate_model(random.Random("bench:gen"), cfg, name="big")

    model = benchmark(generate)
    assert len(model.blocks) == 400
    benchmark.extra_info["blocks"] = len(model.blocks)
    benchmark.extra_info["connections"] = len(model.connections)


def test_bench_elaborate_large_spec(benchmark):
    from repro.synthesis.elaborate import to_behavioral

    cfg = GeneratorConfig(max_blocks=400, min_blocks=400)
    model = generate_model(random.Random("bench:gen"), cfg, name="big")
    spec = model.build()

    def elaborate_and_step():
        net = to_behavioral(spec, seed=0, monitor=True, check_data=True)
        for _ in range(8):
            net.step()
        return net

    net = benchmark(elaborate_and_step)
    benchmark.extra_info["controllers"] = len(net.controllers)


def test_bench_oracle_campaign(benchmark):
    config = FuzzConfig(seed=11, specs=4, max_blocks=16, cycles=48,
                        check_gates=False, check_verify=False)

    report = benchmark(run_fuzz, config)
    assert report.examined == 4
    assert report.findings == []
    benchmark.extra_info["specs"] = report.examined


def test_bench_shrink_planted_bug(benchmark):
    mutate = MUTATIONS["broken-early-join"]
    cfg = GeneratorConfig(max_blocks=24, min_blocks=12, p_join=0.9,
                          p_early=1.0, p_fork=0.2, p_vl=0.0,
                          p_kill_sink=0.0, source_p_valid=(0.5, 0.75))

    def fails(candidate):
        finding = run_oracle(candidate, seed=0, config=FAST, mutate=mutate)
        return finding is not None and finding.stage == "behavioral"

    model = None
    for trial in range(40):
        candidate = generate_model(random.Random(f"bench:shrink:{trial}"),
                                   cfg, name=f"bs{trial}")
        if fails(candidate):
            model = candidate
            break
    assert model is not None, "planted bug never fired"

    shrunk = benchmark(shrink_model, model, fails)
    assert len(shrunk.blocks) <= 6
    benchmark.extra_info["blocks_before"] = len(model.blocks)
    benchmark.extra_info["blocks_after"] = len(shrunk.blocks)
