"""Tests of the ledger itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q``.
"""

from __future__ import annotations

import math
import sys
import types
from time import perf_counter

import pytest

from benchmarks.ledger import ledger
from benchmarks.ledger.spans import PROBES, Probe, Tracer
from benchmarks.ledger.workloads import WORKLOADS

#: Functions each workload must call, i.e. where the mapping in README.md
#: predicts work.  ``fuzz.shrink_model`` only runs on a finding.
EXPECTED_CALLS = {
    "campaign-long": {
        "faults.run_campaign", "faults.run_chunk", "faults.prove_untestable",
        "faults.report_to_json", "resilience.degrade_run_chunk",
        "rtl.batch_init", "rtl.batch_cycle", "rtl.scalar_step",
    },
    "campaign-sharded": {
        "faults.run_campaign", "faults.prove_untestable",
        "faults.report_to_json", "resilience.supervisor_run",
        "rtl.scalar_step",
    },
    "table1": {
        "casestudy.run_config", "casestudy.build_fig9_spec",
        "synthesis.to_behavioral", "synthesis.to_gates",
        "synthesis.control_layer_area", "elastic.network_step",
    },
    "fuzz": {
        "fuzz.generate_model", "fuzz.run_oracle", "lint.lint_spec",
        "lint.lint_network", "lint.lint_netlist", "synthesis.to_behavioral",
        "synthesis.to_gates", "elastic.network_step", "rtl.batch_init",
        "rtl.batch_cycle", "rtl.scalar_cycle", "rtl.scalar_step",
        "codegen.load_module", "codegen.compiled_cycle",
        "verif.build_kripke", "verif.ctl_holds",
    },
}
EXPECTED_CALLS["campaign-transient"] = EXPECTED_CALLS["campaign-long"]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- spans ---------------------------------------------------------------
def test_self_time_excludes_wrapped_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    step = tracer.wrap("step", lambda: clock.advance(0.125), per_cycle=True)

    def cycle_body():
        clock.advance(0.25)
        step()

    cycle = tracer.wrap("cycle", cycle_body, per_cycle=True)
    leaf = tracer.wrap("leaf", lambda: clock.advance(1.0))

    def outer_body():
        clock.advance(2.0)
        leaf()
        cycle()
        cycle()
        leaf()

    outer = tracer.wrap("outer", outer_body)
    tracer.op = "op-1"
    outer()

    assert tracer.stats["outer"] == [1, 4.75, 2.0]
    assert tracer.stats["leaf"] == [2, 2.0, 2.0]
    assert tracer.stats["cycle"] == [2, 0.75, 0.5]
    assert tracer.stats["step"] == [2, 0.25, 0.25]
    # Per-cycle calls leave no span of their own; they fold into the
    # nearest enclosing span, however deep they nest.
    assert [s["name"] for s in tracer.spans] == ["outer", "leaf", "leaf"]
    root, first, second = tracer.spans
    assert root["parent"] is None
    assert first["parent"] == second["parent"] == root["id"]
    assert root["cycles"] == {"cycle": [2, 0.75], "step": [2, 0.25]}
    assert all(s["op"] == "op-1" for s in tracer.spans)
    assert root["end"] - root["start"] == 4.75


def test_exception_still_closes_the_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.stats["boom"] == [1, 1.0, 1.0]
    assert tracer.spans[0]["end"] == 1.0
    assert tracer._stack == []


def test_instrument_patches_every_binding_and_restores(monkeypatch):
    home = types.ModuleType("ledger_fake_home")

    def helper(x):
        return x + 1

    class Engine:
        def cycle(self):
            return helper(1)

    home.helper = helper
    home.Engine = Engine
    consumer = types.ModuleType("ledger_fake_consumer")
    consumer.helper = helper  # as `from ledger_fake_home import helper`
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, consumer.__name__, consumer)

    tracer = Tracer()
    skipped = tracer.instrument((
        Probe("fake.helper", ("ledger_fake_home:helper",)),
        Probe("fake.cycle", ("ledger_fake_home:Engine.cycle",), True),
        Probe("fake.gone", ("ledger_fake_home:removed",
                            "no_such_module_for_ledger:f")),
    ))
    assert skipped == ["ledger_fake_home:removed",
                       "no_such_module_for_ledger:f"]
    assert consumer.helper(1) == 2
    assert Engine().cycle() == 2
    home.helper(0)
    assert tracer.stats["fake.helper"][0] == 2
    assert tracer.stats["fake.cycle"][0] == 1
    assert tracer.stats["fake.gone"][0] == 0
    tracer.restore()
    assert consumer.helper is helper and home.helper is helper
    assert vars(Engine)["cycle"].__name__ == "cycle"
    assert not hasattr(vars(Engine)["cycle"], "__wrapped__")


# -- statistics ------------------------------------------------------------
@pytest.mark.parametrize("samples, percentile", [
    (11, 9), (20, 50), (100, 90), (126, 92), (1000, 99),
])
def test_supported_percentile_examples(samples, percentile):
    assert ledger.supported_percentile(samples) == percentile


def test_supported_percentile_is_the_highest_with_ten_beyond():
    def beyond(p, n):
        return n - math.ceil(p * n / 100)

    assert ledger.supported_percentile(10) is None
    for n in range(11, 600):
        p = ledger.supported_percentile(n)
        assert beyond(p, n) >= 10
        assert beyond(p + 1, n) < 10


def _ledger(**runs):
    return {"records": [
        {"workload": w, "seed": i, "trace": False, "digests": {},
         "metrics": {"wall_s": {"value": v, "unit": "s"}}}
        for w, values in runs.items() for i, v in enumerate(values)
    ]}


def test_compare_classifies_pairs():
    spec = {
        "workloads": [{"name": n} for n in ("a", "b", "c", "d")],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                        "bound": 0.1}],
    }
    before = _ledger(a=[1.0, 1.01, 0.99, 1.0], b=[1.0, 1.01, 0.99, 1.0],
                     c=[1.0, 1.5, 0.6, 1.2], d=[1.0, 1.01, 0.99, 1.0])
    after = _ledger(a=[1.3, 1.31, 1.29, 1.3], b=[0.8, 0.81, 0.79, 0.8],
                    c=[1.1, 0.7, 1.4, 0.9], d=[1.0, 1.02, 0.98, 1.01])
    verdicts = {r["workload"]: r["verdict"]
                for r in ledger.compare(spec, before, after)}
    assert verdicts == {"a": "worse", "b": "better", "c": "unresolved",
                        "d": "same"}


# -- workloads: tiny traced runs ------------------------------------------
@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One tiny untraced+traced measurement per workload, in-process."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in WORKLOADS:
            scratch = tmp_path_factory.mktemp(name)
            mp.setenv("REPRO_CACHE_DIR", str(scratch / "repro-cache"))
            runs[name] = ledger.measure(name, seed=11, seconds=0, trace=True,
                                        scratch=scratch, tiny=True)
    return runs


def test_expected_calls_cover_every_probe():
    covered = set().union(*EXPECTED_CALLS.values())
    timed = {p.name for p in PROBES if p.timed}
    assert timed - covered == {"fuzz.shrink_model"}
    assert set(EXPECTED_CALLS) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reaches_every_predicted_layer(tiny_runs, name):
    layers = tiny_runs[name]["layers"]
    idle = sorted(p for p in EXPECTED_CALLS[name]
                  if not layers[f"{p}.calls"] > 0)
    assert idle == []
    assert not any("not found" in note for note in tiny_runs[name]["notes"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_digests_agree(tiny_runs, name):
    run = tiny_runs[name]
    assert run["untraced"]["failures"] == []
    assert run["traced"]["failures"] == []
    assert run["traced"]["digests"] == run["untraced"]["digests"]
    assert run["untraced"]["digests"]


def test_campaigns_never_touch_the_build_cache(tiny_runs):
    for name in ("campaign-long", "campaign-transient", "campaign-sharded"):
        ops = tiny_runs[name]["untraced"]["ops"]
        assert [op["cache_misses"] for op in ops] == [0] * len(ops), name


def test_every_fuzz_spec_is_a_cold_codegen_build(tiny_runs):
    for phase in ("untraced", "traced"):
        ops = tiny_runs["fuzz"][phase]["ops"]
        assert all(op["cache_misses"] >= 1 and op["cache_hits"] == 0
                   for op in ops), ops


def test_benchmark_json_names_match_the_code(tiny_runs):
    spec = ledger.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for run in tiny_runs.values():
        assert {m["name"] for m in spec["per_layer"]} == set(run["layers"])
        assert ({m["name"] for m in spec["end_to_end"]}
                == set(run["metrics"]) | {"setup_s"})


# -- a whole single-workload call ----------------------------------------
def test_workload_call_is_correct_isolated_and_cleans_up(tmp_path, monkeypatch):
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    before = set(ledger.SCRATCH_ROOT.glob("campaign-sharded-*"))
    spec = ledger.load_spec()
    record = ledger.run_workload(spec, "campaign-sharded", 2007, 0,
                                 trace=False,
                                 deadline=perf_counter() + 170)
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] == 21
    assert record["digests"] == ledger.load_goldens()["campaign-sharded"]
    assert len(record["samples"]["setup"]) == ledger.SETUP_SAMPLES
    assert list(record["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert set(ledger.SCRATCH_ROOT.glob("campaign-sharded-*")) == before
    assert list(home.iterdir()) == []
