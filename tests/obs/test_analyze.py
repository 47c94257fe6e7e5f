"""Tests for the performance observatory (``repro.obs.analyze``).

The tentpole guarantees under test:

* the JSON report is byte-identical across repeated seeded runs and
  across the two RTL engines (scalar, compiled);
* per-channel cycle accounting balances and the token/anti-token
  conservation check closes (zero residual on every buffer);
* backpressure attribution walks an asserted-Stop chain back to its
  root cause;
* ``--compare-model`` reproduces the paper's numbers where the DMG
  abstraction is faithful and *flags* (rather than hides) the known
  protocol-level divergence of the variable-latency target.
"""

import json

import pytest

from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.targets import TARGETS
from repro.obs.analyze import (
    NetworkProfiler,
    RtlChannelProfiler,
    classify_strict,
    profile_designs,
    run_profile,
)
from repro.rtl.logic import X
from repro.rtl.simulator import TwoPhaseSimulator

CYCLES = 400
SEED = 2007


def report_json(design, backend="auto", cache=None, **kw):
    report = run_profile(design, cycles=CYCLES, seed=SEED,
                         backend=backend, cache=cache, **kw)
    return report.to_json()


class TestClassifyStrict:
    def test_category_order_follows_the_protocol_table(self):
        assert classify_strict(1, 0, 0, 0) == "transfer+"
        assert classify_strict(0, 0, 1, 0) == "transfer-"
        assert classify_strict(1, 1, 1, 1) == "kill"
        assert classify_strict(1, 1, 0, 0) == "retry+"
        assert classify_strict(0, 0, 1, 1) == "retry-"
        assert classify_strict(0, 0, 0, 0) == "idle"

    def test_kill_beats_transfer(self):
        # Simultaneous tokens annihilate regardless of the stop wires.
        assert classify_strict(1, 0, 1, 0) == "kill"

    def test_x_falls_through_to_idle(self):
        assert classify_strict(X, 0, 0, 0) == "idle"
        assert classify_strict(1, X, 0, 0) == "idle"


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self):
        assert report_json("early_join") == report_json("early_join")

    def test_network_design_repeats_byte_identical(self):
        assert report_json("pipeline") == report_json("pipeline")

    def test_backends_agree_byte_for_byte(self, tmp_path):
        scalar = report_json("early_join", backend="scalar")
        compiled = report_json("early_join", backend="compiled",
                               cache=str(tmp_path / "cache"))
        # Only the backend tag may differ between the two reports.
        assert scalar == compiled.replace('"compiled"', '"scalar"')

    def test_report_ends_with_newline_and_sorted_keys(self):
        text = report_json("dual_ehb")
        assert text.endswith("\n")
        d = json.loads(text)
        assert list(d) == sorted(d)


class TestAccountingAndConservation:
    def test_channel_categories_sum_to_cycles(self):
        report = run_profile("dual_ehb", cycles=CYCLES, seed=SEED)
        for name, counts in report.channels.items():
            total = sum(
                counts[k] for k in ("transfer+", "transfer-", "kill",
                                    "retry+", "retry-", "idle")
            )
            assert total == CYCLES, name

    def test_conservation_closes_on_rtl_targets(self):
        for design in ("dual_ehb", "early_join", "vl"):
            report = run_profile(design, cycles=200, seed=SEED)
            cons = report.conservation
            assert cons["complete"] is True, design
            for name, buf in cons["buffers"].items():
                assert buf["residual"] == 0, (design, name)

    def test_conservation_closes_on_network_designs(self):
        report = run_profile("pipeline", cycles=CYCLES, seed=SEED)
        assert report.conservation["complete"] is True
        for buf in report.conservation["buffers"].values():
            assert buf["residual"] == 0


class TestAttribution:
    def test_stop_chain_walks_to_the_stalled_sink(self):
        # A sink holding stall=1 blocks R directly and L behind it:
        # the attribution must name R.sp as L.sp's root cause.
        target = TARGETS["dual_ehb"]()
        sim = TwoPhaseSimulator(target.netlist)
        profiler = RtlChannelProfiler(target).attach_scalar(sim)
        stuck = {"src.choice": 1, "src.accept": 0,
                 "snk.stall": 1, "snk.kill": 0}
        for _ in range(40):
            sim.cycle(stuck)
        attr = profiler.attribution_section()
        assert attr["lost_cycles"] > 0
        assert attr["sinks"]["L.sp"]["roots"] == {"R.sp": 38}

    def test_healthy_eager_run_loses_no_cycles(self):
        report = run_profile("dual_ehb", cycles=CYCLES, seed=SEED)
        assert report.attribution["lost_cycles"] == 0
        assert report.attribution["stalls"] == []

    def test_disabled_profilers_attach_nothing(self):
        target = TARGETS["dual_ehb"]()
        sim = TwoPhaseSimulator(target.netlist)
        RtlChannelProfiler(target, enabled=False).attach_scalar(sim)
        assert not sim.observers

        from repro.obs.analyze import _pipeline_network

        net = _pipeline_network(SEED)
        probes = len(net.probes)
        observers = sum(len(c.observers) for c in net.channels.values())
        NetworkProfiler(enabled=False).attach(net)
        assert len(net.probes) == probes
        assert sum(len(c.observers) for c in net.channels.values()) \
            == observers


class TestModelComparison:
    def test_early_join_matches_the_model_exactly(self):
        report = run_profile("early_join", cycles=CYCLES, seed=SEED,
                             compare_model=True)
        model = report.model
        assert model["within_tolerance"] is True
        assert model["divergence"] == 0
        # All-combinational mirror: the clock is the limit and the
        # critical cycle is one input's forward/return pair.
        assert model["critical_cycle"]["limit"] == "clock"
        assert model["critical_cycle"]["arcs"] == ["I0", "~I0"]
        assert model["lazy_bound"] == "1/1"

    def test_fig9_active_reproduces_the_paper(self):
        report = run_profile("active", cycles=2000, seed=SEED,
                             compare_model=True)
        model = report.model
        assert model["within_tolerance"] is True
        assert model["beats_lazy_bound"] is True
        cc = model["critical_cycle"]
        assert cc["arcs"] == ["M1->M2", "~M1->M2"]
        assert cc["ratio"] == "1/4"
        assert cc["limit"] == "structural"
        assert model["lazy_bound"] == "1/4"

    def test_vl_divergence_is_flagged_not_hidden(self):
        # Known model limitation: the timed DMG's snapshot initiation
        # order costs one cycle per lap on the capacity-1 return arc
        # (predicts 1/3 where the RTL measures 1/2).  The report's job
        # is to surface that divergence.
        report = run_profile("vl", cycles=200, seed=SEED,
                             compare_model=True)
        assert report.model["within_tolerance"] is False

    def test_ee_benefit_accounting_on_the_processor(self):
        report = run_profile("processor", cycles=300, seed=SEED)
        ee = report.ee
        join = ee["joins"]["writeback"]
        assert join["fires"] > 0
        assert 0 < join["early"] <= join["fires"]
        assert join["anti_tokens_generated"] >= join["early"]
        replay = ee["late_replay"]
        assert replay["design"] == "in_order_writeback"
        assert replay["cycles_saved"] > 0


class TestInputValidation:
    def test_unknown_design_lists_the_catalogue(self):
        with pytest.raises(ValueError, match="early_join"):
            run_profile("nonesuch")

    def test_network_designs_reject_backend_override(self):
        with pytest.raises(ValueError, match="behavioural network"):
            run_profile("processor", backend="compiled")

    def test_unknown_rtl_engine_rejected(self):
        with pytest.raises(ValueError, match="pick scalar, compiled"):
            run_profile("early_join", cycles=10, backend="batch")

    def test_processor_has_no_model(self):
        with pytest.raises(ValueError, match="no DMG abstraction"):
            run_profile("processor", cycles=50, compare_model=True)

    def test_catalogue_covers_both_engines(self):
        designs = profile_designs()
        assert "early_join" in designs and "processor" in designs
        assert len(designs) == len(set(designs))


class TestCli:
    def test_compiled_no_cache_writes_nothing(self, tmp_path, monkeypatch,
                                              capsys):
        from repro.cli import main

        root = tmp_path / "nc"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        out = tmp_path / "ej.json"
        assert main(["profile", "--design", "early_join", "--backend",
                     "compiled", "--cycles", "50", "--no-cache",
                     "--json", str(out)]) == 0
        assert not root.exists()
        assert json.loads(out.read_text())["backend"] == "compiled"


class TestCampaignProfileKey:
    def test_profile_key_is_opt_in(self, tmp_path):
        cfg = CampaignConfig(cycles=80, seed=SEED)
        bare = run_campaign("dual_ehb", cfg)
        assert "profile" not in bare.to_dict()
        profiled = run_campaign("dual_ehb", cfg, profile=True)
        d = profiled.to_dict()
        assert d["profile"]["design"] == "dual_ehb"
        assert d["profile"]["backend"] == "scalar"
        assert d["profile"]["cycles"] == 80

    def test_profile_needs_a_named_target(self):
        calls = []
        with pytest.raises(ValueError, match="named target"):
            run_campaign(
                TARGETS["dual_ehb"](), CampaignConfig(cycles=80, seed=SEED),
                profile=True, progress=lambda done, total: calls.append(done),
            )
        assert calls == []
