"""Campaign runner: coverage, determinism, untestability proofs."""

import json
import re

import pytest

from repro.codegen.sim import CompiledSimulator
from repro.faults.campaign import (
    CampaignConfig,
    CampaignHarness,
    ProcessorCampaignConfig,
    enumerate_injections,
    make_stimulus,
    prove_untestable,
    resolve_target,
    run_campaign,
    run_processor_campaign,
)
from repro.faults.models import Injection
from repro.faults.targets import TARGETS, dual_ehb
from repro.obs.metrics import MetricsRegistry
from repro.rtl.toposort import CombinationalCycleError

CONFIG = CampaignConfig(cycles=250, seed=2007)


@pytest.fixture(scope="module")
def dual_ehb_report():
    return run_campaign("dual_ehb", CONFIG)


class TestDualEhbCoverage:
    """The headline claim: every testable stuck-at on the dual-EHB
    control nets is caught by an online monitor."""

    def test_full_coverage(self, dual_ehb_report):
        assert dual_ehb_report.coverage == 1.0
        assert dual_ehb_report.counts()["undetected"] == 0
        assert dual_ehb_report.counts()["latent"] == 0

    def test_sweep_covers_every_site_and_kind(self, dual_ehb_report):
        target = dual_ehb()
        assert len(dual_ehb_report.outcomes) == 2 * len(target.fault_sites)

    def test_detections_name_monitor_and_cycle(self, dual_ehb_report):
        for outcome in dual_ehb_report.detected():
            assert outcome.monitor
            assert outcome.detection_cycle is not None
            assert 0 <= outcome.detection_cycle < CONFIG.cycles

    def test_multiple_monitor_classes_fire(self, dual_ehb_report):
        classes = {o.monitor.split("[")[0] for o in dual_ehb_report.detected()}
        # Faults are caught by protocol rules and state checks alike,
        # not just by the golden reference.
        assert len(classes) >= 3

    def test_escapes_are_proven_untestable(self, dual_ehb_report):
        escapes = [
            o for o in dual_ehb_report.outcomes if o.status == "untestable"
        ]
        # The Fig. 5 implementation has exactly two redundant faults:
        # the ¬V− term of out_pos and the ¬V+ term of out_neg are
        # shadowed by the kill terms of dec/inc.
        assert len(escapes) == 2
        assert all("equivalent" in o.detail for o in escapes)
        assert {o.fault.split("(")[0] for o in escapes} == {"stuck1"}


class TestUntestabilityProof:
    def test_known_redundant_fault_is_proven(self, dual_ehb_report):
        target = dual_ehb()
        escapes = {
            o.fault for o in dual_ehb_report.outcomes
            if o.status == "untestable"
        }
        by_label = {
            i.label(): i for i in enumerate_injections(target, CONFIG)
        }
        for label in escapes:
            assert prove_untestable(target, by_label[label])

    def test_testable_fault_is_not_proven(self):
        target = dual_ehb()
        assert not prove_untestable(target, Injection("eb.t0", "stuck1"))


class TestDeterminism:
    def test_stimulus_is_seeded(self):
        a = make_stimulus(["x", "y"], 50, seed=1)
        b = make_stimulus(["x", "y"], 50, seed=1)
        c = make_stimulus(["x", "y"], 50, seed=2)
        assert a == b
        assert a != c

    def test_report_is_byte_for_byte_reproducible(self, dual_ehb_report):
        again = run_campaign("dual_ehb", CONFIG)
        assert again.to_json() == dual_ehb_report.to_json()

    def test_json_is_valid_and_complete(self, dual_ehb_report):
        data = json.loads(dual_ehb_report.to_json())
        assert data["target"] == "dual_ehb"
        assert data["seed"] == CONFIG.seed
        assert len(data["faults"]) == len(dual_ehb_report.outcomes)
        assert data["coverage"] == 1.0


class TestSweepMechanics:
    def test_enumeration_is_site_times_kind_times_cycle(self):
        target = dual_ehb()
        config = CampaignConfig(
            kinds=("stuck0", "flip"), injection_cycles=(0, 7)
        )
        injections = enumerate_injections(target, config)
        assert len(injections) == len(target.fault_sites) * 2 * 2
        flips = [i for i in injections if i.kind == "flip"]
        assert all(i.duration == config.flip_duration for i in flips)

    def test_resolve_target_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_target("nonesuch")

    def test_transient_flips_are_mostly_caught(self):
        report = run_campaign(
            "dual_ehb",
            CampaignConfig(cycles=120, kinds=("flip",),
                           injection_cycles=(25,)),
        )
        counts = report.counts()
        assert counts["detected"] > len(report.outcomes) // 2

    @pytest.mark.parametrize("name", sorted(set(TARGETS) - {"dual_ehb"}))
    def test_other_targets_accept_campaigns(self, name):
        report = run_campaign(
            name,
            CampaignConfig(cycles=60, kinds=("stuck1",),
                           untestable_analysis=False),
        )
        assert report.outcomes
        assert report.counts()["detected"] > 0


class TestHarness:
    def test_empty_schedule_matches_golden(self):
        harness = CampaignHarness(dual_ehb(), CampaignConfig(cycles=80))
        violation, _, final_state = harness.run_schedule([])
        assert violation is None
        assert final_state == harness.golden_final

    def test_recording_returns_int_signals(self):
        harness = CampaignHarness(dual_ehb(), CampaignConfig(cycles=30))
        _, steps, _ = harness.run_schedule([], record=True)
        assert len(steps) == 30
        for step in steps:
            assert all(v in (0, 1) for v in step.signals.values())


class TestCompileFallback:
    def test_uncompilable_netlist_runs_scalar_only(self):
        # A combinational loop the scalar fixed point settles but the
        # compiled simulator refuses.
        target = dual_ehb()
        target.netlist.OR("cyc.b", "src.choice", out="cyc.a")
        target.netlist.AND("cyc.a", "snk.stall", out="cyc.b")
        with pytest.raises(CombinationalCycleError,
                           match=re.escape("cyc.a -> cyc.b -> cyc.a")):
            CompiledSimulator(target.netlist, 8)
        config = CampaignConfig(cycles=60, seed=3)
        metrics = MetricsRegistry()
        batched = run_campaign(target, config, lanes=8, metrics=metrics)
        scalar = run_campaign(target, config, lanes=1)
        assert len(scalar.outcomes) == 92
        assert batched.to_json() == scalar.to_json()
        # The prover cannot compile the netlist either, so it answers
        # "maybe testable" for the two faults it proves on dual_ehb.
        status = {o.fault: o.status for o in scalar.outcomes}
        assert status["stuck1(not$9)@0"] == "undetected"
        assert status["stuck1(not$10)@0"] == "undetected"
        assert metrics.counter(
            "campaign_lane_quarantine_total",
            reason="compile", target="dual_ehb",
        ).value == 8


class TestProcessorCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return run_processor_campaign(
            ProcessorCampaignConfig(cycles=150, seed=2007)
        )

    def test_online_and_golden_detections(self, report):
        monitors = {o.monitor for o in report.detected()}
        assert "protocol" in monitors      # caught while running
        assert "golden-data" in monitors   # caught by the committed trace

    def test_statuses_are_classified(self, report):
        assert {o.status for o in report.outcomes} <= {
            "detected", "latent", "undetected"
        }
        assert report.counts()["detected"] > len(report.outcomes) // 2

    def test_reproducible(self, report):
        again = run_processor_campaign(
            ProcessorCampaignConfig(cycles=150, seed=2007)
        )
        assert again.to_json() == report.to_json()
