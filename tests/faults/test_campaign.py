"""Campaign runner: coverage, determinism, untestability proofs."""

import json
import math

import pytest

from repro.codegen import cache as codegen_cache
from repro.codegen.sim import CompiledSimulator
from repro.faults import batch
from repro.faults.batch import BatchCampaignHarness, lane_overrides
from repro.faults.campaign import (
    PASS_LANES,
    CampaignConfig,
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
        harness = BatchCampaignHarness(
            dual_ehb(), CampaignConfig(cycles=80), 1
        )
        violation, _, final_state = harness.run_schedule([])
        assert violation is None
        assert final_state == harness.sim.lane_state(harness.lanes)

    def test_construction_simulates_nothing(self, monkeypatch):
        # The golden run rides as the top lane of every sweep: building
        # the harness compiles, but runs no cycle of its own.
        calls = []
        real = CompiledSimulator.cycle

        def counted(sim, inputs=None):
            calls.append(sim.time)
            real(sim, inputs)

        monkeypatch.setattr(CompiledSimulator, "cycle", counted)
        config = CampaignConfig(cycles=80)
        harness = BatchCampaignHarness(dual_ehb(), config, 8)
        assert calls == []
        assert (harness.lanes, harness.sim.lanes) == (8, 9)
        harness.run_chunk(enumerate_injections(dual_ehb(), config)[:8])
        assert calls == list(range(len(calls)))
        assert 0 < len(calls) <= config.cycles

    def test_full_chunk_never_touches_the_golden_lane(self):
        lanes = 8
        config = CampaignConfig(kinds=("stuck0", "stuck1", "flip"),
                                injection_cycles=(0, 3))
        # Every kind, switched on at cycle 0 or 3.
        chunk = enumerate_injections(dual_ehb(), config)[:lanes]
        assert {i.kind for i in chunk} == set(config.kinds)
        touched = 0
        for t in range(6):
            for override in lane_overrides(chunk, t).values():
                touched |= override.set0 | override.set1 | override.flip
        assert touched == (1 << lanes) - 1  # every fault lane, never lane 8

    def test_zero_lanes_raise(self):
        with pytest.raises(ValueError, match="at least one lane"):
            BatchCampaignHarness(dual_ehb(), CampaignConfig(cycles=80), 0)

    def test_recording_returns_int_signals(self):
        harness = BatchCampaignHarness(
            dual_ehb(), CampaignConfig(cycles=30), 1
        )
        _, steps, _ = harness.run_schedule([], record=True)
        assert len(steps) == 30
        for step in steps:
            assert all(v in (0, 1) for v in step.signals.values())


def _log_sweeps(monkeypatch, events):
    """Log ``("sweep", lanes)`` for every harness sweep, lanes being
    the injections it classifies."""
    real = BatchCampaignHarness._sweep

    def logged(self, overrides_at, edges, alive, steps=None):
        events.append(("sweep", bin(alive).count("1")))
        return real(self, overrides_at, edges, alive, steps)

    monkeypatch.setattr(BatchCampaignHarness, "_sweep", logged)


class TestPasses:
    """In process, whole pending chunks share one sweep of up to
    ``PASS_LANES`` lanes; chunks stay the unit of progress and
    checkpoints."""

    # 46 sites x 3 kinds x 6 injection cycles = 828 injections
    CONFIG = CampaignConfig(
        cycles=40, seed=2007, kinds=("stuck0", "stuck1", "flip"),
        injection_cycles=(0, 7, 14, 21, 28, 35), untestable_analysis=False,
    )
    TOTAL = 828

    @pytest.mark.parametrize("lanes", [1, 7, 64, 100, 512, 600])
    def test_whole_chunks_share_a_pass(self, monkeypatch, lanes):
        events = []
        _log_sweeps(monkeypatch, events)
        report = run_campaign("dual_ehb", self.CONFIG, lanes=lanes)
        assert len(report.outcomes) == self.TOTAL
        sizes = [min(lanes, self.TOTAL - i)
                 for i in range(0, self.TOTAL, lanes)]
        per_pass = max(1, PASS_LANES // lanes)
        widths = [width for _, width in events]
        assert len(widths) == math.ceil(len(sizes) / per_pass)
        if PASS_LANES % lanes == 0:
            assert len(widths) == math.ceil(len(sizes) * lanes / PASS_LANES)
        # every pass is whole consecutive chunks, never part of one
        assert widths == [
            sum(sizes[i:i + per_pass]) for i in range(0, len(sizes), per_pass)
        ]

    def test_progress_and_checkpoints_stay_per_chunk(
        self, monkeypatch, tmp_path
    ):
        events = []
        _log_sweeps(monkeypatch, events)
        ck = tmp_path / "ck"

        def progress(done, total):
            events.append(("progress", done, total))

        plain = run_campaign("dual_ehb", self.CONFIG, lanes=64,
                             checkpoint=str(ck), progress=progress)
        # progress once per chunk, cumulative, after the pass that
        # classified it
        assert events == (
            [("sweep", 512)]
            + [("progress", 64 * i, self.TOTAL) for i in range(1, 9)]
            + [("sweep", self.TOTAL - 512)]
            + [("progress", min(64 * i, self.TOTAL), self.TOTAL)
               for i in range(9, 14)]
        )
        files = sorted(ck.glob("chunk-*.json"))
        assert [f.name for f in files] == [
            f"chunk-{i:06d}.json" for i in range(13)
        ]
        # A resumed run passes only the missing chunks, in one pass.
        (ck / "chunk-000003.json").unlink()
        (ck / "chunk-000012.json").unlink()
        events.clear()
        resumed = run_campaign("dual_ehb", self.CONFIG, lanes=64,
                               checkpoint=str(ck), progress=progress)
        assert events == [
            ("progress", self.TOTAL - 64 - 60, self.TOTAL),
            ("sweep", 64 + 60),
            ("progress", self.TOTAL - 60, self.TOTAL),
            ("progress", self.TOTAL, self.TOTAL),
        ]
        assert resumed.to_json() == plain.to_json()

    def test_a_bank_is_compiled_once_per_target(self, monkeypatch):
        compiles = []
        real = codegen_cache._compile_chunks

        def counted(source, filename):
            if filename.startswith("<repro.faults.bank"):
                compiles.append(filename)
            return real(source, filename)

        monkeypatch.setattr(codegen_cache, "_compile_chunks", counted)
        monkeypatch.setattr(batch, "_BANKS", {})
        config = CampaignConfig(cycles=20, seed=2007)
        for lanes in (1, 8, 64):
            for name in sorted(TARGETS):
                BatchCampaignHarness(TARGETS[name](), config, lanes)
        assert len(compiles) == len(set(compiles)) == len(TARGETS)


class TestInputValidation:
    @pytest.mark.parametrize("cycles", [0, -3])
    def test_rtl_campaign_rejects_nonpositive_cycles(self, cycles):
        message = f"cycles must be >= 1, got {cycles}"
        with pytest.raises(ValueError, match=message):
            run_campaign("join", CampaignConfig(cycles=cycles))

    @pytest.mark.parametrize("cycles", [0, -3])
    def test_processor_campaign_rejects_nonpositive_cycles(self, cycles):
        message = f"cycles must be >= 1, got {cycles}"
        with pytest.raises(ValueError, match=message):
            run_processor_campaign(ProcessorCampaignConfig(cycles=cycles))

    @pytest.mark.parametrize("late", [40, -1])
    def test_rtl_campaign_rejects_injections_outside_the_horizon(self, late):
        config = CampaignConfig(cycles=40, injection_cycles=(0, late, 50))
        message = rf"injection cycle {late} is outside \[0, 40\)"
        with pytest.raises(ValueError, match=message):
            run_campaign("join", config)

    def test_processor_campaign_rejects_injections_outside_the_horizon(self):
        # the default injection cycle (60) never arms in a 20-cycle run
        with pytest.raises(ValueError,
                           match=r"injection cycle 60 is outside \[0, 20\)"):
            run_processor_campaign(ProcessorCampaignConfig(cycles=20))

    def test_last_cycle_is_inside_the_horizon(self):
        report = run_campaign("join", CampaignConfig(
            cycles=40, injection_cycles=(39,), untestable_analysis=False,
        ))
        assert report.outcomes


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
