"""Tests for the performance observatory (``repro.obs.analyze``).

The tentpole guarantees under test:

* the JSON report is byte-identical across repeated seeded runs, and
  the compiled lane measures what the scalar reference
  (``tests/obs/scalar_reference.py``) measures on every RTL design;
* per-channel cycle accounting balances and the token/anti-token
  conservation check closes (zero residual on every buffer);
* backpressure attribution walks an asserted-Stop chain back to its
  root cause, and a stalled run's diagnoses agree across both engines
  and the scalar reference watchdog, whatever the string hash seed;
* ``--compare-model`` reproduces the paper's numbers where the DMG
  abstraction is faithful and *flags* (rather than hides) the known
  protocol-level divergence of the variable-latency target.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.codegen import BuildCache
from repro.codegen.sim import CompiledSimulator
from repro.elastic.gates import (
    GateChannel,
    build_elastic_buffer,
    build_nd_sink,
)
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.targets import TARGETS, RtlTarget, build_duplex_source
from repro.obs import analyze
from repro.elastic.protocol import CATEGORY, event_of
from repro.obs.analyze import (
    _WINDOW,
    NetworkProfiler,
    RtlChannelProfiler,
    model_section,
    profile_designs,
    run_profile,
)
from repro.rtl.batchsim import broadcast
from repro.rtl.logic import X
from repro.rtl.netlist import Netlist
from repro.rtl.simulator import TwoPhaseSimulator
from repro.synthesis.spec import SystemSpec
from tests.obs import scalar_reference

CYCLES = 400
SEED = 2007

ROOT = Path(__file__).resolve().parents[2]

#: three stall windows, and a little more
STALLED = 3 * _WINDOW + 10


def report_json(design, cycles=CYCLES, **kw):
    return run_profile(design, cycles=cycles, seed=SEED, **kw).to_json()


def classify_strict(vp, sp, vn, sn) -> str:
    return CATEGORY[event_of(vp, sp, vn, sn)]


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
        assert classify_strict(None, 0, 1, X) == "idle"


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self):
        assert report_json("early_join") == report_json("early_join")

    def test_network_design_repeats_byte_identical(self):
        assert report_json("pipeline") == report_json("pipeline")

    def test_backends_agree_byte_for_byte(self, monkeypatch):
        # Every RTL design: the compiled lane's report equals the one
        # run_profile builds with the scalar reference standing in for
        # _run_rtl (run_profile sets the tag, so it matches too).
        cases = list(itertools.product(
            sorted(TARGETS), (CYCLES, 2000), (False, True)
        ))
        compiled = [report_json(d, c, compare_model=m) for d, c, m in cases]
        monkeypatch.setattr(analyze, "_run_rtl", scalar_reference.run_rtl)
        for (design, cycles, model), text in zip(cases, compiled):
            assert json.loads(text)["backend"] == "compiled"
            scalar = report_json(design, cycles, compare_model=model)
            assert scalar == text, (design, cycles, model)

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

    def test_unknown_wires_count_as_idle(self):
        # A missing input is all-X: both channels' Valid wires are
        # unknown, and every such lane cycle counts idle.
        target = TARGETS["dual_ehb"]()
        sim = CompiledSimulator(
            target.netlist, lanes=1, hooks=frozenset(),
            observe=frozenset(target.observe),
        )
        profiler = RtlChannelProfiler(target).attach_lane(sim, 0)
        planes = {name: broadcast(0, 1)
                  for name in ("src.accept", "snk.stall", "snk.kill")}
        for _ in range(3):
            sim.cycle(planes)
        assert sim.lane_value("L.vp", 0) is X
        for name, counts in profiler.channel_section().items():
            assert counts["idle"] == 3, name
            assert counts["throughput"] == 0, name

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
        sim = CompiledSimulator(
            target.netlist, lanes=1, hooks=frozenset(),
            observe=frozenset(target.observe),
        )
        profiler = RtlChannelProfiler(target).attach_lane(sim, 0)
        scalar = TwoPhaseSimulator(target.netlist)
        reference = scalar_reference.ScalarChannelProfiler(target)
        reference.attach_scalar(scalar)
        stuck = {"src.choice": 1, "src.accept": 0,
                 "snk.stall": 1, "snk.kill": 0}
        planes = {name: broadcast(v, 1) for name, v in stuck.items()}
        for _ in range(40):
            sim.cycle(planes)
            scalar_reference.cycle(scalar, stuck, [reference.observe])
        attr = profiler.attribution_section()
        assert attr["lost_cycles"] > 0
        assert attr["sinks"]["L.sp"]["roots"] == {"R.sp": 38}
        assert attr == reference.attribution_section()

    def test_healthy_eager_run_loses_no_cycles(self):
        report = run_profile("dual_ehb", cycles=CYCLES, seed=SEED)
        assert report.attribution["lost_cycles"] == 0
        assert report.attribution["stalls"] == []

    def test_disabled_profilers_attach_nothing(self):
        target = TARGETS["dual_ehb"]()
        sim = CompiledSimulator(target.netlist, 4)
        RtlChannelProfiler(target, enabled=False).attach_lane(sim, 0)
        assert not sim.observers

        from repro.obs.analyze import pipeline_network

        net = pipeline_network()
        probes = len(net.probes)
        observers = sum(len(c.observers) for c in net.channels.values())
        NetworkProfiler(enabled=False).attach(net)
        assert len(net.probes) == probes
        assert sum(len(c.observers) for c in net.channels.values()) \
            == observers


def stuck_stimulus(target):
    """Every source offers, every sink stalls, a VL unit is done."""
    return {
        name: int(name.endswith((".choice", ".stall", ".done")))
        for name in target.free_inputs
    }


def two_pipelines() -> RtlTarget:
    """Two source -> dual EB -> sink pipelines (``a`` and ``b``) in one
    netlist: stalled, their wait-for graph holds two rings."""
    nl = Netlist("two_dual_ehb")
    channels, free = [], []
    for p in "ab":
        left = GateChannel.declare(nl, f"{p}L")
        right = GateChannel.declare(nl, f"{p}R")
        choice = nl.add_input(f"{p}.src.choice")
        accept = nl.add_input(f"{p}.src.accept")
        build_duplex_source(nl, left, prefix=f"{p}.src",
                            choice_input=choice, accept_input=accept)
        build_elastic_buffer(nl, left, right, prefix=f"{p}.eb")
        stall = nl.add_input(f"{p}.snk.stall")
        kill = nl.add_input(f"{p}.snk.kill")
        build_nd_sink(nl, right, prefix=f"{p}.snk",
                      stall_input=stall, kill_input=kill)
        for ch in (left, right):
            for w in ch.wires():
                nl.add_output(w)
        channels += [left, right]
        free += [choice, accept, stall, kill]
    return RtlTarget("two_dual_ehb", nl, channels, free, fault_sites=[])


def two_ring_stalls():
    """The report's stalls of both pipelines stuck for one window."""
    target = two_pipelines()
    sim = CompiledSimulator(
        target.netlist, lanes=1, hooks=frozenset(),
        observe=frozenset(target.observe), cache=BuildCache.in_memory(),
    )
    profiler = RtlChannelProfiler(target).attach_lane(sim, 0)
    planes = {k: broadcast(v, 1) for k, v in stuck_stimulus(target).items()}
    for _ in range(_WINDOW + 10):
        sim.cycle(planes)
    return profiler.attribution_section()["stalls"]


class TestStalls:
    @pytest.mark.parametrize("design", sorted(TARGETS))
    def test_stalled_run_agrees_across_engines(self, design):
        # Every profile golden is stall-free; here each RTL target's
        # sinks stick, and both engines must report the same stalls.
        target = TARGETS[design]()
        stuck = stuck_stimulus(target)
        sim = CompiledSimulator(
            target.netlist, lanes=1, hooks=frozenset(),
            observe=frozenset(target.observe),
        )
        compiled = RtlChannelProfiler(target).attach_lane(sim, 0)
        scalar = TwoPhaseSimulator(target.netlist)
        reference = scalar_reference.ScalarChannelProfiler(target)
        reference.attach_scalar(scalar)
        watchdog = scalar_reference.RtlStallWatchdog.for_target(target)
        planes = {name: broadcast(v, 1) for name, v in stuck.items()}
        for _ in range(STALLED):
            sim.cycle(planes)
            scalar_reference.cycle(
                scalar, stuck, [reference.observe, watchdog.observe]
            )
        attr = compiled.attribution_section()
        assert len(attr["stalls"]) == 3
        assert attr == reference.attribution_section()
        assert compiled.diagnoses == watchdog.diagnoses

    def test_two_rings_diagnose_alike_under_any_hash_seed(self):
        # The reported ring must not depend on the order a set of wire
        # names iterates in, which PYTHONHASHSEED changes.
        script = ("import json; from tests.obs.test_analyze import "
                  "two_ring_stalls; print(json.dumps(two_ring_stalls()))")
        runs = []
        for seed in ("0", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                   str(ROOT)]))
            done = subprocess.run(
                [sys.executable, "-c", script], cwd=ROOT, env=env,
                capture_output=True, text=True, check=True,
            )
            runs.append(json.loads(done.stdout))
        assert runs[0] == runs[1]
        assert [s["stop_cycle"] for s in runs[0]] == [["aL.sp", "aR.sp"]]


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

    def test_clock_limit_leaves_the_lazy_bound_at_one(self):
        """With no latency-weighted cycle the lazy bound is one per
        clock, even where the unit-delay cycle the report names binds
        lower (three combinational hops around a two-token closure)."""
        spec = SystemSpec("chain")
        spec.add_source("P")
        spec.add_sink("K")
        for name in "ABC":
            spec.add_block(name)
        spec.connect(spec.source("P"), spec.block_in("A"))
        spec.connect(spec.block_out("A"), spec.block_in("B"))
        spec.connect(spec.block_out("B"), spec.block_in("C"))
        spec.connect(spec.block_out("C"), spec.sink("K"))
        model = model_section(spec, reference="P->A", measured=1.0,
                              cycles=50, seed=SEED, tolerance=0.1)
        assert model["critical_cycle"] == {
            "arcs": ["A->B", "B->C", "C->K", "env:K->P", "P->A"],
            "ratio": "1/2", "throughput": 0.5, "limit": "clock",
        }
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

    @pytest.mark.parametrize("design", ["early_join", "pipeline"])
    def test_out_of_range_input_rejected(self, design):
        for cycles in (0, -5):
            with pytest.raises(ValueError, match="cycles must be >= 1"):
                run_profile(design, cycles=cycles, compare_model=True)
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            run_profile(design, cycles=10, compare_model=True,
                        tolerance=-1)

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
        assert main(["profile", "--design", "early_join", "--cycles", "50",
                     "--no-cache", "--json", str(out)]) == 0
        assert not root.exists()
        assert json.loads(out.read_text())["backend"] == "compiled"

    @pytest.mark.parametrize("option, value", [
        ("--cycles", "0"), ("--tolerance", "-1"),
    ], ids=["cycles", "tolerance"])
    def test_out_of_range_input_exits_nonzero(self, option, value, tmp_path):
        from repro.cli import main

        out = tmp_path / "ej.json"
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--design", "early_join", "--compare-model",
                  option, value, "--json", str(out)])
        assert f"{option[2:]} must be >= " in str(exc.value.code)
        assert not out.exists()


class TestCampaignProfileKey:
    def test_profile_key_is_opt_in(self, tmp_path):
        cfg = CampaignConfig(cycles=80, seed=SEED)
        bare = run_campaign("dual_ehb", cfg)
        assert "profile" not in bare.to_dict()
        profiled = run_campaign("dual_ehb", cfg, profile=True)
        d = profiled.to_dict()
        assert d["profile"]["design"] == "dual_ehb"
        assert d["profile"]["backend"] == "compiled"
        assert d["profile"]["cycles"] == 80

    def test_profile_needs_a_named_target(self):
        calls = []
        with pytest.raises(ValueError, match="named target"):
            run_campaign(
                TARGETS["dual_ehb"](), CampaignConfig(cycles=80, seed=SEED),
                profile=True, progress=lambda done, total: calls.append(done),
            )
        assert calls == []
