"""The differential oracle: clean specs pass, planted bugs are caught."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fuzz.generate import GeneratorConfig, generate_model
from repro.fuzz.model import (
    BlockModel,
    ConnModel,
    RegisterModel,
    SinkModel,
    SourceModel,
    SpecModel,
)
from repro.fuzz.mutations import MUTATIONS, BrokenEarlyJoin, break_early_join
from repro.fuzz.oracle import OracleConfig, run_oracle

FAST = OracleConfig(cycles=48, check_gates=False,
                    check_verify=False)


def _ee_model(name="eeunit", p_valid=0.5):
    """One OR-causality early join fed by two unreliable sources."""
    return SpecModel(
        name,
        sources=[SourceModel("src0", p_valid=p_valid),
                 SourceModel("src1", p_valid=p_valid)],
        sinks=[SinkModel("snk0")],
        blocks=[BlockModel("b0", n_inputs=2, ee="thr:1")],
        connections=[
            ConnModel(("source", "src0", "out"), ("block", "b0", "in0")),
            ConnModel(("source", "src1", "out"), ("block", "b0", "in1")),
            ConnModel(("block", "b0", "out0"), ("sink", "snk0", "in")),
        ],
    )


class TestCleanSpecs:
    def test_generated_spec_passes_all_stages(self):
        model = generate_model(random.Random("oracle:1"),
                               GeneratorConfig(max_blocks=8), name="ok")
        config = OracleConfig(cycles=48, verify_max_inputs=4,
                              verify_max_states=5_000)
        assert run_oracle(model, seed=0, config=config) is None

    def test_early_join_unit_passes(self):
        assert run_oracle(_ee_model(), seed=0, config=FAST) is None

    def test_full_pipeline_on_ee_unit(self):
        config = OracleConfig(cycles=64, verify_max_inputs=6,
                              verify_max_states=50_000)
        assert run_oracle(_ee_model(), seed=0, config=config) is None


class TestCtlMemory:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak RSS from /proc")
    def test_ctl_stage_memory_follows_sequential_states(self):
        """``fuzz2007_0035`` explores 1,313 sequential states x 64 input
        vectors; rows per sequential state keep the oracle call in tens
        of MB, where one node per (state, input) pair took ~1 GB.

        The child reports ``VmHWM``, the peak RSS of its own address
        space: Linux carries the pre-exec peak of the forked test
        process into the child's ``ru_maxrss``.
        """
        script = (
            "import random\n"
            "from repro.fuzz import GeneratorConfig, generate_model\n"
            "from repro.fuzz.oracle import run_oracle\n"
            "model = generate_model(random.Random('fuzz:2007:35'),\n"
            "    GeneratorConfig(max_blocks=8), name='fuzz2007_0035')\n"
            "assert run_oracle(model, seed=2007) is None\n"
            "print(open('/proc/self/status').read())\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout
        peak_kb = next(int(line.split()[1]) for line in out.splitlines()
                       if line.startswith("VmHWM:"))
        assert peak_kb < 200 * 1024


class TestBuildOnce:
    def test_gate_stages_share_one_elaboration_and_module(
        self, tmp_path, monkeypatch
    ):
        import repro.synthesis.elaborate as elaborate
        import repro.verif.kripke as kripke
        from repro.codegen.cache import BuildCache
        from repro.obs import MetricsRegistry

        calls = {"to_gates": 0, "build_kripke": 0}

        def counted(module, name):
            real = getattr(module, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        counted(elaborate, "to_gates")
        counted(kripke, "build_kripke")
        registry = MetricsRegistry()
        config = OracleConfig(
            cycles=48, cache=BuildCache(tmp_path / "c", metrics=registry)
        )
        assert run_oracle(_ee_model(), seed=0, config=config) is None
        assert calls == {"to_gates": 1, "build_kripke": 1}

        def modules(series):
            return {
                c.labels: c.value for c in registry.series(series)
                if ("kind", "module") in c.labels
            }

        # The differential compiles the module; the Kripke builder
        # loads it from the memory tier.
        assert modules("codegen_cache_misses_total") == {
            (("kind", "module"), ("tier", "disk")): 1
        }
        assert modules("codegen_cache_hits_total") == {
            (("kind", "module"), ("tier", "memory")): 1
        }


class TestStages:
    def test_build_stage_finding(self):
        model = SpecModel("broken", blocks=[BlockModel("b0", n_inputs=2,
                                                       ee="magic:1")])
        finding = run_oracle(model, seed=0, config=FAST)
        assert finding is not None
        assert finding.stage == "build"

    def test_lint_stage_finding(self):
        # A capacity-1 loop with a token and no bubble: builds, but the
        # spec lint flags the zero-spare cycle.
        model = SpecModel(
            "stuck",
            sources=[SourceModel("src0")], sinks=[SinkModel("snk0")],
            blocks=[BlockModel("b0", n_inputs=2, n_outputs=2)],
            registers=[RegisterModel("r0", capacity=1, initial_tokens=1)],
            connections=[
                ConnModel(("source", "src0", "out"), ("block", "b0", "in0")),
                ConnModel(("block", "b0", "out0"), ("register", "r0", "in")),
                ConnModel(("register", "r0", "out"), ("block", "b0", "in1")),
                ConnModel(("block", "b0", "out1"), ("sink", "snk0", "in")),
            ],
        )
        finding = run_oracle(model, seed=0, config=FAST)
        assert finding is not None
        assert finding.stage == "lint"
        assert "ELX005" in finding.detail

    def test_finding_serialises(self):
        model = SpecModel("broken", blocks=[BlockModel("b0", n_inputs=2,
                                                       ee="magic:1")])
        finding = run_oracle(model, seed=0, config=FAST)
        d = finding.to_dict()
        assert d["spec"] == "broken"
        assert d["stage"] == "build"
        assert str(finding).startswith("broken [build]")


class TestSeededBugs:
    def test_broken_early_join_is_caught(self):
        finding = run_oracle(_ee_model(), seed=0, config=FAST,
                             mutate=MUTATIONS["broken-early-join"])
        assert finding is not None
        assert finding.stage == "behavioral"
        assert "invariant" in finding.detail or "Retry" in finding.detail

    def test_gate_level_protocol_bug_is_caught(self, monkeypatch):
        # S- of the sink channel wired to its V+: scalar and compiled
        # agree, and the word-wide monitors on the compiled lane flag
        # equation (2) in the protocol stage.
        import repro.synthesis.elaborate as elaborate
        from repro.rtl.netlist import Gate

        real = elaborate.to_gates

        def planted(spec, **kwargs):
            elab = real(spec, **kwargs)
            elab.netlist.gates["b0->snk0.sn"] = Gate(
                "b0->snk0.sn", "BUF", ("b0->snk0.vp",)
            )
            return elab

        monkeypatch.setattr(elaborate, "to_gates", planted)
        finding = run_oracle(_ee_model(), seed=0,
                             config=OracleConfig(cycles=48,
                                                 check_verify=False))
        assert finding is not None
        assert finding.stage == "protocol"
        assert finding.detail == (
            "cycle 0: invariant[b0->snk0]: V+ and S- both asserted"
        )

    def test_mutation_patches_every_early_join(self):
        from repro.synthesis.elaborate import to_behavioral

        net = to_behavioral(_ee_model().build(), seed=0)
        assert break_early_join(net) == 1
        assert any(type(c) is BrokenEarlyJoin for c in net.controllers)

    def test_mutation_leaves_plain_joins_alone(self):
        from repro.synthesis.elaborate import to_behavioral

        model = SpecModel(
            "plain",
            sources=[SourceModel("src0"), SourceModel("src1")],
            sinks=[SinkModel("snk0")],
            blocks=[BlockModel("b0", n_inputs=2)],
            connections=[
                ConnModel(("source", "src0", "out"), ("block", "b0", "in0")),
                ConnModel(("source", "src1", "out"), ("block", "b0", "in1")),
                ConnModel(("block", "b0", "out0"), ("sink", "snk0", "in")),
            ],
        )
        net = to_behavioral(model.build(), seed=0)
        assert break_early_join(net) == 0
        assert run_oracle(model, seed=0, config=FAST,
                          mutate=break_early_join) is None


class TestDeterminism:
    def test_same_seed_same_finding(self):
        mutate = MUTATIONS["broken-early-join"]
        a = run_oracle(_ee_model(), seed=3, config=FAST, mutate=mutate)
        b = run_oracle(_ee_model(), seed=3, config=FAST, mutate=mutate)
        assert a.to_dict() == b.to_dict()


class TestRetryDataPersistence:
    """Regression for the bug the fuzzer found in EarlyJoin: a late
    operand arriving while the output is stalled in Retry+ must not
    change the offered payload (SELF persistence)."""

    def test_stalled_early_join_holds_its_payload(self):
        model = _ee_model("retrydata")
        model.sinks[0].p_stop = 0.5  # provoke Retry+ stalls
        assert run_oracle(model, seed=7, config=FAST) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_ee_specs_hold_payloads(self, seed):
        cfg = GeneratorConfig(max_blocks=10, p_join=0.8, p_early=1.0,
                              sink_p_stop=(0.25, 0.5),
                              source_p_valid=(0.5, 0.75))
        model = generate_model(random.Random(f"retry:{seed}"), cfg,
                               name=f"retry{seed}")
        assert run_oracle(model, seed=seed, config=FAST) is None
