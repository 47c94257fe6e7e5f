"""Spec-level shrinking: ddmin over blocks/registers with re-repair."""

import random

import pytest

from repro.fuzz.generate import GeneratorConfig, generate_model
from repro.fuzz.model import (
    BlockModel,
    ConnModel,
    SinkModel,
    SourceModel,
    SpecModel,
)
from repro.fuzz.mutations import MUTATIONS
from repro.fuzz.oracle import OracleConfig, run_oracle
from repro.fuzz.shrink import prune_stubs, remove_components, shrink_model

FAST = OracleConfig(cycles=48, check_gates=False,
                    check_verify=False)


def _ee_predicate(seed=0):
    mutate = MUTATIONS["broken-early-join"]

    def fails(model):
        finding = run_oracle(model, seed=seed, config=FAST, mutate=mutate)
        return finding is not None and finding.stage == "behavioral"

    return fails


class TestRemoveComponents:
    def test_bridges_one_in_one_out_block(self):
        model = SpecModel(
            "bridge",
            sources=[SourceModel("src0")], sinks=[SinkModel("snk0")],
            blocks=[BlockModel("b0"), BlockModel("b1")],
            connections=[
                ConnModel(("source", "src0", "out"), ("block", "b0", "in0")),
                ConnModel(("block", "b0", "out0"), ("block", "b1", "in0")),
                ConnModel(("block", "b1", "out0"), ("sink", "snk0", "in")),
            ],
        )
        smaller = remove_components(model, ["b0"])
        assert [b.name for b in smaller.blocks] == ["b1"]
        # src0 now feeds b1 directly.
        assert any(c.src == ("source", "src0", "out")
                   and c.dst == ("block", "b1", "in0")
                   for c in smaller.connections)

    def test_unmatched_ports_left_dangling(self):
        model = SpecModel(
            "dangle",
            sources=[SourceModel("src0"), SourceModel("src1")],
            sinks=[SinkModel("snk0")],
            blocks=[BlockModel("b0", n_inputs=2, n_outputs=1)],
            connections=[
                ConnModel(("source", "src0", "out"), ("block", "b0", "in0")),
                ConnModel(("source", "src1", "out"), ("block", "b0", "in1")),
                ConnModel(("block", "b0", "out0"), ("sink", "snk0", "in")),
            ],
        )
        smaller = remove_components(model, ["b0"])
        assert smaller.blocks == []
        # 2-in/1-out: one bridge (src0 -> snk0), src1 left dangling.
        assert sum(1 for c in smaller.connections) == 1


class TestPruneStubs:
    def test_direct_source_sink_chains_removed(self):
        model = SpecModel(
            "stubs",
            sources=[SourceModel("src0"), SourceModel("src1")],
            sinks=[SinkModel("snk0"), SinkModel("snk1")],
            blocks=[BlockModel("b0")],
            connections=[
                ConnModel(("source", "src0", "out"), ("sink", "snk0", "in")),
                ConnModel(("source", "src1", "out"), ("block", "b0", "in0")),
                ConnModel(("block", "b0", "out0"), ("sink", "snk1", "in")),
            ],
        )
        pruned = prune_stubs(model)
        assert [s.name for s in pruned.sources] == ["src1"]
        assert [s.name for s in pruned.sinks] == ["snk1"]
        assert len(pruned.connections) == 2


class TestShrinkModel:
    def test_requires_a_failing_model(self):
        model = generate_model(random.Random("sm:0"),
                               GeneratorConfig(max_blocks=4))
        with pytest.raises(ValueError, match="does not fail"):
            shrink_model(model, lambda m: False)

    def test_shrinks_to_the_guilty_join(self):
        cfg = GeneratorConfig(max_blocks=16, min_blocks=8, p_join=0.9,
                              p_early=1.0, p_vl=0.0, p_kill_sink=0.0,
                              source_p_valid=(0.5, 0.75))
        fails = _ee_predicate()
        model = None
        for trial in range(30):
            candidate = generate_model(
                random.Random(f"shrinkdemo:{trial}"), cfg,
                name=f"sd{trial}")
            if fails(candidate):
                model = candidate
                break
        assert model is not None, "mutated EE spec never failed"
        shrunk = shrink_model(model, fails)
        assert fails(shrunk), "shrunk model must still fail"
        assert len(shrunk.blocks) <= 6
        assert len(shrunk.blocks) < len(model.blocks)
        # The surviving block is an early join (the planted bug's host).
        assert any(b.ee is not None for b in shrunk.blocks)

    def test_shrink_is_deterministic(self):
        fails = _ee_predicate()
        cfg = GeneratorConfig(max_blocks=12, min_blocks=6, p_join=0.9,
                              p_early=1.0, p_vl=0.0, p_kill_sink=0.0,
                              source_p_valid=(0.5,))
        model = None
        for trial in range(30):
            candidate = generate_model(
                random.Random(f"det:{trial}"), cfg, name=f"det{trial}")
            if fails(candidate):
                model = candidate
                break
        assert model is not None
        a = shrink_model(model, fails)
        b = shrink_model(model.clone(), fails)
        assert a.to_json() == b.to_json()

    def test_flaky_predicate_keeps_last_confirmed(self):
        model = generate_model(random.Random("flaky:1"),
                               GeneratorConfig(max_blocks=6), name="flaky")
        calls = {"n": 0}

        def fails(candidate):
            calls["n"] += 1
            if calls["n"] == 1:
                return True
            raise RuntimeError("replay infrastructure fell over")

        shrunk = shrink_model(model, fails)
        # Nothing was confirmed smaller, so the original survives
        # (modulo the always-valid stub pruning).
        assert len(shrunk.blocks) == len(model.blocks)
