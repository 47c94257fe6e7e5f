"""Tests for the DMG abstraction of system specs."""

from fractions import Fraction
from pathlib import Path

import pytest

from repro.casestudy.fig9 import Config, build_fig9_spec
from repro.cli import main
from repro.core.analysis import critical_cycle_arcs
from repro.core.mg import MarkedGraph
from repro.synthesis.abstraction import check_liveness, spec_to_dmg, throughput_bound
from repro.synthesis.elaborate import to_behavioral
from repro.synthesis.spec import SystemSpec

GOLDEN = Path(__file__).parent / "golden"


def ring_spec(initial_tokens=1):
    """source -> R1 -> B -> R2 -> sink, plus a feedback via R3."""
    spec = SystemSpec("ring")
    spec.add_source("P")
    spec.add_sink("C")
    spec.add_block("B", n_inputs=2, n_outputs=2)
    spec.add_register("R1")
    spec.add_register("R2")
    spec.add_register("R3", initial_tokens=initial_tokens)
    spec.connect(spec.source("P"), spec.register_in("R1"))
    spec.connect(spec.register_out("R1"), spec.block_in("B", 0))
    spec.connect(spec.register_out("R3"), spec.block_in("B", 1))
    spec.connect(spec.block_out("B", 0), spec.register_in("R2"))
    spec.connect(spec.block_out("B", 1), spec.register_in("R3"))
    spec.connect(spec.register_out("R2"), spec.sink("C"))
    spec.validate()
    return spec


class TestSpecToDmg:
    def test_nodes_cover_everything(self):
        g, _ = spec_to_dmg(ring_spec())
        assert set(g.nodes) == {"P", "C", "B", "R1", "R2", "R3"}

    def test_latencies(self):
        """A forward arc carries its source's latency; no other arc
        (capacity or environment closure) has a delay."""
        spec = ring_spec()
        _, delays = spec_to_dmg(spec)
        assert set(delays) == {c.name for c in spec.connections}
        assert delays["R1->B"] == 1 and delays["B->R2"] == 0
        assert delays["P->R1"] == 0

    def test_vl_latency_from_mean(self):
        spec = build_fig9_spec(Config.ACTIVE)
        g, delays = spec_to_dmg(spec, mean_latency={"M1": 3.6, "M2": 1.5})

        def leaving(node):
            return {delays[a.name] for a in g.arcs
                    if a.src == node and a.name in delays}

        assert leaving("M1") == {4} and leaving("M2") == {2}

    def test_register_tokens_on_forward_arc(self):
        g, _ = spec_to_dmg(ring_spec())
        m0 = g.initial_marking
        assert m0["R3->B"] == 1
        assert m0["~R3->B"] == 1  # spare EB capacity

    def test_early_nodes_marked(self):
        g, _ = spec_to_dmg(build_fig9_spec(Config.ACTIVE))
        assert "W" in g.early_nodes
        g2, _ = spec_to_dmg(build_fig9_spec(Config.LAZY))
        assert not g2.early_nodes

    def test_environment_closure_makes_strongly_connected(self):
        g, _ = spec_to_dmg(ring_spec())
        assert g.is_strongly_connected()


class TestLiveness:
    def test_tokenised_ring_is_live(self):
        assert check_liveness(ring_spec(initial_tokens=1))

    def test_empty_ring_is_dead(self):
        assert not check_liveness(ring_spec(initial_tokens=0))

    def test_fig9_is_live(self):
        for config in Config:
            assert check_liveness(build_fig9_spec(config))


class TestThroughputBound:
    def test_bound_is_fraction(self):
        b = throughput_bound(ring_spec())
        assert isinstance(b, Fraction)
        assert 0 < b <= 1

    def test_fig9_bound_dominates_lazy_simulation(self):
        bound = float(
            throughput_bound(
                build_fig9_spec(Config.LAZY),
                mean_latency={"M1": 3.6, "M2": 1.5},
            )
        )
        net = to_behavioral(build_fig9_spec(Config.LAZY, seed=4), seed=4)
        net.run(4000)
        measured = net.throughput("Din->S")
        assert measured <= bound + 0.01
        assert measured >= 0.7 * bound  # the bound is tight, not vacuous

    def test_early_evaluation_beats_the_lazy_bound(self):
        """The point of the paper: E-enabled systems can exceed the
        conventional minimum-cycle-ratio bound."""
        bound = float(
            throughput_bound(
                build_fig9_spec(Config.ACTIVE),
                mean_latency={"M1": 3.6, "M2": 1.5},
            )
        )
        net = to_behavioral(build_fig9_spec(Config.ACTIVE, seed=4), seed=4)
        net.run(4000)
        assert net.throughput("Din->S") > bound


class TestCriticalCycleArcs:
    def test_arc_delay_model(self):
        g = MarkedGraph()
        g.add_arc("a", "b", tokens=1, name="fwd")
        g.add_arc("b", "a", tokens=0, name="bwd")
        assert critical_cycle_arcs(g, {"fwd": 3, "bwd": 0}) == (
            Fraction(1, 3), ("bwd", "fwd"))

    def test_zero_delay_cycles_skipped(self):
        g = MarkedGraph()
        g.add_arc("a", "b", tokens=1, name="f")
        g.add_arc("b", "a", tokens=1, name="g")
        with pytest.raises(ValueError):
            critical_cycle_arcs(g, {})


@pytest.mark.parametrize(
    "config", ["active", "no_buffer", "passive_f3w", "passive_m2w", "lazy"]
)
def test_repro_bound_matches_golden(config, capsys):
    """``repro bound --config C``, byte for byte (CI ``cmp``s it too)."""
    assert main(["bound", "--config", config]) == 0
    golden = (GOLDEN / f"bound-{config}.txt").read_text()
    assert capsys.readouterr().out == golden
