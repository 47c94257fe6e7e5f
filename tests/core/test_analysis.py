"""Tests for the (D)MG analyses of Sect. 2.2."""

from fractions import Fraction

import pytest

from repro.core.analysis import (
    cycle_token_sums,
    firing_count_vector,
    is_live,
    max_throughput,
    reachable_markings,
    verify_repetitive_behavior,
)
from repro.core.dmg import DualMarkedGraph, FiringEvent, Enabling, fig1_dmg
from repro.core.mg import MarkedGraph, linear_pipeline


class TestCycleSums:
    def test_fig1_every_cycle_holds_one_token(self):
        sums = cycle_token_sums(fig1_dmg())
        assert len(sums) == 3
        assert set(sums.values()) == {1}

    def test_sums_at_alternate_marking(self):
        g = fig1_dmg()
        m = g.fire("n2", g.initial_marking)
        assert set(cycle_token_sums(g, m).values()) == {1}


class TestTokenPreservation:
    def test_holds_along_random_walk(self):
        g = fig1_dmg()
        sums = cycle_token_sums(g)
        m = g.initial_marking
        import random

        rng = random.Random(3)
        for _ in range(100):
            ev = rng.choice(g.enabled_events(m))
            m = g.apply_firing(ev.node, m)
            assert cycle_token_sums(g, m) == sums

    def test_detects_corrupted_marking(self):
        g = fig1_dmg()
        bad = g.initial_marking
        bad["n1->n2"] += 1
        assert cycle_token_sums(g, bad) != cycle_token_sums(g)


class TestLiveness:
    def test_fig1_is_live(self):
        assert is_live(fig1_dmg())

    def test_empty_cycle_is_dead(self):
        g = MarkedGraph()
        g.add_arc("a", "b", tokens=0)
        g.add_arc("b", "a", tokens=0)
        assert not is_live(g)

    def test_requires_strong_connectivity(self):
        g = MarkedGraph()
        g.add_arc("a", "b", tokens=1)
        with pytest.raises(ValueError):
            is_live(g)


class TestThroughputBound:
    def test_single_ring(self):
        g = MarkedGraph()
        g.add_arc("a", "b", tokens=1)
        g.add_arc("b", "a", tokens=0)
        assert max_throughput(g) == Fraction(1, 2)

    def test_latencies_slow_the_bound(self):
        g = MarkedGraph()
        g.add_arc("a", "b", tokens=1)
        g.add_arc("b", "a", tokens=0)
        assert max_throughput(g, latency={"b": 3}) == Fraction(1, 4)

    def test_min_over_cycles(self):
        g = fig1_dmg()
        assert max_throughput(g) == Fraction(1, 4)

    def test_pipeline_bound_is_capacity_limited(self):
        g = linear_pipeline(4, tokens_at=[0])
        # backward arcs carry the spare capacity; min ratio = 1/4
        assert max_throughput(g) == Fraction(1, 4)

    def test_acyclic_graph_raises(self):
        g = MarkedGraph()
        g.add_arc("a", "b")
        with pytest.raises(ValueError):
            max_throughput(g)


class TestReachability:
    def test_ring_reachable_markings(self):
        g = MarkedGraph()
        g.add_arc("a", "b", tokens=1, name="ab")
        g.add_arc("b", "a", tokens=0, name="ba")
        markings = reachable_markings(g)
        assert len(markings) == 2

    def test_limit_enforced(self):
        g = fig1_dmg()  # DMG: infinite state space via N-firing pumps
        with pytest.raises(RuntimeError):
            reachable_markings(g, limit=50)

    def test_plain_mg_restriction_is_finite(self):
        g = fig1_dmg()
        mg = MarkedGraph()
        for arc in g.arcs:
            mg.add_arc(arc.src, arc.dst, tokens=g.initial_marking[arc.name], name=arc.name)
        markings = reachable_markings(mg, limit=10_000)
        assert 3 < len(markings) < 10_000


class TestRepetitiveBehavior:
    def test_fig1_repetitive(self):
        assert verify_repetitive_behavior(fig1_dmg(), steps=150, trials=10)

    def test_firing_count_vector(self):
        trace = [
            FiringEvent("a", Enabling.POSITIVE),
            FiringEvent("a", Enabling.NEGATIVE),
            FiringEvent("b", Enabling.EARLY),
        ]
        counts = firing_count_vector(trace)
        assert counts == {"a": 2, "b": 1}
