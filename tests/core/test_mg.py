"""Unit tests for marked graphs (Sect. 2 of the paper)."""

import pytest

from repro.core.mg import Arc, MarkedGraph, linear_pipeline


@pytest.fixture
def ring2():
    g = MarkedGraph()
    g.add_arc("a", "b", tokens=1, name="ab")
    g.add_arc("b", "a", tokens=0, name="ba")
    return g


class TestConstruction:
    def test_nodes_in_insertion_order(self, ring2):
        assert ring2.nodes == ("a", "b")

    def test_add_node_idempotent(self):
        g = MarkedGraph()
        g.add_node("x")
        g.add_node("x")
        assert g.nodes == ("x",)

    def test_arc_endpoints_created(self):
        g = MarkedGraph()
        g.add_arc("p", "q")
        assert set(g.nodes) == {"p", "q"}

    def test_duplicate_arc_name_rejected(self):
        g = MarkedGraph()
        g.add_arc("a", "b", name="x")
        with pytest.raises(ValueError):
            g.add_arc("b", "a", name="x")

    def test_auto_names_unique_for_parallel_arcs(self):
        g = MarkedGraph()
        a1 = g.add_arc("a", "b")
        a2 = g.add_arc("a", "b")
        assert a1.name != a2.name

    def test_initial_marking_is_a_copy(self, ring2):
        m = ring2.initial_marking
        m["ab"] = 99
        assert ring2.initial_marking["ab"] == 1

    def test_arc_lookup(self, ring2):
        assert ring2.arc("ab") == Arc("ab", "a", "b")

    def test_preset_postset(self, ring2):
        assert ring2.preset("b") == ("ab",)
        assert ring2.postset("b") == ("ba",)

    def test_repr_mentions_counts(self, ring2):
        assert "nodes=2" in repr(ring2)


class TestEnablingAndFiring:
    def test_enabled_when_all_inputs_marked(self, ring2):
        assert ring2.enabled("b", ring2.initial_marking)
        assert not ring2.enabled("a", ring2.initial_marking)

    def test_fire_moves_token(self, ring2):
        m = ring2.fire("b", ring2.initial_marking)
        assert m == {"ab": 0, "ba": 1}

    def test_fire_disabled_raises(self, ring2):
        with pytest.raises(ValueError):
            ring2.fire("a", ring2.initial_marking)

    def test_fire_does_not_mutate_argument(self, ring2):
        m0 = ring2.initial_marking
        ring2.fire("b", m0)
        assert m0 == ring2.initial_marking

    def test_self_loop_keeps_token(self):
        g = MarkedGraph()
        g.add_arc("n", "n", tokens=1, name="loop")
        m = g.fire("n", g.initial_marking)
        assert m["loop"] == 1

    def test_fire_sequence(self, ring2):
        m = ring2.fire_sequence(["b", "a"])
        assert m == ring2.initial_marking

    def test_enabled_nodes(self, ring2):
        assert ring2.enabled_nodes(ring2.initial_marking) == ["b"]

    def test_marking_of_sums_subset(self, ring2):
        assert ring2.marking_of(ring2.initial_marking, ["ab", "ba"]) == 1


class TestStructure:
    def test_strongly_connected(self, ring2):
        assert ring2.is_strongly_connected()

    def test_not_strongly_connected(self):
        g = MarkedGraph()
        g.add_arc("a", "b")
        assert not g.is_strongly_connected()

    def test_simple_cycles_of_ring(self, ring2):
        cycles = ring2.simple_cycles()
        assert len(cycles) == 1
        assert sorted(cycles[0]) == ["ab", "ba"]

    def test_parallel_arcs_yield_multiple_cycles(self):
        g = MarkedGraph()
        g.add_arc("a", "b", name="x1")
        g.add_arc("a", "b", name="x2")
        g.add_arc("b", "a", name="back")
        cycles = g.simple_cycles()
        assert len(cycles) == 2


class TestLinearPipeline:
    def test_structure(self):
        g = linear_pipeline(4)
        assert len(g.nodes) == 4
        assert len(g.arcs) == 8

    def test_default_single_token(self):
        g = linear_pipeline(3)
        fwd = sum(g.initial_marking[f"fwd{i}"] for i in range(3))
        assert fwd == 1

    def test_capacity_two_invariant(self):
        g = linear_pipeline(3, tokens_at=[0, 2])
        for i in range(3):
            assert g.initial_marking[f"fwd{i}"] + g.initial_marking[f"bwd{i}"] == 2

    def test_zero_stages_rejected(self):
        with pytest.raises(ValueError):
            linear_pipeline(0)

    def test_pipeline_is_live_ring(self):
        g = linear_pipeline(5, tokens_at=[0, 2, 4])
        m = g.initial_marking
        # every node can eventually fire: run a long greedy schedule
        for _ in range(100):
            enabled = g.enabled_nodes(m)
            assert enabled, "pipeline deadlocked"
            m = g.fire(enabled[0], m)
