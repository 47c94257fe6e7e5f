"""Property-based tests on DMG invariants (hypothesis).

The three algebraic properties of Sect. 2.2 must hold on *arbitrary*
strongly connected dual marked graphs under *arbitrary* interleavings:
token preservation per cycle, deadlock-freedom of live graphs, and
repetitive behaviour (equal firing counts restore the marking).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.analysis import cycle_token_sums
from tests.strategies import ring_of_rings_dmg


@given(ring_of_rings_dmg(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_token_preservation_under_random_firing(g, seed):
    cycles = g.simple_cycles()
    sums0 = [g.marking_of(g.initial_marking, c) for c in cycles]
    _, m = g.random_firing_sequence(60, rng=random.Random(seed))
    assert [g.marking_of(m, c) for c in cycles] == sums0


@given(ring_of_rings_dmg(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_live_dmg_never_deadlocks(g, seed):
    # random_firing_sequence raises RuntimeError on deadlock
    g.random_firing_sequence(80, rng=random.Random(seed))


@given(ring_of_rings_dmg(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_equal_firing_counts_restore_marking(g, seed):
    """Repetitive behaviour, regardless of P/N/E firing kinds."""
    from collections import Counter

    rng = random.Random(seed)
    m = g.initial_marking
    counts = Counter()
    nodes = set(g.nodes)
    for _ in range(120):
        events = g.enabled_events(m)
        assert events
        ev = rng.choice(events)
        m = g.apply_firing(ev.node, m)
        counts[ev.node] += 1
        if set(counts) == nodes and len(set(counts.values())) == 1:
            assert m == g.initial_marking


@given(ring_of_rings_dmg())
@settings(max_examples=40, deadline=None)
def test_cycle_sums_all_positive_for_live_graphs(g):
    assert all(v >= 1 for v in cycle_token_sums(g).values())


@given(
    st.lists(st.sampled_from(["n2", "n1", "n7", "n3", "n5"]), max_size=25),
)
@settings(max_examples=80, deadline=None)
def test_fig1_firing_rule_matches_equation_1(sequence):
    """apply_firing implements equation (1): +1 out, -1 in, net on loops."""
    from repro.core.dmg import fig1_dmg

    g = fig1_dmg()
    m = g.initial_marking
    for node in sequence:
        before = dict(m)
        m = g.apply_firing(node, m)
        pre, post = set(g.preset(node)), set(g.postset(node))
        for arc in g.arcs:
            delta = m[arc.name] - before[arc.name]
            if arc.name in pre and arc.name not in post:
                assert delta == -1
            elif arc.name in post and arc.name not in pre:
                assert delta == 1
            else:
                assert delta == 0
