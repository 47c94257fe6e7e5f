"""The one cycle ranking against the per-function reference loops.

``max_throughput``, ``critical_cycle_arcs``, ``throughput_bound`` and
``sizing.critical_cycles`` all read one ranking of a graph's
positive-delay simple cycles, ordered by (M0/D, length, canonical
arcs).  The loops each of them used to run are kept in
``tests/core/cycle_reference.py``; the properties here hold the ranking
equal to them on random ring-of-rings DMGs and on the DMG abstractions
of random specs.
"""

import itertools

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.casestudy.fig9 import MEAN_LATENCY, Config, build_fig9_spec
from repro.core.analysis import critical_cycle_arcs, max_throughput
from repro.synthesis.abstraction import spec_to_dmg, throughput_bound
from repro.synthesis.sizing import critical_cycles
from tests.core import cycle_reference as ref
from tests.strategies import ring_of_rings_dmg, spec_models

#: Specs whose abstraction has more simple cycles than this are skipped
#: (the environment closure multiplies them; enumeration dominates).
MAX_CYCLES = 400


def outcome(fn, *args):
    """``fn(*args)``, or the ``ValueError`` marker when it raises one."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def ranking(graph, delays):
    """The reference cycles ordered by (ratio, length, canonical arcs)."""
    keyed = [
        (ratio, len(cycle), ref.canonical_rotation(tuple(cycle)))
        for ratio, cycle in ref.rated_cycles(graph, delays)
    ]
    return [(ratio, list(arcs)) for ratio, _, arcs in sorted(keyed)]


@st.composite
def latency_maps(draw, names):
    """Per-name delays in 0..3; absent names take the callee's default."""
    chosen = draw(st.lists(st.sampled_from(sorted(names)), unique=True))
    return {n: draw(st.integers(0, 3)) for n in chosen}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_ring_of_rings_matches_reference(data):
    g = data.draw(ring_of_rings_dmg())
    latency = data.draw(latency_maps(g.nodes))
    arc_delay = data.draw(latency_maps([a.name for a in g.arcs]))
    assert outcome(max_throughput, g, latency) == outcome(
        ref.max_throughput, g, latency)
    assert outcome(max_throughput, g) == outcome(ref.max_throughput, g)
    assert outcome(critical_cycle_arcs, g, arc_delay) == outcome(
        ref.critical_cycle_arcs, g, arc_delay)


def few_cycles(graph):
    """True when ``graph`` has at most ``MAX_CYCLES`` node cycles."""
    cycles = nx.simple_cycles(nx.DiGraph(graph.to_networkx()))
    return len(list(itertools.islice(cycles, MAX_CYCLES + 1))) <= MAX_CYCLES


@given(spec_models(max_blocks=6), st.data())
@settings(max_examples=60, deadline=None)
def test_spec_abstraction_matches_reference(model, data):
    spec = model.build()
    vl = sorted(b.name for b in spec.blocks.values() if b.latency is not None)
    mean = {n: data.draw(st.floats(0.5, 5.0)) for n in vl} or None
    graph, delays = spec_to_dmg(spec, mean)
    assume(few_cycles(graph))
    expected = ref.spec_delays(graph, spec, mean)
    assert delays == expected
    assert outcome(throughput_bound, spec, mean) == outcome(
        ref.max_throughput_arcs, graph, expected)
    assert outcome(critical_cycle_arcs, graph, delays) == outcome(
        ref.critical_cycle_arcs, graph, expected)
    top = data.draw(st.integers(1, 50))
    ranked = critical_cycles(spec, mean, top=top)
    assert [r for r, _ in ranked] == [
        r for r, _ in ref.rated_cycles(graph, expected)[:top]]
    assert ranked == ranking(graph, expected)[:top]


CASES = [
    (config, mean)
    for config in Config
    for mean in (None, MEAN_LATENCY)
]


@pytest.mark.parametrize(
    "config,mean", CASES,
    ids=[f"{c.name.lower()}-{'mean' if m else 'unit'}" for c, m in CASES],
)
def test_fig9_critical_cycles_follow_the_ranking(config, mean):
    """The one output change: equal-ratio cycles in the ranking's order.

    ``critical_cycles`` used to list equal-ratio cycles in networkx
    order and raw rotation; it now lists the ranking, whose head is
    ``critical_cycle_arcs`` and ``throughput_bound``.  The ratios, and
    the first entry, are the reference's.
    """
    spec = build_fig9_spec(config)
    graph, delays = spec_to_dmg(spec, mean)
    expected = ref.spec_delays(graph, spec, mean)
    ranked = critical_cycles(spec, mean, top=1000)
    reference = ref.rated_cycles(graph, expected)
    assert ranked == ranking(graph, expected)
    assert [r for r, _ in ranked] == [r for r, _ in reference]
    assert ranked[0] == (reference[0][0], list(
        ref.canonical_rotation(tuple(reference[0][1]))))
    assert ranked[0][0] == throughput_bound(spec, mean)
    assert (ranked[0][0], tuple(ranked[0][1])) == critical_cycle_arcs(
        graph, delays)
