"""Cycle facts against the enumerating reference.

``critical_cycle_arcs`` (hence ``max_throughput`` and
``throughput_bound``) and ``is_live`` decide their answers by a
parametric Bellman--Ford search without listing cycles;
``sizing.critical_cycles`` ranks the cycles ``simple_cycles()`` lists,
ordered by (M0/D, length, canonical arcs).  The networkx enumeration
and the loops each of them used to run are kept in
``tests/core/cycle_reference.py``; the properties here hold the search,
the walk and the ranking equal to them on random multigraphs, on
random ring-of-rings DMGs and on the DMG abstractions of random specs.
"""

import itertools
import signal

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.casestudy.fig9 import MEAN_LATENCY, Config, build_fig9_spec
from repro.core.analysis import critical_cycle_arcs, is_live, max_throughput
from repro.core.mg import CYCLE_BUDGET, MarkedGraph, TooManyCycles
from repro.synthesis.abstraction import (
    check_liveness,
    spec_to_dmg,
    throughput_bound,
)
from repro.synthesis.sizing import critical_cycles
from tests.core import cycle_reference as ref
from tests.strategies import ring_of_rings_dmg, spec_model, spec_models

#: Specs whose abstraction has more simple cycles than this are not
#: compared with the reference (the environment closure multiplies
#: them; enumeration dominates).
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


@st.composite
def multigraphs(draw, min_tokens=0):
    """A graph of 1-6 nodes and up to 12 arcs, with its arc delays.

    Parallel arcs, self-loops and zero delays all occur; tokens range
    over ``min_tokens..3`` and delays over 0..3.  Arc names are a
    shuffle of the insertion order, so canonical rotations and the
    tie-break do not follow it.
    """
    n = draw(st.integers(1, 6))
    ends = st.integers(0, n - 1)
    specs = draw(st.lists(
        st.tuples(ends, ends, st.integers(min_tokens, 3), st.integers(0, 3)),
        max_size=12,
    ))
    names = draw(st.permutations(range(len(specs))))
    g = MarkedGraph()
    for i in range(n):
        g.add_node(f"v{i}")
    delays = {}
    for (src, dst, tokens, delay), name in zip(specs, names):
        arc = g.add_arc(f"v{src}", f"v{dst}", tokens=tokens, name=f"a{name}")
        delays[arc.name] = delay
    return g, delays


def canonical_cycles(cycles):
    return sorted(ref.canonical_rotation(tuple(c)) for c in cycles)


@given(multigraphs(), st.data())
@settings(max_examples=400, deadline=None)
def test_multigraph_facts_match_reference(case, data):
    g, delays = case
    latency = data.draw(latency_maps(g.nodes))
    assert outcome(critical_cycle_arcs, g, delays) == outcome(
        ref.critical_cycle_arcs, g, delays)
    assert outcome(max_throughput, g, latency) == outcome(
        ref.max_throughput, g, latency)
    assert g.is_strongly_connected() == ref.is_strongly_connected(g)
    assert outcome(is_live, g) == outcome(ref.is_live, g)
    # Each cycle once, already in canonical rotation.
    assert sorted(map(tuple, g.simple_cycles())) == canonical_cycles(
        ref.simple_cycles(g))


@given(multigraphs(min_tokens=-3))
@settings(max_examples=400, deadline=None)
def test_negative_markings_match_reference(case):
    """Liveness agrees; the bound differs only on a zero-delay cycle
    with a negative token sum, which the search rejects and the
    reference skips."""
    g, delays = case
    assert outcome(is_live, g) == outcome(ref.is_live, g)
    m0 = g.initial_marking
    unbounded = any(
        g.marking_of(m0, c) < 0 and not sum(delays[a] for a in c)
        for c in ref.simple_cycles(g)
    )
    got = outcome(critical_cycle_arcs, g, delays)
    if unbounded:
        assert got is ValueError
    else:
        assert got == outcome(ref.critical_cycle_arcs, g, delays)


def test_zero_delay_negative_cycle_raises():
    g = MarkedGraph()
    g.add_arc("a", "b", tokens=1, name="slow")
    g.add_arc("b", "a", tokens=1, name="back")
    g.add_arc("a", "c", tokens=-1, name="free")
    g.add_arc("c", "a", tokens=0, name="free2")
    delays = {"slow": 1}
    assert ref.critical_cycle_arcs(g, delays) == (2, ("back", "slow"))
    with pytest.raises(ValueError, match="zero-delay cycle"):
        critical_cycle_arcs(g, delays)


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
    cycles = nx.simple_cycles(nx.DiGraph(ref.to_networkx(graph)))
    return len(list(itertools.islice(cycles, MAX_CYCLES + 1))) <= MAX_CYCLES


@given(spec_models(max_blocks=6), st.data())
@settings(max_examples=60, deadline=None)
def test_spec_abstraction_matches_reference(model, data):
    spec = model.build()
    vl = sorted(b.name for b in spec.blocks.values() if b.latency is not None)
    mean = {n: data.draw(st.floats(0.5, 5.0)) for n in vl} or None
    graph, delays = spec_to_dmg(spec, mean)
    expected = ref.spec_delays(graph, spec, mean)
    assert delays == expected
    bound = outcome(throughput_bound, spec, mean)
    critical = outcome(critical_cycle_arcs, graph, delays)
    if not few_cycles(graph):
        return
    assert bound == outcome(ref.max_throughput_arcs, graph, expected)
    assert critical == outcome(ref.critical_cycle_arcs, graph, expected)
    top = data.draw(st.integers(1, 50))
    ranked = critical_cycles(spec, mean, top=top)
    assert [r for r, _ in ranked] == [
        r for r, _ in ref.rated_cycles(graph, expected)[:top]]
    assert ranked == ranking(graph, expected)[:top]


@pytest.mark.parametrize("seed", [2, 7])
def test_large_abstractions_return_within_a_second(seed):
    """Two specs whose abstractions have too many cycles to list."""
    spec = spec_model(seed, max_blocks=8).build()

    def expire(signum, frame):
        raise TimeoutError(f"spec_model({seed}, 8) took over 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    pending = signal.alarm(1)
    try:
        throughput_bound(spec)
        check_liveness(spec)
    finally:
        signal.alarm(pending)
        signal.signal(signal.SIGALRM, previous)


def test_ranking_raises_past_the_cycle_budget():
    """``critical_cycles`` used to walk this abstraction's cycles for
    minutes; it stops once the list passes ``CYCLE_BUDGET``."""
    spec = spec_model(2, max_blocks=8).build()
    graph, _ = spec_to_dmg(spec)
    message = (
        f"{len(graph.nodes)} nodes and {len(graph.arcs)} arcs has more "
        f"than {CYCLE_BUDGET:,} simple cycles"
    )
    with pytest.raises(TooManyCycles, match=message):
        critical_cycles(spec)
    assert issubclass(TooManyCycles, ValueError)


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
