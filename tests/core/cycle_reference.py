"""Reference cycle analyses: enumerate every simple cycle, then decide.

``repro.core.analysis`` decides the minimum cycle ratio, its critical
cycle and liveness by a parametric Bellman--Ford search, without
listing cycles, and ``MarkedGraph.simple_cycles`` is a plain
depth-first walk.  The code they replaced is kept here, verbatim in
behaviour, as the reference ``tests/core/test_cycle_ranking.py`` holds
them against.  It lists cycles through networkx itself, never through
the ``simple_cycles`` it checks:

* :func:`simple_cycles` -- networkx's node cycles, expanded into one
  arc cycle per combination of parallel arcs;
* :func:`is_strongly_connected` and :func:`is_live` -- networkx's
  strong connectivity, and every cycle positively marked;
* :func:`max_throughput` -- node latencies (default 1), summed over
  the set of nodes the cycle passes through;
* :func:`max_throughput_arcs` -- per-arc delays (default 0);
* :func:`critical_cycle_arcs` -- the argmin, ties broken by (ratio,
  length, lexicographically smallest rotation);
* :func:`rated_cycles` -- sizing's list, sorted by ratio alone in
  networkx order with each cycle in its raw rotation;
* :func:`spec_delays` -- the DMG abstraction's node latencies put on
  the forward arcs (``~`` capacity and ``env:`` closure arcs free).

Zero-delay cycles bound nothing and are skipped, whatever their tokens.
"""

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

import networkx as nx

from repro.core.mg import MarkedGraph


def to_networkx(graph: MarkedGraph) -> nx.MultiDiGraph:
    """The structure as a multigraph, arc names as edge keys."""
    g = nx.MultiDiGraph()
    g.add_nodes_from(graph.nodes)
    for arc in graph.arcs:
        g.add_edge(arc.src, arc.dst, key=arc.name)
    return g


def simple_cycles(graph: MarkedGraph) -> List[List[str]]:
    """Every simple cycle as a list of arc names, in networkx order."""
    cycles: List[List[str]] = []
    for node_cycle in nx.simple_cycles(nx.DiGraph(to_networkx(graph))):
        hops = []
        for i, src in enumerate(node_cycle):
            dst = node_cycle[(i + 1) % len(node_cycle)]
            hops.append([a for a in graph.postset(src) if graph.arc(a).dst == dst])
        expanded: List[List[str]] = [[]]
        for group in hops:
            expanded = [prefix + [a] for prefix in expanded for a in group]
        cycles.extend(expanded)
    return cycles


def is_strongly_connected(graph: MarkedGraph) -> bool:
    if not graph.nodes:
        return True
    return nx.is_strongly_connected(nx.DiGraph(to_networkx(graph)))


def is_live(graph: MarkedGraph) -> bool:
    if not is_strongly_connected(graph):
        raise ValueError("liveness criterion requires a strongly connected graph")
    m0 = graph.initial_marking
    return all(graph.marking_of(m0, c) > 0 for c in simple_cycles(graph))


def max_throughput(
    graph: MarkedGraph, latency: Optional[Mapping[str, int]] = None
) -> Fraction:
    lat = dict(latency) if latency is not None else {}
    m0 = graph.initial_marking
    best: Optional[Fraction] = None
    for cycle in simple_cycles(graph):
        nodes = {graph.arc(a).src for a in cycle}
        d = sum(lat.get(n, 1) for n in nodes)
        if d == 0:
            continue
        ratio = Fraction(graph.marking_of(m0, cycle), d)
        if best is None or ratio < best:
            best = ratio
    if best is None:
        raise ValueError("graph has no cycles; throughput bound undefined")
    return best


def max_throughput_arcs(
    graph: MarkedGraph, arc_delay: Mapping[str, int]
) -> Fraction:
    m0 = graph.initial_marking
    best: Optional[Fraction] = None
    for cycle in simple_cycles(graph):
        d = sum(arc_delay.get(a, 0) for a in cycle)
        if d == 0:
            continue
        ratio = Fraction(graph.marking_of(m0, cycle), d)
        if best is None or ratio < best:
            best = ratio
    if best is None:
        raise ValueError("no cycle with positive delay; bound undefined")
    return best


def canonical_rotation(cycle: Tuple[str, ...]) -> Tuple[str, ...]:
    """Lexicographically smallest rotation of a cyclic arc sequence."""
    if not cycle:
        return cycle
    rotations = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
    return min(rotations)


def critical_cycle_arcs(
    graph: MarkedGraph, arc_delay: Mapping[str, int]
) -> Tuple[Fraction, Tuple[str, ...]]:
    m0 = graph.initial_marking
    best: Optional[Tuple[Fraction, int, Tuple[str, ...]]] = None
    for cycle in simple_cycles(graph):
        d = sum(arc_delay.get(a, 0) for a in cycle)
        if d == 0:
            continue
        ratio = Fraction(graph.marking_of(m0, cycle), d)
        key = (ratio, len(cycle), canonical_rotation(tuple(cycle)))
        if best is None or key < best:
            best = key
    if best is None:
        raise ValueError("no cycle with positive delay; bound undefined")
    return best[0], best[2]


def rated_cycles(
    graph: MarkedGraph, arc_delay: Mapping[str, int]
) -> List[Tuple[Fraction, List[str]]]:
    m0 = graph.initial_marking
    rated: List[Tuple[Fraction, List[str]]] = []
    for cycle in simple_cycles(graph):
        d = sum(arc_delay.get(a, 0) for a in cycle)
        if d == 0:
            continue
        rated.append((Fraction(graph.marking_of(m0, cycle), d), list(cycle)))
    rated.sort(key=lambda item: item[0])
    return rated


def spec_latencies(spec, mean_latency=None) -> Dict[str, int]:
    """Node latencies of the DMG abstraction of ``spec``."""
    latencies: Dict[str, int] = {}
    for name in list(spec.sources) + list(spec.sinks):
        latencies[name] = 0
    for name in spec.registers:
        latencies[name] = 1
    for b in spec.blocks.values():
        if b.latency is not None:
            mean = (mean_latency or {}).get(b.name, 2.0)
            latencies[b.name] = max(1, int(round(mean)))
        else:
            latencies[b.name] = 0
    return latencies


def spec_delays(graph: MarkedGraph, spec, mean_latency=None) -> Dict[str, int]:
    """Forward-arc delays of ``graph``, the abstraction of ``spec``."""
    lat = spec_latencies(spec, mean_latency)
    delays: Dict[str, int] = {}
    for arc in graph.arcs:
        if arc.name.startswith("~") or arc.name.startswith("env:"):
            continue
        delays[arc.name] = lat.get(arc.src, 0)
    return delays
