"""Reference cycle ratios: the per-function loops ``src/`` used to keep.

``repro.core.analysis`` ranks the positive-delay simple cycles of a
graph once, and ``max_throughput``, ``critical_cycle_arcs``,
``throughput_bound`` and ``sizing.critical_cycles`` all read that one
ranking.  Before that, each walked ``simple_cycles()`` on its own, and
the DMG abstraction's forward-arc delay rule was restated by each
caller.  Those loops are kept here, verbatim in behaviour, as the
reference ``tests/core/test_cycle_ranking.py`` holds the ranking
against:

* :func:`max_throughput` -- node latencies (default 1), summed over
  the set of nodes the cycle passes through;
* :func:`max_throughput_arcs` -- per-arc delays (default 0);
* :func:`critical_cycle_arcs` -- the argmin, ties broken by (ratio,
  length, lexicographically smallest rotation);
* :func:`rated_cycles` -- sizing's list, sorted by ratio alone in
  networkx order with each cycle in its raw rotation;
* :func:`spec_delays` -- the DMG abstraction's node latencies put on
  the forward arcs (``~`` capacity and ``env:`` closure arcs free).
"""

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.mg import MarkedGraph


def max_throughput(
    graph: MarkedGraph, latency: Optional[Mapping[str, int]] = None
) -> Fraction:
    lat = dict(latency) if latency is not None else {}
    m0 = graph.initial_marking
    best: Optional[Fraction] = None
    for cycle in graph.simple_cycles():
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
    for cycle in graph.simple_cycles():
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
    for cycle in graph.simple_cycles():
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
    for cycle in graph.simple_cycles():
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
