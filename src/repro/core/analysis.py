"""Structural and behavioural analysis of (dual) marked graphs.

Implements the properties reviewed in Sect. 2 and 2.2 of the paper:

* **Token preservation** -- for every cycle ``phi`` and reachable
  marking ``M``, ``M(phi) == M0(phi)``; holds for MGs and DMGs alike
  because the firing rule is the same.
* **Liveness** -- an SCMG is live iff every cycle is positively marked.
* **Repetitive behaviour** -- a firing sequence in which every node
  fires the same number of times returns to the starting marking,
  regardless of the enabling rules used.
* **Throughput bound** -- for unit-latency nodes, the sustainable
  firing rate of a live SCMG is bounded by the minimum cycle ratio
  ``min_phi M0(phi) / |phi|``; it and liveness are decided without
  listing cycles, by a parametric Bellman--Ford search over exact
  integer weights (Dasdan, TODAES 2004).
"""

from __future__ import annotations

import random
from collections import Counter, deque
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.dmg import DualMarkedGraph, FiringEvent
from repro.core.mg import Arc, MarkedGraph, Marking


def cycle_token_sums(
    graph: MarkedGraph, marking: Optional[Mapping[str, int]] = None
) -> Dict[Tuple[str, ...], int]:
    """Token sum of every simple cycle at ``marking`` (default M0).

    Returns a mapping from the cycle (as a tuple of arc names) to its
    token sum.  By token preservation, this mapping is invariant across
    all reachable markings.  Raises
    :class:`~repro.core.mg.TooManyCycles` (a ``ValueError``) when the
    graph has more than :data:`~repro.core.mg.CYCLE_BUDGET` simple
    cycles.
    """
    m = marking if marking is not None else graph.initial_marking
    return {tuple(c): graph.marking_of(m, c) for c in graph.simple_cycles()}


def is_live(graph: MarkedGraph) -> bool:
    """Liveness of a strongly connected (dual) marked graph.

    An SCMG is live iff every simple cycle carries at least one token at
    M0, i.e. iff the minimum cycle ratio under unit arc delays is
    positive.  The same criterion applies to SCDMGs: token preservation
    means no cycle can ever be drained, even with negative tokens.
    """
    if not graph.is_strongly_connected():
        raise ValueError("liveness criterion requires a strongly connected graph")
    return not graph.arcs or _min_ratio(graph, {a.name: 1 for a in graph.arcs})[0] > 0


def max_throughput(
    graph: MarkedGraph, latency: Optional[Mapping[str, int]] = None
) -> Fraction:
    """Minimum cycle ratio: the throughput bound of a live SCMG.

    For node latencies ``d(n)`` (default 1), the sustainable firing rate
    is ``min over cycles phi of M0(phi) / D(phi)`` where ``D(phi)`` sums
    the latencies of the nodes on the cycle.  This is the classical
    marked-graph performance bound; early evaluation can beat it, which
    is exactly what Table 1 of the paper demonstrates.  Each node's
    latency sits on the arcs leaving it: on a simple cycle every node is
    the source of exactly one arc, so the cycle's delay is unchanged.

    Returns:
        The bound as an exact :class:`fractions.Fraction`.
    """
    lat = latency if latency is not None else {}
    delay = {a.name: lat.get(a.src, 1) for a in graph.arcs}
    return critical_cycle_arcs(graph, delay)[0]


def ranked_cycles(
    graph: MarkedGraph, arc_delay: Mapping[str, int]
) -> List[Tuple[Fraction, Tuple[str, ...]]]:
    """Every positive-delay simple cycle with its ratio, tightest first.

    The ratio of a cycle ``phi`` is ``M0(phi) / D(phi)``, where
    ``D(phi)`` sums the delays of its arcs (an arc missing from
    ``arc_delay`` is free); cycles with ``D(phi) == 0`` bound nothing
    and are left out.  Each cycle is a tuple of arc names in canonical
    rotation, and the ranking is ordered by (ratio, cycle length,
    canonical arcs).  Its head is :func:`critical_cycle_arcs`.  Raises
    :class:`~repro.core.mg.TooManyCycles` past
    :data:`~repro.core.mg.CYCLE_BUDGET` cycles.
    """
    m0 = graph.initial_marking
    ranked = sorted(
        (Fraction(graph.marking_of(m0, cycle), d), len(cycle), tuple(cycle))
        for cycle in graph.simple_cycles()
        if (d := sum(arc_delay.get(a, 0) for a in cycle))
    )
    return [(ratio, arcs) for ratio, _, arcs in ranked]


def critical_cycle_arcs(
    graph: MarkedGraph, arc_delay: Mapping[str, int]
) -> Tuple[Fraction, Tuple[str, ...]]:
    """The throughput-bounding cycle under per-arc delays.

    The head of :func:`ranked_cycles`, found without listing cycles:
    the minimum cycle ratio ``min over cycles phi of M0(phi) / D(phi)``
    and the cycle achieving it.  Arc delays (none negative) model
    systems where forward data arcs carry the producer's latency while
    backward capacity arcs return instantly (an elastic buffer's slot
    frees when the consumer *initiates*, not when it finishes) -- the
    appropriate model for bounds on elastic control networks.  Raises
    ``ValueError`` when no cycle has a positive delay, or when a
    zero-delay cycle has a negative token sum (``ranked_cycles`` leaves
    it out, but its ratio is unbounded below).

    The cycle is the shortest positive-delay one of zero reduced weight,
    ties going to the smallest canonical arcs: each such arc, in name
    order, starts a breadth-first search (arcs in name order) over the
    later-named ones, on states (node, positive delay passed).  A
    shortest positive-delay closed walk is simple, or it would split.
    """
    ratio, reduced = _min_ratio(graph, arc_delay)
    positive = {a: arc_delay.get(a, 0) > 0 for a in reduced}
    tight = sorted((a for a in graph.arcs if reduced[a.name] == 0),
                   key=lambda a: a.name)
    out: Dict[str, List[Arc]] = {n: [] for n in graph.nodes}
    for arc in tight:
        out[arc.src].append(arc)
    best: Tuple[str, ...] = ()
    for first in tight:
        target = (first.src, True)
        paths = {(first.dst, positive[first.name]): (first.name,)}
        queue = deque(paths)
        while queue and target not in paths:
            node, passed = state = queue.popleft()
            if best and len(paths[state]) + 1 >= len(best):
                break
            for arc in out[node]:
                nxt = (arc.dst, passed or positive[arc.name])
                if arc.name > first.name and nxt not in paths:
                    paths[nxt] = paths[state] + (arc.name,)
                    queue.append(nxt)
        if target in paths and (not best or len(paths[target]) < len(best)):
            best = paths[target]
    return ratio, best


def _min_ratio(
    graph: MarkedGraph, arc_delay: Mapping[str, int]
) -> Tuple[Fraction, Dict[str, int]]:
    """The minimum cycle ratio and every arc's reduced weight at it.

    Starts above every ratio; while a cycle is negative under the
    integer weights ``q*M0(a) - p*D(a)``, its smaller ratio replaces
    ``p/q``.  At the end no reduced weight is negative, and a cycle of
    zero ones has ratio ``p/q`` or no delay and no token.
    """
    m0 = graph.initial_marking
    delay = {a.name: arc_delay.get(a.name, 0) for a in graph.arcs}
    ratio, found = Fraction(1 + sum(t for t in m0.values() if t > 0)), False
    while True:
        p, q = ratio.numerator, ratio.denominator
        weight = {a: q * m0[a] - p * delay[a] for a in delay}
        dist, cycle = _negative_cycle(graph, weight)
        if cycle is None:
            break
        tokens, d = graph.marking_of(m0, cycle), sum(delay[a] for a in cycle)
        if d == 0:
            raise ValueError(f"zero-delay cycle [{', '.join(cycle)}] sums to "
                             f"{tokens} tokens; bound undefined")
        ratio, found = Fraction(tokens, d), True
    if not found:
        raise ValueError("no cycle with positive delay; bound undefined")
    return ratio, {a.name: weight[a.name] + dist[a.src] - dist[a.dst]
                   for a in graph.arcs}


def _negative_cycle(
    graph: MarkedGraph, weight: Mapping[str, int]
) -> Tuple[Dict[str, int], Optional[List[str]]]:
    """Bellman--Ford distances from a virtual root joined to every node,
    and a negative cycle (arc names in flow order) or ``None``.

    Every cycle of the predecessor arcs is negative, and one closes
    among them while a negative cycle exists; each pass looks for it.
    """
    dist = dict.fromkeys(graph.nodes, 0)
    pred: Dict[str, Arc] = {}
    changed = True
    while changed:
        changed = False
        for arc in graph.arcs:
            if dist[arc.src] + weight[arc.name] < dist[arc.dst]:
                dist[arc.dst] = dist[arc.src] + weight[arc.name]
                pred[arc.dst], changed = arc, True
        walked: Dict[str, str] = {}
        for origin in pred:
            node = origin
            while node in pred and node not in walked:
                walked[node], node = origin, pred[node].src
            if walked.get(node) == origin:
                cycle = [pred[node]]
                while cycle[-1].src != node:
                    cycle.append(pred[cycle[-1].src])
                return dist, [a.name for a in reversed(cycle)]
    return dist, None


def reachable_markings(
    graph: MarkedGraph,
    limit: int = 100_000,
    marking: Optional[Mapping[str, int]] = None,
) -> List[Marking]:
    """Breadth-first enumeration of reachable markings.

    For a DMG, successors follow all three enabling rules; for a plain
    MG only the positive rule.  Enumeration stops (with ``RuntimeError``)
    if more than ``limit`` markings are found -- DMG state spaces are
    infinite in general because N-firings can pump anti-tokens around a
    cycle, so callers should bound either the graph or the limit.
    """
    start: Marking = dict(marking) if marking is not None else graph.initial_marking
    key0 = _marking_key(start)
    seen: Set[Tuple[int, ...]] = {key0}
    order: List[Marking] = [start]
    queue: deque[Marking] = deque([start])
    arc_names = [a.name for a in graph.arcs]
    while queue:
        m = queue.popleft()
        for node in graph.nodes:
            if not graph.enabled(node, m):
                continue
            nxt = graph.apply_firing(node, m)
            key = tuple(nxt[a] for a in arc_names)
            if key in seen:
                continue
            if len(seen) >= limit:
                raise RuntimeError(f"more than {limit} reachable markings")
            seen.add(key)
            order.append(nxt)
            queue.append(nxt)
    return order


def _marking_key(marking: Mapping[str, int]) -> Tuple[int, ...]:
    return tuple(v for _, v in sorted(marking.items()))


def verify_repetitive_behavior(
    graph: DualMarkedGraph,
    steps: int = 200,
    trials: int = 20,
    seed: int = 0,
) -> bool:
    """Empirically verify the repetitive-behaviour property (Sect. 2.2).

    Runs random firing sequences and checks that whenever a prefix fires
    every node the same number of times, the marking equals M0 --
    regardless of whether firings were positive, negative or early.

    Returns ``True``; raises ``AssertionError`` on violation.
    """
    rng = random.Random(seed)
    node_count = len(graph.nodes)
    for _ in range(trials):
        m = graph.initial_marking
        counts: Counter[str] = Counter()
        for _ in range(steps):
            events = graph.enabled_events(m)
            if not events:
                raise AssertionError("live SCDMG deadlocked during random firing")
            ev = rng.choice(events)
            m = graph.apply_firing(ev.node, m)
            counts[ev.node] += 1
            distinct = set(counts.values())
            if len(counts) == node_count and len(distinct) == 1:
                if m != graph.initial_marking:
                    raise AssertionError(
                        "equal firing counts did not restore the initial marking"
                    )
    return True


def firing_count_vector(trace: Sequence[FiringEvent]) -> Counter:
    """Parikh vector of a trace: how many times each node fired."""
    return Counter(ev.node for ev in trace)
