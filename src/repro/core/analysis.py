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
  ``min_phi M0(phi) / |phi|``.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.dmg import DualMarkedGraph, FiringEvent
from repro.core.mg import MarkedGraph, Marking


def cycle_token_sums(
    graph: MarkedGraph, marking: Optional[Mapping[str, int]] = None
) -> Dict[Tuple[str, ...], int]:
    """Token sum of every simple cycle at ``marking`` (default M0).

    Returns a mapping from the cycle (as a tuple of arc names) to its
    token sum.  By token preservation, this mapping is invariant across
    all reachable markings.
    """
    m = marking if marking is not None else graph.initial_marking
    return {tuple(c): graph.marking_of(m, c) for c in graph.simple_cycles()}


def verify_token_preservation(
    graph: MarkedGraph,
    markings: Iterable[Mapping[str, int]],
) -> bool:
    """Check that every marking in ``markings`` preserves all cycle sums.

    Raises ``AssertionError`` naming the first violated cycle; returns
    ``True`` when every marking passes.
    """
    reference = cycle_token_sums(graph)
    for m in markings:
        for cycle, expected in reference.items():
            actual = graph.marking_of(m, cycle)
            if actual != expected:
                raise AssertionError(
                    f"cycle {cycle} sums to {actual}, expected {expected}"
                )
    return True


def is_live(graph: MarkedGraph) -> bool:
    """Liveness of a strongly connected (dual) marked graph.

    An SCMG is live iff every simple cycle carries at least one token at
    M0.  The same criterion applies to SCDMGs: the token-preservation
    property guarantees no cycle can ever be drained, hence no deadlock
    can be produced even in the presence of negative tokens.
    """
    if not graph.is_strongly_connected():
        raise ValueError("liveness criterion requires a strongly connected graph")
    return all(total > 0 for total in cycle_token_sums(graph).values())


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
    rotation (starting at its smallest arc name), and the ranking is
    ordered by (ratio, cycle length, canonical arcs), so repeated runs
    list equal-ratio cycles in the same order.  Its head bounds the
    throughput: see :func:`critical_cycle_arcs`.
    """
    m0 = graph.initial_marking
    ranked: List[Tuple[Fraction, int, Tuple[str, ...]]] = []
    for cycle in graph.simple_cycles():
        d = sum(arc_delay.get(a, 0) for a in cycle)
        if d == 0:
            continue
        start = cycle.index(min(cycle))
        arcs = tuple(cycle[start:] + cycle[:start])
        ratio = Fraction(graph.marking_of(m0, cycle), d)
        ranked.append((ratio, len(arcs), arcs))
    ranked.sort()
    return [(ratio, arcs) for ratio, _, arcs in ranked]


def critical_cycle_arcs(
    graph: MarkedGraph, arc_delay: Mapping[str, int]
) -> Tuple[Fraction, Tuple[str, ...]]:
    """The throughput-bounding cycle under per-arc delays.

    The head of :func:`ranked_cycles`: the minimum cycle ratio ``min
    over cycles phi of M0(phi) / D(phi)`` and the cycle achieving it.
    Arc delays model systems where forward data arcs carry the
    producer's latency while backward capacity arcs return instantly
    (an elastic buffer's slot frees when the consumer *initiates*, not
    when it finishes) -- the appropriate model for bounds on elastic
    control networks.
    """
    ranking = ranked_cycles(graph, arc_delay)
    if not ranking:
        raise ValueError("no cycle with positive delay; bound undefined")
    return ranking[0]


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
