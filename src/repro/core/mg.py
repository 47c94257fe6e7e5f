"""Marked graphs (MGs).

A marked graph is a triple ``G = (N, A, M0)`` where ``N`` is a set of
nodes, ``A`` a set of arcs and ``M0 : A -> N`` an initial marking.  A
node is *enabled* when every incoming arc carries at least one token;
firing an enabled node removes one token from each incoming arc and adds
one token to each outgoing arc.  Marked graphs are the classical model
for choice-free concurrent systems and, in this paper, for conventional
(lazy) synchronous elastic systems: nodes are functional units, tokens
are data items.

The class below is deliberately explicit rather than clever: arcs are
named, markings are plain ``dict`` objects mapping arc names to integers
and the firing rule is a direct transcription of equation (1) in the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

Marking = Dict[str, int]

#: How many simple cycles :meth:`MarkedGraph.simple_cycles` lists before
#: it gives up: the count grows exponentially with the graph, and the
#: DMG abstraction of an eight-block spec passes it in under a second.
CYCLE_BUDGET = 100_000


class TooManyCycles(ValueError):
    """A graph has more simple cycles than :data:`CYCLE_BUDGET`."""


@dataclass(frozen=True)
class Arc:
    """A directed arc of a marked graph.

    Attributes:
        name: unique arc identifier (used as the key in markings).
        src: name of the source node.
        dst: name of the destination node.
    """

    name: str
    src: str
    dst: str

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}[{self.name}]"


class MarkedGraph:
    """A marked graph with named nodes and arcs.

    Nodes and arcs are added incrementally; the initial marking is kept
    on the graph, while :meth:`fire` and :meth:`enabled` operate on
    caller-supplied markings so that analyses can explore many markings
    without mutating the graph.

    Example:
        >>> g = MarkedGraph()
        >>> g.add_node("a"); g.add_node("b")
        >>> _ = g.add_arc("a", "b", tokens=1)
        >>> _ = g.add_arc("b", "a", tokens=0)
        >>> g.enabled("b", g.initial_marking)
        True
    """

    def __init__(self) -> None:
        self._nodes: List[str] = []
        self._node_set: set[str] = set()
        self._arcs: Dict[str, Arc] = {}
        self._preset: Dict[str, List[str]] = {}
        self._postset: Dict[str, List[str]] = {}
        self._initial: Marking = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> str:
        """Add a node.  Adding an existing node is a no-op."""
        if name not in self._node_set:
            self._nodes.append(name)
            self._node_set.add(name)
            self._preset[name] = []
            self._postset[name] = []
        return name

    def add_arc(
        self,
        src: str,
        dst: str,
        tokens: int = 0,
        name: Optional[str] = None,
    ) -> Arc:
        """Add an arc from ``src`` to ``dst`` with ``tokens`` initial tokens.

        Both endpoints are created if they do not exist yet.  The arc name
        defaults to ``"src->dst"`` (with a numeric suffix on collision).
        """
        self.add_node(src)
        self.add_node(dst)
        if name is None:
            base = f"{src}->{dst}"
            name = base
            suffix = 1
            while name in self._arcs:
                suffix += 1
                name = f"{base}#{suffix}"
        if name in self._arcs:
            raise ValueError(f"duplicate arc name: {name!r}")
        arc = Arc(name, src, dst)
        self._arcs[name] = arc
        self._postset[src].append(name)
        self._preset[dst].append(name)
        self._initial[name] = tokens
        return arc

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Sequence[str]:
        """All node names, in insertion order."""
        return tuple(self._nodes)

    @property
    def arcs(self) -> Sequence[Arc]:
        """All arcs, in insertion order."""
        return tuple(self._arcs.values())

    @property
    def initial_marking(self) -> Marking:
        """A copy of the initial marking."""
        return dict(self._initial)

    def arc(self, name: str) -> Arc:
        """Look up an arc by name."""
        return self._arcs[name]

    def preset(self, node: str) -> Sequence[str]:
        """Names of the incoming arcs of ``node`` (the paper's ``•n``)."""
        return tuple(self._preset[node])

    def postset(self, node: str) -> Sequence[str]:
        """Names of the outgoing arcs of ``node`` (the paper's ``n•``)."""
        return tuple(self._postset[node])

    def is_strongly_connected(self) -> bool:
        """True if the underlying digraph is strongly connected.

        The paper models elastic systems with strongly connected MGs
        (SCMG); open systems close the environment with a feedback node.
        Two walks from one node decide it, along the arcs and against.
        """
        for arcs, end in ((self._postset, "dst"), (self._preset, "src")):
            seen, stack = set(self._nodes[:1]), self._nodes[:1]
            while stack:
                for name in arcs[stack.pop()]:
                    nxt = getattr(self._arcs[name], end)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            if len(seen) < len(self._nodes):
                return False
        return True

    def simple_cycles(self) -> List[List[str]]:
        """All simple cycles, each a list of *arc names* starting at its
        smallest arc name (its canonical rotation).

        Cycles are the carriers of the token-preservation invariant: for
        every cycle ``phi`` and reachable marking ``M``,
        ``M(phi) == M0(phi)``.  A depth-first walk from each arc over
        later-named arcs lists each cycle once.  The count can grow
        exponentially: cycle *facts* are decided without the list, and
        the walk raises :class:`TooManyCycles` once it has found more
        than :data:`CYCLE_BUDGET` cycles.
        """
        cycles: List[List[str]] = []
        for first in sorted(self._arcs):
            stack = [([first], {self._arcs[first].dst})]
            while stack:
                path, visited = stack.pop()
                end = self._arcs[path[-1]].dst
                if end == self._arcs[first].src:
                    cycles.append(path)
                    if len(cycles) > CYCLE_BUDGET:
                        raise TooManyCycles(
                            f"a graph of {len(self._nodes)} nodes and "
                            f"{len(self._arcs)} arcs has more than "
                            f"{CYCLE_BUDGET:,} simple cycles"
                        )
                    continue
                for name in reversed(self._postset[end]):
                    dst = self._arcs[name].dst
                    if name > first and dst not in visited:
                        stack.append((path + [name], visited | {dst}))
        return cycles

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def marking_of(self, marking: Mapping[str, int], arcs: Iterable[str]) -> int:
        """Total number of tokens over ``arcs`` -- the paper's ``M(phi)``."""
        return sum(marking[a] for a in arcs)

    def enabled(self, node: str, marking: Mapping[str, int]) -> bool:
        """Conventional (positive) enabling: every input arc has a token."""
        return all(marking[a] > 0 for a in self._preset[node])

    def enabled_nodes(self, marking: Mapping[str, int]) -> List[str]:
        """All nodes enabled at ``marking``."""
        return [n for n in self._nodes if self.enabled(n, marking)]

    def fire(self, node: str, marking: Mapping[str, int]) -> Marking:
        """Fire ``node`` and return the successor marking (equation (1)).

        Self-loop arcs (present in both the preset and the postset) keep
        their token count.  The firing rule itself never checks
        enabledness -- DMGs reuse it for negative and early firings --
        but this MG-level method refuses to fire a disabled node.
        """
        if not self.enabled(node, marking):
            raise ValueError(f"node {node!r} is not enabled")
        return self.apply_firing(node, marking)

    def apply_firing(self, node: str, marking: Mapping[str, int]) -> Marking:
        """Apply the token-count update of equation (1) unconditionally."""
        new = dict(marking)
        pre = set(self._preset[node])
        post = set(self._postset[node])
        for a in pre - post:
            new[a] -= 1
        for a in post - pre:
            new[a] += 1
        return new

    def fire_sequence(
        self, sequence: Iterable[str], marking: Optional[Mapping[str, int]] = None
    ) -> Marking:
        """Fire a sequence of nodes starting from ``marking`` (or M0)."""
        m: Marking = dict(marking) if marking is not None else self.initial_marking
        for node in sequence:
            m = self.fire(node, m)
        return m

    def __repr__(self) -> str:
        return (
            f"MarkedGraph(nodes={len(self._nodes)}, arcs={len(self._arcs)}, "
            f"tokens={sum(self._initial.values())})"
        )


def linear_pipeline(stages: int, tokens_at: Optional[Iterable[int]] = None) -> MarkedGraph:
    """Build a strongly connected ring modelling a linear elastic pipeline.

    Stages are nodes ``s0 .. s{stages-1}`` connected in a ring; the
    backward arcs of the ring model the bounded capacity of the elastic
    buffers (an EB of capacity 2 corresponds to one forward arc and one
    backward arc whose tokens sum to 2).

    Args:
        stages: number of pipeline stages (>= 1).
        tokens_at: indices of forward arcs that carry an initial token;
            defaults to a single token on the arc out of stage 0.

    Returns:
        A strongly connected marked graph with ``2 * stages`` arcs.
    """
    if stages < 1:
        raise ValueError("a pipeline needs at least one stage")
    g = MarkedGraph()
    token_set = set(tokens_at) if tokens_at is not None else {0}
    for i in range(stages):
        nxt = (i + 1) % stages
        fwd = 1 if i in token_set else 0
        g.add_arc(f"s{i}", f"s{nxt}", tokens=fwd, name=f"fwd{i}")
        # Capacity-2 buffer: forward + backward tokens sum to 2.
        g.add_arc(f"s{nxt}", f"s{i}", tokens=2 - fwd, name=f"bwd{i}")
    return g
