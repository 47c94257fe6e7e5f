"""Generic worklist fixpoint engine for the lint rules.

One solver, many analyses.  A dataflow problem is a directed graph (in
*flow* direction: an edge ``u -> v`` means information at ``u`` feeds
``v``), a per-node initial value, and a transfer function recomputing a
node's value from its neighbours.  :func:`fixpoint` iterates transfers
with a worklist until nothing changes and returns the final environment.

Direction
    ``forward`` transfers read a node's *predecessors* and propagate
    changes to its successors; ``backward`` reads successors and
    propagates to predecessors.  The graph is always given in flow
    direction -- the engine inverts it internally for backward runs.

Lattice / termination contract
    The engine is lattice-agnostic: values are opaque and compared with
    ``!=``.  Pass ``join`` (any associative, commutative, idempotent
    least-upper-bound) to make every update ascend the caller's lattice
    -- with a monotone transfer over a finite-height lattice the run
    then terminates in at most ``height * |nodes|`` evaluations.
    Without ``join`` the transfer output replaces the old value
    directly; this is how *descending* chains (Kleene iteration from a
    top element, e.g. the ternary constant analysis) are run, and
    termination then relies on the transfer being monotone in the
    caller's order.  Either way :data:`max_visits` bounds the updates
    per node and a genuinely diverging transfer raises
    :class:`FixpointDivergence` instead of looping forever.

Determinism
    Nodes are processed in sorted-name order via an index heap, so the
    evaluation sequence -- and therefore every value and every witness
    derived from one -- is a function of the *graph*, independent of
    dict insertion order in the netlist or spec that produced it.

Adapters at the bottom of the module project the three design layers
onto plain graphs: :func:`netlist_graph` (signals, fan-in edges),
:func:`spec_graph` (spec elements and channels), :func:`dmg_graph`
(marked-graph nodes).  The rule modules build their analyses on these.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "FixpointDivergence",
    "FixpointResult",
    "fixpoint",
    "netlist_graph",
    "spec_graph",
    "dmg_graph",
]


class FixpointDivergence(RuntimeError):
    """A transfer function kept changing a node's value past the bound."""


@dataclass
class FixpointResult:
    """Outcome of one :func:`fixpoint` run.

    ``values`` is the final environment; ``evaluations`` counts transfer
    applications (the work done); ``order`` is the canonical node order
    the worklist used (sorted names -- exposed so callers can assert
    determinism and tests can replay witnesses in engine order).
    """

    values: Dict[str, object]
    evaluations: int
    order: Tuple[str, ...]

    def __getitem__(self, node: str) -> object:
        return self.values[node]


def fixpoint(
    graph: Mapping[str, Sequence[str]],
    transfer: Callable[[str, Callable[[str], object]], object],
    init: Callable[[str], object],
    direction: str = "forward",
    join: Optional[Callable[[object, object], object]] = None,
    max_visits: int = 64,
) -> FixpointResult:
    """Solve one dataflow problem to fixpoint.

    ``graph`` maps every node to the nodes feeding it (its dependencies
    in *flow* direction -- fan-in for a netlist, producers for a spec).
    ``transfer(node, get)`` recomputes one node's value, reading
    neighbours through ``get`` (which returns the current value of any
    node, or raises ``KeyError`` for unknown names).  ``init`` seeds
    every node.  ``join`` (optional) is the lattice least-upper-bound
    applied as ``join(old, new)`` on every update; see the module
    docstring for the termination contract.  ``max_visits`` bounds how
    often one node's value may change before
    :class:`FixpointDivergence` is raised.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward/backward, not {direction!r}")
    order = tuple(sorted(graph))
    index = {n: i for i, n in enumerate(order)}
    # deps = what transfer reads; outs = who to re-enqueue on change.
    deps: Dict[str, Tuple[str, ...]] = {}
    outs: Dict[str, List[str]] = {n: [] for n in order}
    for node in order:
        ins = tuple(i for i in graph[node] if i in index)
        deps[node] = ins
        for i in ins:
            outs[i].append(node)
    if direction == "backward":
        deps, outs = (
            {n: tuple(outs[n]) for n in order},
            {n: list(deps[n]) for n in order},
        )

    values: Dict[str, object] = {n: init(n) for n in order}
    get = values.__getitem__
    visits: Dict[str, int] = {}
    queued = [True] * len(order)
    heap = list(range(len(order)))  # already sorted => already a heap
    evaluations = 0
    while heap:
        node = order[heapq.heappop(heap)]
        queued[index[node]] = False
        evaluations += 1
        new = transfer(node, get)
        old = values[node]
        if join is not None:
            new = join(old, new)
        if new is old or new == old:
            continue
        count = visits.get(node, 0) + 1
        if count > max_visits:
            raise FixpointDivergence(
                f"value of {node!r} changed more than {max_visits} times; "
                "transfer is not monotone or the lattice has unbounded height"
            )
        visits[node] = count
        values[node] = new
        for dep in outs[node]:
            i = index[dep]
            if not queued[i]:
                queued[i] = True
                heapq.heappush(heap, i)
    return FixpointResult(values=values, evaluations=evaluations, order=order)


# ----------------------------------------------------------------------
# Layer adapters
# ----------------------------------------------------------------------
def netlist_graph(nl, state_edges: bool = True) -> Dict[str, Tuple[str, ...]]:
    """The signal graph of a netlist, in flow direction.

    Every signal is a node; a gate output depends on its fan-in, and --
    when ``state_edges`` is set -- a latch/flop output depends on its
    data pin (the sequential closure; drop it to analyse one
    combinational surface only).  Undriven references are skipped (they
    are LNT002's business, not the engine's).
    """
    graph: Dict[str, Tuple[str, ...]] = {s: () for s in nl.inputs}
    for out, gate in nl.gates.items():
        graph[out] = tuple(gate.ins)
    for q, latch in nl.latches.items():
        graph[q] = (latch.d,) if state_edges else ()
    for q, flop in nl.flops.items():
        graph[q] = (flop.d,) if state_edges else ()
    return graph


def spec_graph(spec) -> Dict[str, Tuple[str, ...]]:
    """The element/channel graph of a :class:`SystemSpec`.

    Two node families: ``kind:name`` for sources, sinks, blocks and
    registers, and ``channel:name`` for every connection.  A channel
    depends on its producing element; an element depends on the
    channels feeding its input ports (sorted by port, so multi-arm
    blocks read their arms in declaration order via
    :func:`spec_in_channels`).
    """
    graph: Dict[str, Tuple[str, ...]] = {}
    for kind, table in (
        ("source", spec.sources),
        ("sink", spec.sinks),
        ("block", spec.blocks),
        ("register", spec.registers),
    ):
        for name in table:
            graph[f"{kind}:{name}"] = ()
    feeds: Dict[str, List[str]] = {n: [] for n in graph}
    for conn in spec.connections:
        src = f"{conn.src[0]}:{conn.src[1]}"
        dst = f"{conn.dst[0]}:{conn.dst[1]}"
        graph[f"channel:{conn.name}"] = (src,)
        if dst in feeds:
            feeds[dst].append(f"channel:{conn.name}")
    for node, ins in feeds.items():
        graph[node] = tuple(sorted(ins))
    return graph


def spec_in_channels(spec) -> Dict[str, List[Optional[str]]]:
    """Per-block input channels by port index (None = unconnected)."""
    arms: Dict[str, List[Optional[str]]] = {
        name: [None] * block.n_inputs for name, block in spec.blocks.items()
    }
    for conn in spec.connections:
        kind, name, port = conn.dst
        if kind == "block" and port.startswith("in"):
            idx = int(port[2:])
            if name in arms and 0 <= idx < len(arms[name]):
                arms[name][idx] = conn.name
    return arms


def dmg_graph(graph) -> Dict[str, Tuple[str, ...]]:
    """A (dual) marked graph as a plain node graph (arcs in flow order)."""
    deps: Dict[str, List[str]] = {n: [] for n in graph.nodes}
    for arc in graph.arcs:
        deps[arc.dst].append(arc.src)
    return {n: tuple(sorted(ins)) for n, ins in deps.items()}
