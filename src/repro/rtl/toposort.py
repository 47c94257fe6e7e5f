"""Per-phase topological orders and combinational-cycle extraction.

Within one clock phase the combinational surface of a netlist consists
of its gates plus the latches that are *transparent* in that phase
(their output follows their input like a buffer).  Both simulators need
this graph:

* :class:`~repro.codegen.sim.CompiledSimulator` compiles each phase
  into a flat instruction list and therefore *requires* the graph to be
  acyclic -- :func:`topo_order` raises :class:`CombinationalCycleError`
  naming the full cycle path otherwise;
* :class:`~repro.rtl.simulator.TwoPhaseSimulator` tolerates cycles via
  ternary fixed points, but in ``strict_x`` mode it uses
  :func:`find_combinational_cycle` to report the same full cycle path
  instead of a bare list of unresolved nets.

The core walk is :func:`order_or_cycle`, a plain dependency-graph
routine with no netlist knowledge; the resilience watchdogs reuse it to
find the cycle of mutually-blocked Stop wires in a stalled network.

Cycle paths are canonical (rotated so the lexicographically smallest
signal comes first, listed in signal-flow order), so the two simulators
produce byte-identical diagnostics for the same netlist.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.rtl.netlist import Netlist, Phase


class CombinationalCycleError(RuntimeError):
    """Combinational logic that cannot settle within one clock phase.

    Raised structurally (a cycle in a phase's gate graph, with the
    offending path in :attr:`cycle`) or, by the scalar simulator's
    strict mode, when the ternary fixed point leaves signals unresolved.
    """

    def __init__(self, message: str, cycle: Optional[List[str]] = None) -> None:
        super().__init__(message)
        #: The signals along the cycle in flow order, or None when the
        #: error reports unresolved signals without a structural cycle.
        self.cycle: Optional[List[str]] = list(cycle) if cycle else None

    @classmethod
    def from_cycle(cls, cycle: List[str]) -> "CombinationalCycleError":
        """The canonical error for one structural cycle path.

        Delegates the diagnostic to the LNT005 lint rule (the import is
        deferred: the lint package sits above the rtl layer), so the
        scalar engine, the compiled engine and ``repro lint`` produce the
        message from exactly one place.
        """
        from repro.lint.netlist_rules import combinational_cycle_finding

        return cls.from_finding(combinational_cycle_finding(cycle))

    @classmethod
    def from_finding(cls, finding) -> "CombinationalCycleError":
        """The error for one LNT005 lint finding (duck-typed: anything
        with ``message`` and ``path`` attributes)."""
        return cls(finding.message, cycle=list(finding.path))


def canonical_cycle(cycle: List[str]) -> List[str]:
    """Rotate a cycle so the smallest signal name comes first."""
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


def canonical_nodes(
    nodes: Dict[str, Tuple[str, ...]],
) -> Dict[str, Tuple[str, ...]]:
    """The same dependency graph with sorted keys and sorted fan-in.

    :func:`order_or_cycle` walks roots and dependencies in the order
    given, so *which* cycle it extracts from a multi-cycle graph depends
    on dict insertion order.  Hunting over the canonicalised graph makes
    the reported cycle a function of the graph alone -- LNT005 findings
    and :class:`CombinationalCycleError` diagnostics stay byte-stable
    across construction-order changes.
    """
    return {sig: tuple(sorted(nodes[sig])) for sig in sorted(nodes)}


def phase_nodes(netlist: Netlist, phase: Phase) -> Dict[str, Tuple[str, ...]]:
    """The combinational nodes of one phase and their raw fan-in.

    Nodes are gate outputs plus the outputs of latches transparent in
    ``phase``.  Fan-in tuples are unfiltered -- entries that are not
    themselves nodes (primary inputs, flops, opaque latches) are the
    phase's sources.
    """
    nodes: Dict[str, Tuple[str, ...]] = {}
    for out, gate in netlist.gates.items():
        nodes[out] = gate.ins
    for q, latch in netlist.latches.items():
        if latch.phase == phase:
            nodes[q] = (latch.d,)
    return nodes


def order_or_cycle(
    nodes: Dict[str, Tuple[str, ...]],
) -> Tuple[List[str], Optional[List[str]]]:
    """Topologically sort a dependency graph, or extract one cycle.

    ``nodes`` maps each node to its dependencies; dependency entries
    that are not themselves nodes are sources and are skipped.  Returns
    ``(order, None)`` with every node after all of its in-graph
    dependencies when the graph is acyclic, or ``(partial_order,
    cycle)`` where ``cycle`` lists the nodes of one dependency cycle in
    *flow* order (each node feeds the next, and the last feeds the
    first).
    """
    order: List[str] = []
    seen: set = set()
    path_set: set = set()
    path_list: List[str] = []
    for root in nodes:
        if root in seen:
            continue
        stack: List[Tuple[str, int]] = [(root, 0)]
        while stack:
            sig, idx = stack.pop()
            if idx == 0:
                path_set.add(sig)
                path_list.append(sig)
            ins = nodes[sig]
            while idx < len(ins) and (ins[idx] not in nodes or ins[idx] in seen):
                idx += 1
            if idx < len(ins):
                child = ins[idx]
                if child in path_set:
                    # DFS descends along dependencies, so the chain from
                    # ``child`` down to ``sig`` reads against the flow
                    # direction; reverse it to report flow order.
                    chain = path_list[path_list.index(child):]
                    return order, chain[::-1]
                stack.append((sig, idx + 1))
                stack.append((child, 0))
            else:
                seen.add(sig)
                order.append(sig)
                path_set.discard(sig)
                path_list.pop()
    return order, None


def topo_order(netlist: Netlist, phase: Phase) -> List[str]:
    """Topological order of one phase's combinational nodes.

    The returned list contains gate outputs and transparent-latch
    outputs such that every node appears after all of its in-phase
    fan-in.  Raises :class:`CombinationalCycleError` (with the full
    path) when the phase has a combinational cycle.
    """
    nodes = phase_nodes(netlist, phase)
    order, cycle = order_or_cycle(nodes)
    if cycle is not None:
        # Re-hunt over the canonical graph so the reported cycle does
        # not depend on netlist construction order.  Only the error path
        # pays for this; the happy-path order is untouched (the compiled
        # simulator's instruction stream keys on it).
        _, cycle = order_or_cycle(canonical_nodes(nodes))
        raise CombinationalCycleError.from_cycle(cycle)
    return order


def find_combinational_cycle(
    netlist: Netlist, phase: Phase
) -> Optional[List[str]]:
    """The canonical cycle path of one phase, or None when acyclic."""
    try:
        topo_order(netlist, phase)
    except CombinationalCycleError as exc:
        return exc.cycle
    return None
