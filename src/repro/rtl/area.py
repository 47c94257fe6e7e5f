"""Area estimation: constant propagation, dead-logic pruning, literals.

The paper reports the control-layer cost as *literals in factored form*
plus latch and flip-flop counts after logic synthesis with SIS.  This
module regenerates those three numbers from our controller netlists:

* :func:`constant_propagate` -- replaces the signals that LNT006's
  sequential constant analysis proves constant (e.g. the ``V−``/``S−``
  wires of channels that never see anti-tokens) and simplifies gates
  until a fixed point, mirroring the paper's "simplification by simple
  logic synthesis techniques" that removes the negative part of
  channels such as ``W -> S``;
* :func:`prune_dead` -- removes cells outside the transitive fan-in of
  the observable outputs;
* :func:`count_area` -- counts literals in factored form (inverters and
  buffers are free, an n-input simple gate costs n literals, XOR costs
  4, MUX costs 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.rtl.logic import is_known
from repro.rtl.netlist import Netlist


@dataclass(frozen=True)
class AreaReport:
    """Control-layer cost: the three Table 1 area columns."""

    literals: int
    latches: int
    flops: int
    gates: int

    def __str__(self) -> str:
        return f"{self.literals} lit / {self.latches} lat / {self.flops} ff"


_LITERAL_COST = {
    "AND": None,  # fan-in
    "OR": None,
    "NAND": None,
    "NOR": None,
    "NOT": 0,
    "BUF": 0,
    "CONST0": 0,
    "CONST1": 0,
    "XOR": 4,
    "MUX": 4,
}


def count_area(netlist: Netlist) -> AreaReport:
    """Count factored-form literals, latches and flip-flops."""
    literals = 0
    gates = 0
    for gate in netlist.gates.values():
        cost = _LITERAL_COST[gate.op]
        if cost is None:
            cost = len(gate.ins)
        literals += cost
        if gate.op not in ("BUF", "CONST0", "CONST1"):
            gates += 1
    return AreaReport(
        literals=literals,
        latches=len(netlist.latches),
        flops=len(netlist.flops),
        gates=gates,
    )


def _simplify_gate(
    op: str, ins: Tuple[str, ...], const: Mapping[str, int]
) -> Tuple[str, Tuple[str, ...], Optional[int], Optional[str]]:
    """Simplify one gate given known-constant inputs.

    Returns ``(op, ins, const_value, alias)``: if ``const_value`` is not
    None the gate output is that constant; if ``alias`` is not None the
    output equals that signal; otherwise the (possibly reduced) gate
    remains.
    """
    vals = [const.get(i) for i in ins]

    if op in ("AND", "NAND"):
        if any(v == 0 for v in vals):
            return op, ins, (0 if op == "AND" else 1), None
        kept = tuple(i for i, v in zip(ins, vals) if v != 1)
        if not kept:
            return op, ins, (1 if op == "AND" else 0), None
        if len(kept) == 1:
            return ("BUF" if op == "AND" else "NOT"), kept, None, (
                kept[0] if op == "AND" else None
            )
        return op, kept, None, None

    if op in ("OR", "NOR"):
        if any(v == 1 for v in vals):
            return op, ins, (1 if op == "OR" else 0), None
        kept = tuple(i for i, v in zip(ins, vals) if v != 0)
        if not kept:
            return op, ins, (0 if op == "OR" else 1), None
        if len(kept) == 1:
            return ("BUF" if op == "OR" else "NOT"), kept, None, (
                kept[0] if op == "OR" else None
            )
        return op, kept, None, None

    if op == "NOT":
        if vals[0] is not None:
            return op, ins, 1 - vals[0], None
        return op, ins, None, None

    if op == "BUF":
        if vals[0] is not None:
            return op, ins, vals[0], None
        return op, ins, None, ins[0]

    if op == "XOR":
        a, b = vals
        if a is not None and b is not None:
            return op, ins, a ^ b, None
        if a == 0:
            return "BUF", (ins[1],), None, ins[1]
        if b == 0:
            return "BUF", (ins[0],), None, ins[0]
        if a == 1:
            return "NOT", (ins[1],), None, None
        if b == 1:
            return "NOT", (ins[0],), None, None
        return op, ins, None, None

    if op == "MUX":
        sel, w1, w0 = vals
        if sel == 1:
            return "BUF", (ins[1],), None, ins[1]
        if sel == 0:
            return "BUF", (ins[2],), None, ins[2]
        if ins[1] == ins[2]:
            return "BUF", (ins[1],), None, ins[1]
        if w1 is not None and w0 is not None and w1 == w0:
            return op, ins, w1, None
        return op, ins, None, None

    if op == "CONST0":
        return op, ins, 0, None
    if op == "CONST1":
        return op, ins, 1, None
    raise AssertionError(f"unhandled op {op}")


def constant_propagate(netlist: Netlist) -> Netlist:
    """Return a simplified copy with every sequential constant swept.

    The constants are LNT006's:
    :func:`repro.lint.netlist_rules.constant_values` finds every signal
    that holds one value in every reachable cycle, including the state
    bits provably stuck at their init value.  This is what removes the
    whole anti-token network when no controller can ever emit a ``V−``
    -- the paper's "simplification by simple logic synthesis
    techniques".  Constants are then swept through gates, buffers are
    collapsed and surviving cells are rebuilt.  Iterates to a fixed
    point.
    """
    # Deferred: the lint package imports the synthesis flow, which
    # imports this module.
    from repro.lint.netlist_rules import constant_values

    const: Dict[str, int] = {
        sig: v for sig, v in constant_values(netlist).items() if is_known(v)
    }
    alias: Dict[str, str] = {}

    def resolve(sig: str) -> str:
        seen = []
        while sig in alias:
            seen.append(sig)
            sig = alias[sig]
        for s in seen:
            alias[s] = sig
        return sig

    gate_defs: Dict[str, Tuple[str, Tuple[str, ...]]] = {
        out: (g.op, g.ins) for out, g in netlist.gates.items()
    }

    changed = True
    while changed:
        changed = False
        for out in list(gate_defs):
            if out in const:
                del gate_defs[out]
                changed = True
                continue
            op, ins = gate_defs[out]
            new_ins = tuple(resolve(i) for i in ins)
            new_op, new_ins, cval, alias_to = _simplify_gate(op, new_ins, const)
            if cval is not None:
                const[out] = cval
                del gate_defs[out]
                changed = True
            elif alias_to is not None:
                target = resolve(alias_to)
                if target == out:
                    # A buffer-like gate on a combinational loop through
                    # itself: an alias would point at itself.  Keep it.
                    continue
                alias[out] = target
                del gate_defs[out]
                changed = True
            elif (new_op, new_ins) != (op, ins):
                gate_defs[out] = (new_op, new_ins)
                changed = True

    # Rebuild.
    out_nl = Netlist(netlist.name + "+cp")
    for sig in netlist.inputs:
        out_nl.add_input(sig)
    const_cache: Dict[int, str] = {}

    def materialise(sig: str) -> str:
        sig = resolve(sig)
        if sig in const:
            v = const[sig]
            if v not in const_cache:
                name = out_nl.fresh(f"const{v}")
                out_nl.add_gate("CONST1" if v else "CONST0", (), name)
                const_cache[v] = name
            return const_cache[v]
        return sig

    for out, (op, ins) in gate_defs.items():
        out_nl.add_gate(op, tuple(materialise(i) for i in ins), out)
    for q, latch in netlist.latches.items():
        if resolve(q) == q and q not in const:
            out_nl.add_latch(materialise(latch.d), latch.phase, q, latch.init)
    for q, flop in netlist.flops.items():
        if resolve(q) == q and q not in const:
            out_nl.add_flop(materialise(flop.d), q, flop.init)
    for sig in netlist.outputs:
        out_nl.add_output(materialise(sig))
    return out_nl


def prune_dead(netlist: Netlist, keep: Optional[Iterable[str]] = None) -> Netlist:
    """Remove every cell outside the transitive fan-in of ``keep``.

    ``keep`` defaults to the netlist's declared outputs.  Latches and
    flops are state but still pruned when nothing observable depends on
    them -- matching what logic synthesis does to unused control state.
    """
    roots = list(keep) if keep is not None else list(netlist.outputs)
    live: Set[str] = set()
    stack = [r for r in roots]
    while stack:
        sig = stack.pop()
        if sig in live:
            continue
        live.add(sig)
        stack.extend(netlist.fanin(sig))

    out_nl = Netlist(netlist.name + "+prune")
    for sig in netlist.inputs:
        if sig in live:
            out_nl.add_input(sig)
    for out, gate in netlist.gates.items():
        if out in live:
            out_nl.add_gate(gate.op, gate.ins, out)
    for q, latch in netlist.latches.items():
        if q in live:
            out_nl.add_latch(latch.d, latch.phase, q, latch.init)
    for q, flop in netlist.flops.items():
        if q in live:
            out_nl.add_flop(flop.d, q, flop.init)
    for sig in netlist.outputs:
        if sig in live:
            out_nl.add_output(sig)
    return out_nl


def synthesize_area(netlist: Netlist) -> AreaReport:
    """Constant-propagate, prune and count: the full area pipeline."""
    simplified = constant_propagate(netlist)
    pruned = prune_dead(simplified)
    return count_area(pruned)
