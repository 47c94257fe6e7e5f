"""The gate-level instruction kernel of the compiled simulator.

:mod:`repro.codegen.emit` lowers a netlist into a standalone module
through this pipeline:

1. :func:`decompose_gates` -- variadic ``AND/OR/NAND/NOR`` become
   binary chains through fresh temporary slots; every template's final
   instruction writes the gate's *named* slot, the only slot override
   hooks ever apply to;
2. :func:`phase_program` -- one clock phase as a flat topologically
   sorted instruction list (gates plus the latches transparent in that
   phase, lowered to ``BUF``);
3. :func:`live_cone` -- one phase program cut to the instructions that
   feed what the cycle keeps of that phase (its latch captures, and in
   the LOW phase the flops' ``d`` and the observed slots), with the
   slots the cut program loads;
4. :func:`two_plane_lines` / :func:`known_lines` -- each instruction as
   straight-line Python statements over ``v<slot>``/``k<slot>`` locals.

The gate formulas exist exactly once, here.

Two statement dialects share one instruction stream:

* **two-plane** -- the full ternary semantics over ``(v, k)`` word
  pairs, exactly the formulas documented in :mod:`repro.rtl.batchsim`;
* **known** -- value-plane only.  When every latch/flop initialises to
  a known 0/1 and every primary input is driven known each cycle, the
  known plane is ``mask`` everywhere *by induction* (each two-plane
  formula yields ``rk == mask`` when its inputs are fully known, and
  every override preserves known-ness: stuck forces a known value,
  flip of a known lane stays known).  Eliding ``k`` halves the work
  per gate and is the compiled backend's headline speedup; eligibility
  is checked dynamically per cycle and falls back to the two-plane
  dialect on the first X.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.rtl.netlist import Netlist, Phase

__all__ = [
    "AND",
    "OR",
    "NOT",
    "XOR",
    "MUX",
    "BUF",
    "C0",
    "C1",
    "DECOMPOSED",
    "READS",
    "decompose_gates",
    "live_cone",
    "phase_program",
    "two_plane_lines",
    "known_lines",
]

# Instruction opcodes (binary ops only; variadic gates are decomposed).
AND, OR, NOT, XOR, MUX, BUF, C0, C1 = range(8)

#: An instruction: ``(op, dst_slot, a_slot, b_slot, c_slot)``.
Instr = Tuple[int, int, int, int, int]

#: The operand fields each opcode reads, as indices into an
#: :data:`Instr`; an unread field holds a placeholder slot 0.
READS = {
    AND: (2, 3),
    OR: (2, 3),
    NOT: (2,),
    XOR: (2, 3),
    MUX: (2, 3, 4),
    BUF: (2,),
    C0: (),
    C1: (),
}

DECOMPOSED = {
    "AND": (AND, False),
    "OR": (OR, False),
    "NAND": (AND, True),
    "NOR": (OR, True),
}


def decompose_gates(
    netlist: Netlist, slot: Dict[str, int], n_named: int
) -> Tuple[Dict[str, Tuple[Instr, ...]], int]:
    """Binary instruction templates, one tuple per gate output.

    Variadic AND/OR/NAND/NOR become chains through fresh temporary
    slots starting at ``n_named``; the final instruction of each
    template writes the gate's named slot.  Returns ``(templates,
    n_slots)`` where ``n_slots`` counts named slots plus temporaries.
    """
    ntemp = n_named
    templates: Dict[str, Tuple[Instr, ...]] = {}
    for out, gate in netlist.gates.items():
        dst = slot[out]
        ins = [slot[i] for i in gate.ins]
        op = gate.op
        instrs: List[Instr] = []
        if op in DECOMPOSED:
            code, invert = DECOMPOSED[op]
            if not ins:
                # Zero-input AND()/OR() reduce to their identity
                # element, exactly like land()/lor() with no args.
                const = C1 if code == AND else C0
                if invert:
                    const = C0 if const == C1 else C1
                instrs.append((const, dst, 0, 0, 0))
            else:
                acc = ins[0]
                for nxt in ins[1:]:
                    tmp = ntemp
                    ntemp += 1
                    instrs.append((code, tmp, acc, nxt, 0))
                    acc = tmp
                if invert:
                    instrs.append((NOT, dst, acc, 0, 0))
                elif acc == dst:  # pragma: no cover - ins never empty
                    pass
                else:
                    instrs.append((BUF, dst, acc, 0, 0))
        elif op == "NOT":
            instrs.append((NOT, dst, ins[0], 0, 0))
        elif op == "BUF":
            instrs.append((BUF, dst, ins[0], 0, 0))
        elif op == "XOR":
            instrs.append((XOR, dst, ins[0], ins[1], 0))
        elif op == "MUX":
            instrs.append((MUX, dst, ins[0], ins[1], ins[2]))
        elif op == "CONST0":
            instrs.append((C0, dst, 0, 0, 0))
        elif op == "CONST1":
            instrs.append((C1, dst, 0, 0, 0))
        else:  # pragma: no cover - netlist validates ops
            raise AssertionError(f"unhandled op {op}")
        templates[out] = tuple(instrs)
    return templates, ntemp


def phase_program(
    netlist: Netlist,
    slot: Dict[str, int],
    templates: Dict[str, Tuple[Instr, ...]],
    phase: Phase,
) -> Tuple[Instr, ...]:
    """One phase as a flat topologically-sorted instruction list.

    Raises :class:`~repro.rtl.toposort.CombinationalCycleError` (with
    the canonical cycle path) when the phase cannot be ordered.
    """
    from repro.rtl.toposort import topo_order

    program: List[Instr] = []
    latches = netlist.latches
    for node in topo_order(netlist, phase):
        template = templates.get(node)
        if template is not None:
            program.extend(template)
        else:
            latch = latches[node]
            program.append((BUF, slot[node], slot[latch.d], 0, 0))
    return tuple(program)


def live_cone(
    program: Tuple[Instr, ...], needed: Iterable[int]
) -> Tuple[Tuple[Instr, ...], FrozenSet[int]]:
    """The instructions of ``program`` that the ``needed`` slots read.

    One backward walk: an instruction stays when its destination is
    needed, or read by an instruction that stays.  A phase program
    writes each slot at most once, after every instruction it reads
    from, so the walk meets every reader of a slot before its writer.
    Returns ``(kept, loads)``: the kept instructions in program order,
    and the slots the cut program reads or ``needed`` names that it
    never writes -- the inputs and state loads the phase still needs.
    """
    live = set(needed)
    kept: List[Instr] = []
    for instr in reversed(program):
        if instr[1] in live:
            live.discard(instr[1])
            kept.append(instr)
            live.update(instr[field] for field in READS[instr[0]])
    kept.reverse()
    return tuple(kept), frozenset(live)


def two_plane_lines(
    op: int, out: int, a: int, b: int, c: int, zero: str = "0"
) -> List[str]:
    """One instruction as two-plane Python statements.

    Statements read/write ``v<slot>``/``k<slot>`` locals and may use
    the free variables ``mask`` (the lane mask) and the temporaries
    ``_s0``/``_sx``/``_g1``/``_g0``.  ``zero`` is the spelling of the
    all-X plane word (a literal ``"0"``, or the name of a parameter
    holding it, as in the generated modules).
    """
    if op == AND:
        return [
            f"v{out}=v{a}&v{b}",
            f"k{out}=v{out}|(k{a}&~v{a})|(k{b}&~v{b})",
        ]
    if op == OR:
        return [
            f"v{out}=v{a}|v{b}",
            f"k{out}=v{out}|(k{a}&~v{a})&(k{b}&~v{b})",
        ]
    if op == NOT:
        return [f"k{out}=k{a}", f"v{out}=k{a}&~v{a}"]
    if op == BUF:
        return [f"v{out}=v{a}", f"k{out}=k{a}"]
    if op == XOR:
        return [f"k{out}=k{a}&k{b}", f"v{out}=(v{a}^v{b})&k{out}"]
    if op == MUX:
        return [
            f"_s0=k{a}&~v{a}",
            f"_sx=mask^k{a}",
            f"_g1=v{b}&v{c}",
            f"_g0=(k{b}&~v{b})&(k{c}&~v{c})",
            f"v{out}=(v{a}&v{b})|(_s0&v{c})|(_sx&_g1)",
            f"k{out}=(v{a}&k{b})|(_s0&k{c})|(_sx&(_g1|_g0))",
        ]
    if op == C0:
        return [f"v{out}={zero}", f"k{out}=mask"]
    # C1
    return [f"v{out}=mask", f"k{out}=mask"]


def known_lines(
    op: int, out: int, a: int, b: int, c: int, zero: str = "0"
) -> List[str]:
    """One instruction as value-plane-only statements (all lanes known).

    Exact under the all-known precondition: substituting ``k == mask``
    into every two-plane formula above collapses it to one boolean
    word operation (MUX's X-reduction terms vanish because ``_sx`` is
    zero), and the result's known plane is again ``mask``.
    """
    if op == AND:
        return [f"v{out}=v{a}&v{b}"]
    if op == OR:
        return [f"v{out}=v{a}|v{b}"]
    if op == NOT:
        return [f"v{out}=mask^v{a}"]
    if op == BUF:
        return [f"v{out}=v{a}"]
    if op == XOR:
        return [f"v{out}=v{a}^v{b}"]
    if op == MUX:
        return [f"v{out}=(v{a}&v{b})|((mask^v{a})&v{c})"]
    if op == C0:
        return [f"v{out}={zero}"]
    # C1
    return [f"v{out}=mask"]
