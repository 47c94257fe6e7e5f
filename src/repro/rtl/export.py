"""Netlist export backends: Verilog, BLIF and SMV.

The paper's framework "can generate Verilog models for simulation, SMV
models for verification and BLIF models for logic synthesis with SIS";
this module regenerates all three from a :class:`~repro.rtl.netlist.
Netlist` so the controllers built here can be taken to external tools:

* :func:`to_verilog` -- synthesizable structural Verilog with
  two-phase transparent latches and rising-edge flip-flops;
* :func:`to_blif`   -- Berkeley Logic Interchange Format (the SIS
  input format used for the paper's area numbers);
* :func:`to_smv`    -- a NuSMV module with the netlist as a
  transition system, optionally carrying the paper's CTL channel
  properties as ``SPEC`` clauses.

The writers are deliberately simple and deterministic (sorted cell
order) so their output is diff-stable and easy to test.

The Verilog and BLIF writers append a *source-map* comment block
(``repro.sourcemap 1``) after the body: the original netlist name, the
ident-to-raw-name table, every cell in netlist insertion order with its
exact gate op, and (Verilog only, which cannot express them) the
X-initialised state bits.  The :mod:`repro.lint.frontends` parsers use
the block to reconstruct a netlist whose fingerprint matches the
exported one bit-for-bit; foreign files without the block still parse,
just without guaranteed fingerprint equality.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.rtl.logic import X
from repro.rtl.netlist import Gate, Netlist, Phase

_IDENT = re.compile(r"[^A-Za-z0-9_]")


def _sanitize(name: str) -> str:
    """Map an arbitrary signal name to a legal HDL identifier."""
    out = _IDENT.sub("_", name)
    if out[0].isdigit():
        out = "s_" + out
    return out


def _name_map(netlist: Netlist) -> Dict[str, str]:
    """Collision-free identifier map for all signals."""
    mapping: Dict[str, str] = {}
    used: Dict[str, int] = {}
    for sig in sorted(netlist.signals()):
        base = _sanitize(sig)
        if base in used:
            used[base] += 1
            ident = f"{base}_{used[base]}"
        else:
            used[base] = 0
            ident = base
        mapping[sig] = ident
    return mapping


def _sourcemap_lines(
    netlist: Netlist,
    nm: Mapping[str, str],
    prefix: str,
    xinit: bool = False,
) -> List[str]:
    """The ``repro.sourcemap 1`` comment block shared by both writers.

    ``.sig`` lines map emitted identifiers back to raw signal names
    (only where they differ); ``.cell`` lines record every gate (with
    its exact op -- several ops share a BLIF cover), latch and flop in
    netlist *insertion* order, which the writers' sorted bodies lose
    but the fingerprint preserves; ``.xinit`` lines (Verilog) mark the
    state bits whose X reset value the HDL cannot express.
    """
    lines = [
        f"{prefix} repro.sourcemap 1",
        f"{prefix} .netlist {json.dumps(netlist.name)}",
    ]
    for sig in sorted(netlist.signals(), key=lambda s: nm[s]):
        if nm[sig] != sig:
            lines.append(f"{prefix} .sig {nm[sig]} {json.dumps(sig)}")
    for out, gate in netlist.gates.items():
        lines.append(f"{prefix} .cell gate {gate.op} {json.dumps(out)}")
    for q in netlist.latches:
        lines.append(f"{prefix} .cell latch {json.dumps(q)}")
    for q in netlist.flops:
        lines.append(f"{prefix} .cell flop {json.dumps(q)}")
    if xinit:
        # Verilog-only repairs: the port list cannot re-declare an input
        # as an output (the raw output list is recorded instead) and the
        # HDL has no X reset value.
        lines.append(f"{prefix} .outputs {json.dumps(list(netlist.outputs))}")
        for q, latch in netlist.latches.items():
            if latch.init is X:
                lines.append(f"{prefix} .xinit {json.dumps(q)}")
        for q, flop in netlist.flops.items():
            if flop.init is X:
                lines.append(f"{prefix} .xinit {json.dumps(q)}")
    return lines


# ----------------------------------------------------------------------
# Verilog
# ----------------------------------------------------------------------
_VERILOG_OPS = {
    "AND": " & ",
    "OR": " | ",
    "NAND": " & ",
    "NOR": " | ",
}


def _verilog_expr(gate: Gate, nm: Mapping[str, str]) -> str:
    ins = [nm[i] for i in gate.ins]
    op = gate.op
    if not ins and op in ("AND", "OR", "NAND", "NOR"):
        # empty variadic gates are constants: AND()=1, OR()=0, and the
        # inverting forms flip (matches the ternary land()/lor() bases)
        return "1'b1" if op in ("AND", "NOR") else "1'b0"
    if op in ("AND", "OR"):
        return _VERILOG_OPS[op].join(ins)
    if op in ("NAND", "NOR"):
        return "~(" + _VERILOG_OPS[op].join(ins) + ")"
    if op == "NOT":
        return f"~{ins[0]}"
    if op == "BUF":
        return ins[0]
    if op == "XOR":
        return f"{ins[0]} ^ {ins[1]}"
    if op == "MUX":
        return f"{ins[0]} ? {ins[1]} : {ins[2]}"
    if op == "CONST0":
        return "1'b0"
    if op == "CONST1":
        return "1'b1"
    raise AssertionError(f"unhandled op {op}")


def to_verilog(netlist: Netlist, module: Optional[str] = None) -> str:
    """Emit the netlist as a structural Verilog module.

    Transparent latches become level-sensitive ``always @*`` processes
    gated by ``clk`` (H latches) or ``~clk`` (L latches); flip-flops are
    rising-edge.  A ``rst`` input applies the declared init values.
    """
    nm = _name_map(netlist)
    module = module or _sanitize(netlist.name)
    ports = ["clk", "rst"]
    ports += [nm[i] for i in netlist.inputs]
    ports += [nm[o] for o in netlist.outputs if o not in netlist.inputs]
    lines: List[str] = [f"module {module} ("]
    lines.append("    " + ",\n    ".join(ports))
    lines.append(");")
    lines.append("  input clk, rst;")
    for i in netlist.inputs:
        lines.append(f"  input {nm[i]};")
    for o in netlist.outputs:
        if o not in netlist.inputs:
            lines.append(f"  output {nm[o]};")
    for out, gate in sorted(netlist.gates.items()):
        lines.append(f"  wire {nm[out]};")
    for q in sorted(netlist.latches):
        lines.append(f"  reg {nm[q]};")
    for q in sorted(netlist.flops):
        lines.append(f"  reg {nm[q]};")
    lines.append("")
    for out, gate in sorted(netlist.gates.items()):
        lines.append(f"  assign {nm[out]} = {_verilog_expr(gate, nm)};")
    lines.append("")
    for q, latch in sorted(netlist.latches.items()):
        gate_cond = "clk" if latch.phase is Phase.HIGH else "~clk"
        init = 0 if latch.init is X else latch.init
        lines.append("  always @* begin")
        lines.append(f"    if (rst) {nm[q]} = 1'b{init};")
        lines.append(f"    else if ({gate_cond}) {nm[q]} = {nm[latch.d]};")
        lines.append("  end")
    if netlist.flops:
        lines.append("")
        lines.append("  always @(posedge clk) begin")
        for q, flop in sorted(netlist.flops.items()):
            init = 0 if flop.init is X else flop.init
            lines.append(
                f"    {nm[q]} <= rst ? 1'b{init} : {nm[flop.d]};"
            )
        lines.append("  end")
    lines.append("endmodule")
    lines.extend(_sourcemap_lines(netlist, nm, "//", xinit=True))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# BLIF
# ----------------------------------------------------------------------
def cover_rows(op: str, n: int) -> List[Tuple[str, str]]:
    """The ``(plane, output)`` rows of one gate op's BLIF cover.

    ``n`` is the gate's fan-in.  :func:`to_blif` writes these rows, and
    the BLIF re-parse front-end (:mod:`repro.lint.frontends.blif`)
    recovers each gate's op by comparing its parsed rows with them.
    An unknown op raises ``ValueError``.
    """
    if op == "AND":
        return [("1" * n, "1")]
    if op == "NAND":
        return [("-" * i + "0" + "-" * (n - i - 1), "1") for i in range(n)]
    if op == "OR":
        return [("-" * i + "1" + "-" * (n - i - 1), "1") for i in range(n)]
    if op == "NOR":
        return [("0" * n, "1")]
    if op == "NOT":
        return [("0", "1")]
    if op == "BUF":
        return [("1", "1")]
    if op == "XOR":
        return [("10", "1"), ("01", "1")]
    if op == "MUX":  # (sel, when1, when0)
        return [("11-", "1"), ("0-1", "1")]
    if op == "CONST1":
        return [("", "1")]  # constant-1 function
    if op == "CONST0":
        return []  # empty cover = constant 0
    raise ValueError(f"unknown gate op {op!r}")


def to_blif(netlist: Netlist, model: Optional[str] = None) -> str:
    """Emit the netlist in BLIF (SIS input) format.

    Transparent latches and flip-flops both become ``.latch`` lines;
    latch phases are encoded with BLIF's ``ah``/``al`` (active-high /
    active-low) types and flip-flops with ``re`` (rising edge), all
    clocked by ``clk``.
    """
    nm = _name_map(netlist)
    model = model or _sanitize(netlist.name)
    lines = [f".model {model}"]
    if netlist.inputs:
        lines.append(".inputs " + " ".join(nm[i] for i in netlist.inputs))
    if netlist.outputs:
        lines.append(".outputs " + " ".join(nm[o] for o in netlist.outputs))
    lines.append(".clock clk")
    for q, latch in sorted(netlist.latches.items()):
        kind = "ah" if latch.phase is Phase.HIGH else "al"
        init = 3 if latch.init is X else latch.init
        lines.append(f".latch {nm[latch.d]} {nm[q]} {kind} clk {init}")
    for q, flop in sorted(netlist.flops.items()):
        init = 3 if flop.init is X else flop.init
        lines.append(f".latch {nm[flop.d]} {nm[q]} re clk {init}")
    for out, gate in sorted(netlist.gates.items()):
        ins = " ".join(nm[i] for i in gate.ins)
        header = f".names {ins} {nm[out]}".replace("  ", " ")
        lines.append(header)
        lines.extend(
            f"{plane} {value}"
            for plane, value in cover_rows(gate.op, len(gate.ins))
        )
    lines.append(".end")
    lines.extend(_sourcemap_lines(netlist, nm, "#"))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# SMV
# ----------------------------------------------------------------------
def _smv_expr(gate: Gate, nm: Mapping[str, str]) -> str:
    ins = [nm[i] for i in gate.ins]
    op = gate.op
    if op == "AND":
        return "(" + " & ".join(ins) + ")"
    if op == "OR":
        return "(" + " | ".join(ins) + ")"
    if op == "NAND":
        return "!(" + " & ".join(ins) + ")"
    if op == "NOR":
        return "!(" + " | ".join(ins) + ")"
    if op == "NOT":
        return f"!{ins[0]}"
    if op == "BUF":
        return ins[0]
    if op == "XOR":
        return f"({ins[0]} xor {ins[1]})"
    if op == "MUX":
        return f"({ins[0]} ? {ins[1]} : {ins[2]})"
    if op == "CONST0":
        return "FALSE"
    if op == "CONST1":
        return "TRUE"
    raise AssertionError(f"unhandled op {op}")


def to_smv(
    netlist: Netlist,
    specs: Sequence[str] = (),
    fairness: Sequence[str] = (),
) -> str:
    """Emit a NuSMV model of the netlist.

    The cycle-level semantics is used: flip-flops and latch pairs
    become ``next(...)`` assignments (a master/slave latch pair is
    collapsed onto its slave; standalone latches are treated as
    registers of their capture phase).  Primary inputs are free
    variables.  ``specs`` are CTL formulas over the *original* signal
    names (they are re-written with the same sanitiser), appended as
    ``SPEC`` clauses; ``fairness`` likewise as ``FAIRNESS``.
    """
    nm = _name_map(netlist)
    lines = ["MODULE main", "VAR"]
    for i in netlist.inputs:
        lines.append(f"  {nm[i]} : boolean;")
    state_elems: List[Tuple[str, str, object]] = []
    for q, latch in sorted(netlist.latches.items()):
        state_elems.append((q, latch.d, latch.init))
    for q, flop in sorted(netlist.flops.items()):
        state_elems.append((q, flop.d, flop.init))
    for q, _, _ in state_elems:
        lines.append(f"  {nm[q]} : boolean;")
    lines.append("DEFINE")
    for out, gate in sorted(netlist.gates.items()):
        lines.append(f"  {nm[out]} := {_smv_expr(gate, nm)};")
    lines.append("ASSIGN")
    for q, d, init in state_elems:
        if init is not X:
            lines.append(f"  init({nm[q]}) := {'TRUE' if init else 'FALSE'};")
        lines.append(f"  next({nm[q]}) := {nm[d]};")
    for formula in specs:
        lines.append(f"SPEC {_rewrite_names(formula, nm)}")
    for constraint in fairness:
        lines.append(f"FAIRNESS {_rewrite_names(constraint, nm)}")
    return "\n".join(lines) + "\n"


def _rewrite_names(formula: str, nm: Mapping[str, str]) -> str:
    """Replace raw signal names in a formula with sanitised ones."""
    out = formula
    # longest-first so 'c1.vp' is replaced before 'c1'
    for raw in sorted(nm, key=len, reverse=True):
        if raw in out:
            out = out.replace(raw, nm[raw])
    return out


def channel_specs_smv(channels: Iterable) -> List[str]:
    """The paper's four CTL properties, as NuSMV SPEC strings.

    ``channels`` are :class:`~repro.elastic.gates.GateChannel` objects;
    signal names are left raw (``to_smv`` sanitises them).
    """
    specs: List[str] = []
    for ch in channels:
        vp, sp, vn, sn = ch.vp, ch.sp, ch.vn, ch.sn
        specs.append(f"AG (({vp} & {sp}) -> AX {vp})")
        specs.append(f"AG (({vn} & {sn}) -> AX {vn})")
        specs.append(f"AG (!({vn} & {sp}) & !({vp} & {sn}))")
        specs.append(f"AG AF (({vp} & !{sp}) | ({vn} & !{sn}))")
    return specs
