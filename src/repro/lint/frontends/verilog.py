"""Structural-Verilog re-parse front-end.

Parses the subset :func:`repro.rtl.export.to_verilog` emits back into a
:class:`~repro.rtl.netlist.Netlist`:

* one ``module`` with ``clk``/``rst`` plus one declaration per port;
* ``assign`` statements over the gate library's expression shapes
  (``a & b``, ``a | b``, ``~(...)``, ``~a``, ``a ^ b``, ``s ? a : b``,
  ``1'b0``/``1'b1``, bare buffers);
* level-sensitive latch processes (``always @* begin / if (rst) ... /
  else if (clk|~clk) ... / end``) and the single rising-edge flop
  process (``q <= rst ? 1'b0 : d;`` rows).

Anything outside this subset (behavioural code, instances, vectors)
raises :class:`~repro.lint.frontends.source_map.FrontendParseError`
with a ``file:line`` anchor.

The exporter's ``repro.sourcemap 1`` comment block restores raw names,
cell order, the exact ops behind ambiguous spellings (``a`` is a BUF or
a 1-input AND; ``~(a)`` a 1-input NAND or NOR; ``1'b1`` a CONST1 or an
empty AND), the full output list (the port list cannot re-declare an
input as an output) and X reset values (Verilog spells them ``1'b0``).
With the block present, round-tripping our own export reproduces the
original fingerprint bit-for-bit.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.lint.frontends.blif import _Cell, _build
from repro.lint.frontends.source_map import (
    FrontendParseError,
    ParsedDesign,
    parse_sourcemap_comments,
)
from repro.rtl.netlist import Phase

__all__ = ["parse_verilog"]

_ID = r"[A-Za-z_][A-Za-z0-9_$]*"
_MODULE = re.compile(rf"\bmodule\s+({_ID})\b")
_DECL = re.compile(rf"^(input|output|wire|reg)\s+(.+?)\s*;$")
_ASSIGN = re.compile(rf"^assign\s+({_ID})\s*=\s*(.+?)\s*;$")
_LATCH_RST = re.compile(rf"^if\s*\(rst\)\s*({_ID})\s*=\s*1'b([01])\s*;$")
_LATCH_UPD = re.compile(rf"^else\s+if\s*\((~?clk)\)\s*({_ID})\s*=\s*({_ID})\s*;$")
_FLOP_ROW = re.compile(
    rf"^({_ID})\s*<=\s*rst\s*\?\s*1'b([01])\s*:\s*({_ID})\s*;$"
)
_CONST = re.compile(r"^1'b([01])$")
_INV_GROUP = re.compile(r"^~\((.+)\)$")
_INV = re.compile(rf"^~({_ID})$")
_MUX = re.compile(rf"^({_ID})\s*\?\s*({_ID})\s*:\s*({_ID})$")
_XOR = re.compile(rf"^({_ID})\s*\^\s*({_ID})$")
_IDENT = re.compile(rf"^{_ID}$")


def _split_idents(expr: str, sep: str) -> Optional[List[str]]:
    parts = [p.strip() for p in expr.split(sep)]
    if all(_IDENT.fullmatch(p) for p in parts):
        return parts
    return None


def _parse_expr(expr: str, file: str, line: int) -> Tuple[str, Tuple[str, ...]]:
    """``(op, ins)`` of one assign right-hand side.

    Shared spellings resolve to their canonical op (BUF, NOT, NAND,
    CONST); the source map restores the exact one afterwards.
    """
    expr = expr.strip()
    m = _CONST.fullmatch(expr)
    if m:
        return ("CONST1" if m.group(1) == "1" else "CONST0"), ()
    m = _INV_GROUP.fullmatch(expr)
    if m:
        inner = m.group(1).strip()
        for sep, op in ((" & ", "NAND"), (" | ", "NOR")):
            if sep in inner:
                ids = _split_idents(inner, sep)
                if ids:
                    return op, tuple(ids)
        if _IDENT.fullmatch(inner):
            return "NAND", (inner,)  # canonical 1-input inverting form
    m = _INV.fullmatch(expr)
    if m:
        return "NOT", (m.group(1),)
    m = _MUX.fullmatch(expr)
    if m:
        return "MUX", m.groups()
    m = _XOR.fullmatch(expr)
    if m:
        return "XOR", m.groups()
    for sep, op in ((" & ", "AND"), (" | ", "OR")):
        if sep in expr:
            ids = _split_idents(expr, sep)
            if ids:
                return op, tuple(ids)
    if _IDENT.fullmatch(expr):
        return "BUF", (expr,)
    raise FrontendParseError(
        f"unsupported expression {expr!r} (structural subset only)",
        file=file, line=line,
    )


def parse_verilog(text: str, file: str = "<verilog>") -> ParsedDesign:
    """Parse structural Verilog text into a netlist plus source map."""
    # -- split comments, decode the source-map block -------------------
    body: List[Tuple[int, str]] = []
    comments: List[Tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code, _, comment = raw.partition("//")
        if comment:
            comments.append((lineno, comment.strip()))
        if code.strip():
            body.append((lineno, code))
    info = parse_sourcemap_comments(comments, "//", file)

    module: Optional[str] = None
    inputs: List[Tuple[str, int, int]] = []
    outputs: List[Tuple[str, int, int]] = []
    cells: List[_Cell] = []

    i = 0
    n = len(body)
    in_header = False
    while i < n:
        lineno, raw = body[i]
        line = raw.strip()
        i += 1
        if module is None:
            m = _MODULE.search(line)
            if m:
                module = m.group(1)
                in_header = ");" not in line
            continue  # skip everything before the header
        if in_header:
            # port-list lines; the declarations are authoritative
            in_header = ");" not in line
            continue
        if line == "endmodule":
            break
        m = _DECL.fullmatch(line)
        if m:
            kind, names = m.group(1), m.group(2)
            if kind in ("wire", "reg"):
                continue  # positions come from the driving statements
            for name in (s.strip() for s in names.split(",")):
                if name in ("clk", "rst") or not name:
                    continue
                col = raw.find(name) + 1
                if kind == "input":
                    inputs.append((name, lineno, col))
                else:
                    outputs.append((name, lineno, col))
            continue
        m = _ASSIGN.fullmatch(line)
        if m:
            out, expr = m.groups()
            op, ins = _parse_expr(expr, file, lineno)
            cells.append(_Cell(
                "gate", out, op, ins, None, None,
                lineno, raw.find(out) + 1,
            ))
            continue
        if re.fullmatch(r"always\s*@\*\s*begin", line):
            if i + 1 >= n:
                raise FrontendParseError(
                    "truncated latch process", file=file, line=lineno
                )
            rst_no, rst_line = body[i]
            upd_no, upd_line = body[i + 1]
            m_rst = _LATCH_RST.fullmatch(rst_line.strip())
            m_upd = _LATCH_UPD.fullmatch(upd_line.strip())
            if not m_rst or not m_upd:
                raise FrontendParseError(
                    "latch process must be 'if (rst) q = 1'bN; "
                    "else if (clk|~clk) q = d;'",
                    file=file, line=rst_no,
                )
            q, init = m_rst.group(1), int(m_rst.group(2))
            cond, q2, d = m_upd.groups()
            if q2 != q:
                raise FrontendParseError(
                    f"latch process drives {q!r} and {q2!r}",
                    file=file, line=upd_no,
                )
            phase = Phase.HIGH if cond == "clk" else Phase.LOW
            cells.append(_Cell(
                "latch", q, None, (d,), phase, init,
                rst_no, rst_line.find(q) + 1,
            ))
            i += 2
            if i < n and body[i][1].strip() == "end":
                i += 1
            continue
        if re.fullmatch(r"always\s*@\(\s*posedge\s+clk\s*\)\s*begin", line):
            while i < n and body[i][1].strip() != "end":
                row_no, row = body[i]
                m_row = _FLOP_ROW.fullmatch(row.strip())
                if not m_row:
                    raise FrontendParseError(
                        f"unsupported flop row {row.strip()!r}",
                        file=file, line=row_no,
                    )
                q, init, d = m_row.groups()
                cells.append(_Cell(
                    "flop", q, None, (d,), None, int(init),
                    row_no, row.find(q) + 1,
                ))
                i += 1
            if i < n:
                i += 1  # consume the 'end'
            continue
        if line == "end":
            continue
        raise FrontendParseError(
            f"unsupported statement {line!r} (structural subset only)",
            file=file, line=lineno,
        )
    if module is None:
        raise FrontendParseError("missing module header", file=file, line=1)

    return _build(
        module, inputs, outputs, cells, info, file,
        default_state_init=0,
    )
