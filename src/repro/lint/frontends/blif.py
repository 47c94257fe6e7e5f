"""BLIF re-parse front-end.

Parses the subset of BLIF our :func:`repro.rtl.export.to_blif` writer
emits -- and any foreign file built from the same vocabulary --
back into a :class:`~repro.rtl.netlist.Netlist`:

* ``.model`` / ``.inputs`` / ``.outputs`` / ``.clock`` / ``.end``;
* ``.latch d q [ah|al|re [control]] [init]`` -- ``ah``/``al`` become
  transparent H/L latches, ``re`` (or no type) a flip-flop; init 2/3
  map to X;
* ``.names`` with the fixed single-output covers of the gate library
  (AND/OR/NAND/NOR/NOT/BUF/XOR/MUX/CONST0/CONST1).  Arbitrary
  sum-of-products covers are rejected, not approximated.

When the file carries the exporter's ``repro.sourcemap 1`` comment
block, the parser restores the original netlist name, raw signal
names, cell insertion order, and the exact op of covers that several
ops share (a 1-input AND and a BUF have the same ``1 1`` cover); the
reconstructed netlist is then fingerprint-identical to the exported
one.  A recorded op is only trusted when regenerating its cover
matches the parsed rows (stale comments lose, the file wins).

Malformed input raises
:class:`~repro.lint.frontends.source_map.FrontendParseError` with a
``file:line`` anchor: duplicate ``.model``, truncated ``.names``
covers, undeclared wires, bad latch/init syntax, unsupported covers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.frontends.source_map import (
    FrontendParseError,
    ParsedDesign,
    SourceMap,
    SourceMapInfo,
    parse_sourcemap_comments,
)
from repro.rtl.export import cover_rows
from repro.rtl.logic import X
from repro.rtl.netlist import Netlist, Phase

__all__ = ["parse_blif"]


def _token_col(line: str, index: int) -> int:
    """1-based column of the ``index``-th whitespace-separated token."""
    col = 0
    seen = -1
    in_token = False
    for pos, ch in enumerate(line):
        if ch.isspace():
            in_token = False
        elif not in_token:
            in_token = True
            seen += 1
            if seen == index:
                col = pos + 1
                break
    return col or 1


#: Op recovery order: the canonical spelling of each shared cover comes
#: first (BUF before 1-input AND/OR, NOT before 1-input NAND/NOR,
#: CONST before 0-input variadics), so recovery is deterministic.
_RECOVERY_ORDER = (
    "CONST0", "CONST1", "BUF", "NOT", "XOR", "MUX", "AND", "OR", "NAND", "NOR",
)


def _op_from_cover(n: int, rows: Sequence[Tuple[str, str]]) -> Optional[str]:
    key = sorted(rows)
    for op in _RECOVERY_ORDER:
        arity_ok = (
            (op in ("CONST0", "CONST1") and n == 0)
            or (op in ("BUF", "NOT") and n == 1)
            or (op == "XOR" and n == 2)
            or (op == "MUX" and n == 3)
            or (op in ("AND", "OR", "NAND", "NOR"))
        )
        if arity_ok and sorted(cover_rows(op, n)) == key:
            return op
    return None


def _logical_lines(text: str) -> List[Tuple[int, str]]:
    """``(first_line_number, joined_text)`` with ``\\`` continuations."""
    out: List[Tuple[int, str]] = []
    pending: Optional[Tuple[int, str]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if pending is not None:
            start, acc = pending
            raw = acc + " " + raw
            lineno = start
            pending = None
        if raw.rstrip().endswith("\\"):
            pending = (lineno, raw.rstrip()[:-1])
            continue
        out.append((lineno, raw))
    if pending is not None:
        out.append(pending)
    return out


class _Cell:
    __slots__ = ("kind", "name", "op", "ins", "phase", "init", "line", "col")

    def __init__(self, kind, name, op, ins, phase, init, line, col):
        self.kind = kind    # "gate" | "latch" | "flop"
        self.name = name
        self.op = op        # gate op (gates only)
        self.ins = ins      # gate fan-in / (d,) for state
        self.phase = phase  # latch phase
        self.init = init    # state init value
        self.line = line
        self.col = col


def parse_blif(text: str, file: str = "<blif>") -> ParsedDesign:
    """Parse BLIF text into a netlist plus source map.

    ``file`` names the origin in source-map anchors and error messages.
    """
    lines = _logical_lines(text)

    # -- split comments from body, decode the source-map block ---------
    body: List[Tuple[int, str]] = []
    comments: List[Tuple[int, str]] = []
    for lineno, raw in lines:
        code, _, comment = raw.partition("#")
        if comment:
            comments.append((lineno, comment.strip()))
        if code.strip():
            body.append((lineno, code))
    info = parse_sourcemap_comments(comments, "#", file)

    model: Optional[str] = None
    inputs: List[Tuple[str, int, int]] = []
    outputs: List[Tuple[str, int, int]] = []
    cells: List[_Cell] = []
    ended = False

    i = 0
    while i < len(body):
        lineno, line = body[i]
        tokens = line.split()
        head = tokens[0]
        i += 1
        if ended and head != ".model":
            continue  # ignore trailing junk after .end (matches SIS)
        if head == ".model":
            if model is not None:
                raise FrontendParseError(
                    f"duplicate .model {tokens[1] if len(tokens) > 1 else ''!r} "
                    f"(model {model!r} already open)",
                    file=file, line=lineno,
                )
            model = tokens[1] if len(tokens) > 1 else ""
            ended = False
        elif head == ".inputs":
            for k, tok in enumerate(tokens[1:], start=1):
                inputs.append((tok, lineno, _token_col(line, k)))
        elif head == ".outputs":
            for k, tok in enumerate(tokens[1:], start=1):
                outputs.append((tok, lineno, _token_col(line, k)))
        elif head == ".clock":
            pass
        elif head == ".latch":
            args = tokens[1:]
            if len(args) < 2:
                raise FrontendParseError(
                    ".latch needs at least an input and an output",
                    file=file, line=lineno,
                )
            d, q, rest = args[0], args[1], args[2:]
            kind, phase = "flop", None
            if rest and rest[0] in ("ah", "al", "re", "fe", "as"):
                lt = rest[0]
                rest = rest[1:]
                if rest and rest[0] not in ("0", "1", "2", "3"):
                    rest = rest[1:]  # skip the control (clock) token
                if lt == "ah":
                    kind, phase = "latch", Phase.HIGH
                elif lt == "al":
                    kind, phase = "latch", Phase.LOW
                elif lt in ("fe", "as"):
                    raise FrontendParseError(
                        f"unsupported latch type {lt!r} (only ah/al/re)",
                        file=file, line=lineno,
                    )
            if len(rest) > 1:
                raise FrontendParseError(
                    f"trailing .latch tokens {rest[1:]}", file=file, line=lineno
                )
            init: object = X
            if rest:
                if rest[0] not in ("0", "1", "2", "3"):
                    raise FrontendParseError(
                        f"bad latch init {rest[0]!r}", file=file, line=lineno
                    )
                init = {"0": 0, "1": 1, "2": X, "3": X}[rest[0]]
            cells.append(_Cell(
                kind, q, None, (d,), phase, init,
                lineno, _token_col(line, 2),
            ))
        elif head == ".names":
            sigs = tokens[1:]
            if not sigs:
                raise FrontendParseError(
                    ".names needs an output", file=file, line=lineno
                )
            ins, out = tuple(sigs[:-1]), sigs[-1]
            rows: List[Tuple[str, str]] = []
            while i < len(body) and not body[i][1].split()[0].startswith("."):
                row_line, row = body[i]
                parts = row.split()
                plane, val = ("", parts[0]) if len(parts) == 1 else (parts[0], parts[1])
                if len(parts) > 2 or val not in ("0", "1"):
                    raise FrontendParseError(
                        f"bad cover row {row.strip()!r}", file=file, line=row_line
                    )
                if len(plane) != len(ins) or any(c not in "01-" for c in plane):
                    raise FrontendParseError(
                        f"cover row {row.strip()!r} does not match the "
                        f"{len(ins)} input(s) of {out!r} (truncated or "
                        "malformed .names cover)",
                        file=file, line=row_line,
                    )
                if val != "1":
                    raise FrontendParseError(
                        "off-set covers are not supported",
                        file=file, line=row_line,
                    )
                rows.append((plane, val))
                i += 1
            if ins and not rows:
                raise FrontendParseError(
                    f"truncated .names cover: {out!r} lists "
                    f"{len(ins)} input(s) but no rows",
                    file=file, line=lineno,
                )
            op = _op_from_cover(len(ins), rows)
            if op is None:
                raise FrontendParseError(
                    f"unsupported .names cover for {out!r}: only the "
                    "fixed gate-library covers are recognised",
                    file=file, line=lineno,
                )
            cells.append(_Cell(
                "gate", out, op, ins, None, None,
                lineno, _token_col(line, len(sigs)),
            ))
        elif head == ".end":
            ended = True
        elif head.startswith("."):
            raise FrontendParseError(
                f"unsupported BLIF directive {head!r}", file=file, line=lineno
            )
        else:
            raise FrontendParseError(
                f"cover row {line.strip()!r} outside any .names block",
                file=file, line=lineno,
            )
    if model is None:
        raise FrontendParseError("missing .model", file=file, line=1)

    return _build(
        model, inputs, outputs, cells, info, file,
        default_state_init=None,
    )


def _build(
    model: str,
    inputs: List[Tuple[str, int, int]],
    outputs: List[Tuple[str, int, int]],
    cells: List[_Cell],
    info: SourceMapInfo,
    file: str,
    default_state_init: Optional[object],
) -> ParsedDesign:
    """Shared back half of both parsers: validate, rename, reorder."""
    raw = {ident: raw_name for ident, raw_name in info.raw_names.items()}

    def rename(ident: str) -> str:
        return raw.get(ident, ident)

    # -- undeclared-wire check (on emitted identifiers) ----------------
    driven: Set[str] = {name for name, _, _ in inputs}
    driven.update(c.name for c in cells)
    for c in cells:
        for dep in c.ins:
            if dep not in driven:
                raise FrontendParseError(
                    f"undeclared wire {dep!r} (referenced by {c.name!r} "
                    "but never driven or declared as an input)",
                    file=file, line=c.line,
                )

    # -- duplicate-driver check ----------------------------------------
    seen_names: Set[str] = set(name for name, _, _ in inputs)
    for c in cells:
        if c.name in seen_names:
            raise FrontendParseError(
                f"signal {c.name!r} is driven more than once",
                file=file, line=c.line,
            )
        seen_names.add(c.name)

    # -- apply the source map: names, order, exact ops -----------------
    by_raw: Dict[str, _Cell] = {rename(c.name): c for c in cells}
    order = [rename(c.name) for c in cells]
    if info.cells:
        recorded = [name for _, name, _ in info.cells]
        if sorted(recorded) == sorted(order) and all(
            by_raw[name].kind == kind for kind, name, _ in info.cells
        ):
            order = recorded
            for kind, name, op in info.cells:
                cell = by_raw[name]
                if kind == "gate" and op is not None and op != cell.op:
                    # trust the recorded op only when it generates the
                    # very cover that was parsed (stale comments lose)
                    try:
                        same = sorted(cover_rows(op, len(cell.ins))) == sorted(
                            cover_rows(cell.op, len(cell.ins))
                        )
                    except ValueError:
                        same = False
                    if same:
                        cell.op = op
        # else: the block does not describe this file any more; ignore it

    nl = Netlist(info.netlist_name if info.netlist_name is not None else model)
    anchors: Dict[str, Tuple[int, int]] = {}
    for ident, line, col in inputs:
        nl.add_input(rename(ident))
        anchors[rename(ident)] = (line, col)
    x_inits = set(info.x_inits)
    for name in order:
        c = by_raw[name]
        try:
            if c.kind == "gate":
                nl.add_gate(c.op, tuple(rename(s) for s in c.ins), out=name)
            else:
                init = c.init
                if name in x_inits:
                    init = X  # the HDL spelled 1'b0; the source map wins
                elif init is None:
                    init = default_state_init
                if c.kind == "latch":
                    nl.add_latch(rename(c.ins[0]), c.phase, q=name, init=init)
                else:
                    nl.add_flop(rename(c.ins[0]), q=name, init=init)
        except ValueError as exc:
            raise FrontendParseError(str(exc), file=file, line=c.line) from None
        anchors[name] = (c.line, c.col)
    out_list = (
        list(info.outputs) if info.outputs is not None
        else [rename(ident) for ident, _, _ in outputs]
    )
    for o in out_list:
        nl.add_output(o)
    for ident, line, col in outputs:
        anchors.setdefault(rename(ident), (line, col))
    return ParsedDesign(
        netlist=nl, source_map=SourceMap(file=file, anchors=anchors)
    )
