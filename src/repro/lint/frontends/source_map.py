"""Shared plumbing of the re-parse front-ends.

Both parsers (:mod:`repro.lint.frontends.blif`,
:mod:`repro.lint.frontends.verilog`) produce a :class:`ParsedDesign`:
the reconstructed :class:`~repro.rtl.netlist.Netlist` plus a
:class:`SourceMap` anchoring every signal to the file/line/column that
defines it.  ``run_lint``-style callers attach those anchors to their
findings with :func:`attach_locations`, which is what puts
``physicalLocation`` entries into the SARIF output.

:class:`SourceMapInfo` is the decoded ``repro.sourcemap 1`` comment
block our exporters append (see
:func:`repro.rtl.export._sourcemap_lines`): the original netlist name,
the ident-to-raw-name table, the cell insertion order with exact gate
ops, and the Verilog-only output-list/X-init repairs.  Files without
the block (foreign BLIF/Verilog) still parse; they just keep their
emitted identifiers and file order, so fingerprint equality with the
in-memory netlist is only guaranteed for our own exports.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.findings import Finding, SourceLocation

__all__ = [
    "FrontendParseError",
    "ParsedDesign",
    "SourceMap",
    "SourceMapInfo",
    "attach_locations",
    "parse_sourcemap_comments",
]


class FrontendParseError(ValueError):
    """A malformed input file, with a file/line anchor in the message."""

    def __init__(self, message: str, file: str = "", line: int = 0) -> None:
        where = f"{file}:{line}: " if file else ""
        super().__init__(where + message)
        self.file = file
        self.line = line


@dataclass(frozen=True)
class SourceMap:
    """Signal-name to file/line/column anchors for one parsed file."""

    file: str
    anchors: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def location(self, signal: str) -> Optional[SourceLocation]:
        anchor = self.anchors.get(signal)
        if anchor is None:
            return None
        return SourceLocation(file=self.file, line=anchor[0], column=anchor[1])

    def __len__(self) -> int:
        return len(self.anchors)


@dataclass
class ParsedDesign:
    """A reconstructed netlist plus its source map."""

    netlist: object  # repro.rtl.netlist.Netlist (kept loose for docs tools)
    source_map: SourceMap

    @property
    def name(self) -> str:
        return self.netlist.name


@dataclass
class SourceMapInfo:
    """The decoded ``repro.sourcemap 1`` comment block (or an empty one)."""

    present: bool = False
    netlist_name: Optional[str] = None
    #: emitted identifier -> raw signal name (identity entries omitted)
    raw_names: Dict[str, str] = field(default_factory=dict)
    #: (kind, raw_name, op-or-None) per cell, in netlist insertion order
    cells: List[Tuple[str, str, Optional[str]]] = field(default_factory=list)
    #: raw output list (Verilog repair; None = use the parsed decls)
    outputs: Optional[List[str]] = None
    #: raw names of X-initialised state bits (Verilog repair)
    x_inits: List[str] = field(default_factory=list)


def parse_sourcemap_comments(
    lines: Iterable[Tuple[int, str]], prefix: str, file: str
) -> SourceMapInfo:
    """Decode the source-map directives from comment payloads.

    ``lines`` yields ``(line_number, text)`` for every comment line with
    ``prefix`` (``#`` or ``//``) already stripped.  Unknown directives
    are ignored (forward compatibility); malformed known ones raise
    :class:`FrontendParseError`.
    """
    info = SourceMapInfo()
    for lineno, text in lines:
        parts = text.split(None, 1)
        if not parts:
            continue
        head, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        try:
            if head == "repro.sourcemap":
                info.present = True
            elif head == ".netlist":
                info.netlist_name = json.loads(rest)
            elif head == ".sig":
                ident, raw_json = rest.split(None, 1)
                info.raw_names[ident] = json.loads(raw_json)
            elif head == ".cell":
                fields = rest.split(None, 2)
                kind = fields[0]
                if kind == "gate":
                    op, raw_json = fields[1], fields[2]
                    info.cells.append(("gate", json.loads(raw_json), op))
                elif kind in ("latch", "flop"):
                    raw_json = rest.split(None, 1)[1]
                    info.cells.append((kind, json.loads(raw_json), None))
                else:
                    raise ValueError(f"unknown cell kind {kind!r}")
            elif head == ".outputs":
                info.outputs = list(json.loads(rest))
            elif head == ".xinit":
                info.x_inits.append(json.loads(rest))
        except (ValueError, IndexError) as exc:
            raise FrontendParseError(
                f"malformed source-map directive {text!r}: {exc}",
                file=file, line=lineno,
            ) from None
    return info


def attach_locations(
    findings: Iterable[Finding], source_map: SourceMap
) -> List[Finding]:
    """Findings with their subjects anchored to the parsed file.

    Every finding gets the subject's anchor when the source map has
    one; findings on unmapped subjects (e.g. rule-level notes) fall
    back to line 1 of the file, so *every* finding on a parsed target
    carries a ``physicalLocation``.  Locations sit outside the
    fingerprint, so cached/baselined findings are unaffected.
    """
    out: List[Finding] = []
    fallback = SourceLocation(file=source_map.file, line=1, column=1)
    for f in findings:
        loc = source_map.location(f.subject) or fallback
        out.append(dataclasses.replace(f, location=loc))
    return out
