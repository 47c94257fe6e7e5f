"""Re-parse front-ends: exported BLIF/Verilog back into lintable netlists.

The exporters of :mod:`repro.rtl.export` write deterministic BLIF and
structural Verilog with a ``repro.sourcemap 1`` comment trailer; the
parsers here reconstruct the :class:`~repro.rtl.netlist.Netlist` --
fingerprint-identical for our own exports -- together with a
:class:`SourceMap` anchoring every signal to file/line/column, which is
what lets ``repro lint --file design.blif`` report findings with SARIF
``physicalLocation`` entries.

:func:`parse_design_file` dispatches on the file extension:
``.blif`` -> :func:`parse_blif`, ``.v``/``.sv``/``.verilog`` ->
:func:`parse_verilog`.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.lint.frontends.blif import parse_blif
from repro.lint.frontends.source_map import (
    FrontendParseError,
    ParsedDesign,
    SourceMap,
    SourceMapInfo,
    attach_locations,
)
from repro.lint.frontends.verilog import parse_verilog

__all__ = [
    "FrontendParseError",
    "ParsedDesign",
    "SourceMap",
    "SourceMapInfo",
    "attach_locations",
    "parse_blif",
    "parse_design_file",
    "parse_verilog",
]

_PARSERS = {
    ".blif": parse_blif,
    ".v": parse_verilog,
    ".sv": parse_verilog,
    ".verilog": parse_verilog,
}


def parse_design_file(path: str, text: Optional[str] = None) -> ParsedDesign:
    """Parse one design file, choosing the parser by extension.

    ``text`` overrides reading from disk (handy for tests and for
    callers that already hold the bytes).  Raises
    :class:`FrontendParseError` for unknown extensions and malformed
    content alike.
    """
    ext = os.path.splitext(path)[1].lower()
    parser = _PARSERS.get(ext)
    if parser is None:
        known = ", ".join(sorted(_PARSERS))
        raise FrontendParseError(
            f"no parser for {path!r} (recognised extensions: {known})",
            file=path, line=1,
        )
    if text is None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parser(text, file=path)
