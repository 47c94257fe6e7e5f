"""Stable content fingerprints for netlists and codegen artifacts.

The build cache (:mod:`repro.codegen.cache`) is content-addressed: an
artifact's directory name is the SHA-256 over a canonical JSON document
describing *exactly* what the generated code depends on --

* the netlist structure **in insertion order** (slot assignment, and
  therefore every generated statement, follows the order cells were
  added, so two netlists with the same cells in a different order are
  different artifacts);
* the codegen options (override-hook set, observed-signal set);
* the codegen version (:data:`CODEGEN_VERSION` bumps invalidate every
  cached module).

Lane count deliberately does **not** participate: generated modules
are lane-agnostic (the lane mask is a runtime parameter), so one
artifact serves 1, 64 and 1024 lanes alike.

X init values serialise as the string ``"X"`` (JSON has no ternary),
known inits as 0/1 ints -- unambiguous because the two sets are
disjoint.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, FrozenSet, Optional

from repro.rtl.logic import Value, is_known
from repro.rtl.netlist import Netlist

__all__ = [
    "CODEGEN_VERSION",
    "canonical_digest",
    "netlist_to_dict",
    "netlist_fingerprint",
    "artifact_key",
]

#: Bump whenever the emitted module's shape or semantics change; every
#: previously cached artifact is invalidated (its key changes).
#: 3: a module with no hook slot carries no guarded kernel.
#: 4: each phase program is cut to its live cone.
CODEGEN_VERSION = 4


def _init(value: Value) -> object:
    return int(value) if is_known(value) else "X"


def netlist_to_dict(netlist: Netlist) -> Dict[str, object]:
    """The canonical structural document of one netlist.

    Cell lists preserve insertion order on purpose -- see the module
    docstring.  ``outputs`` ride along for completeness even though
    they do not influence generated code.
    """
    return {
        "name": netlist.name,
        "inputs": list(netlist.inputs),
        "outputs": list(netlist.outputs),
        "gates": [
            [g.out, g.op, list(g.ins)] for g in netlist.gates.values()
        ],
        "latches": [
            [l.q, l.d, l.phase.value, _init(l.init)]
            for l in netlist.latches.values()
        ],
        "flops": [
            [f.q, f.d, _init(f.init)] for f in netlist.flops.values()
        ],
    }


def canonical_digest(payload: object) -> str:
    """SHA-256 hex digest of ``payload`` as canonical JSON (sorted keys,
    compact separators): the module, Kripke and lint cache keys and the
    fabric's runner-cache key all take this form."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def netlist_fingerprint(netlist: Netlist) -> str:
    """SHA-256 hex digest of the canonical netlist document."""
    return canonical_digest(netlist_to_dict(netlist))


def artifact_key(
    netlist: Netlist,
    hooks: Optional[FrozenSet[str]] = None,
    observe: Optional[FrozenSet[str]] = None,
) -> str:
    """The cache key of one generated module.

    ``hooks``/``observe`` of ``None`` mean "every named signal" (the
    fully general module) and hash differently from an explicit full
    set -- harmless: both keys name byte-identical artifacts, they are
    just built once each.
    """
    return canonical_digest({
        "kind": "compiled-simulator",
        "codegen_version": CODEGEN_VERSION,
        "netlist": netlist_to_dict(netlist),
        "hooks": sorted(hooks) if hooks is not None else None,
        "observe": sorted(observe) if observe is not None else None,
    })
