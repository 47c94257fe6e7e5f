"""The trace-event taxonomy shared by every simulator.

One :class:`TraceEvent` is one cycle-stamped observation.  The ``kind``
vocabulary (see :data:`EVENT_KINDS`) covers the dynamic phenomena the
paper argues about:

========== ===========================================================
kind       meaning
========== ===========================================================
edge       a wire settled to a new known value (``value`` is 0/1)
x-onset    a wire went from a known value back to unknown (``X``)
transfer+  a token moved forward on a channel
transfer-  an anti-token moved backward on a channel
kill       token and anti-token annihilated on a channel
retry+     a token was offered and stalled (back-pressure cycle)
retry-     an anti-token was offered and stalled
idle       nothing was offered on the channel (a bubble)
ee-fire    an early-evaluation join fired; ``extra['missing']`` names
           the inputs left owing anti-tokens, ``extra['early']`` is
           True when that list is non-empty
invariant  the equation (2) invariant broke on the channel (fault runs)
finding    a static-analysis finding (:mod:`repro.lint`); ``value`` is
           the rule code, ``extra`` the severity/target/message (and
           cycle path when the rule reports one); stamped cycle 0
========== ===========================================================

``subject`` names the channel or wire; the behavioural channel wires
are ``<channel>.vp`` / ``.sp`` / ``.vn`` / ``.sn``, matching the VCD
variable mapping documented in DESIGN.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

from repro.elastic.protocol import CATEGORY

__all__ = ["EVENT_KINDS", "TraceEvent"]

EVENT_KINDS = (
    "edge",
    "x-onset",
    *CATEGORY.values(),
    "ee-fire",
    "invariant",
    "finding",
)


@dataclass(frozen=True)
class TraceEvent:
    """One cycle-stamped structured event."""

    cycle: int
    kind: str
    subject: str
    value: object = None
    extra: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "t": self.cycle,
            "kind": self.kind,
            "subject": self.subject,
        }
        if self.value is not None:
            d["value"] = self.value
        if self.extra:
            d.update(self.extra)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"), default=str)

    def __str__(self) -> str:
        value = "" if self.value is None else f" = {self.value}"
        return f"[{self.cycle:6d}] {self.kind:10s} {self.subject}{value}"
