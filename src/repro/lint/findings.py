"""The reporting spine of the static analyzer.

Both lint front-ends -- the netlist rules of
:mod:`repro.lint.netlist_rules` and the elastic-protocol rules of
:mod:`repro.lint.elastic_rules` -- emit :class:`Finding` objects against
the stable rule catalog below and collect them into a
:class:`LintReport`.

Rule codes are part of the tool's contract: ``LNT0xx`` rules check the
gate/latch netlist level, ``ELX0xx`` rules check the elastic protocol
level (specs, behavioural networks, DMG abstractions).  Codes are never
renumbered; retired rules keep their slot.

Determinism is load-bearing: findings sort on a total key and the JSON
serialisation is byte-stable, so two runs over the same design produce
identical reports, and the baseline mechanism (:mod:`repro.lint.baseline`)
can key suppressions on content fingerprints that survive message
rewording.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


class Severity(enum.IntEnum):
    """Finding severity, ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    @property
    def sarif_level(self) -> str:
        """The SARIF 2.1.0 ``level`` for this severity."""
        return {"INFO": "note", "WARNING": "warning", "ERROR": "error"}[self.name]


@dataclass(frozen=True)
class Rule:
    """One catalog entry: a stable code, a default severity, and the
    paper discipline the rule encodes."""

    code: str
    title: str
    severity: Severity
    clause: str


#: The rule catalog.  ``LNT0xx`` = netlist front-end, ``ELX0xx`` =
#: elastic front-end.  DESIGN.md carries the full prose catalog.
RULES: Dict[str, Rule] = {
    r.code: r
    for r in [
        Rule("LNT001", "multiply-driven signal", Severity.ERROR,
             "single-driver netlist discipline"),
        Rule("LNT002", "floating signal", Severity.ERROR,
             "every referenced signal needs a driver"),
        Rule("LNT003", "dead cell", Severity.WARNING,
             "logic outside the output cone is unobservable"),
        Rule("LNT004", "same-phase transparent latch path", Severity.WARNING,
             "two-phase clocking: H latches must feed L latches (Fig. 3)"),
        Rule("LNT005", "combinational cycle", Severity.ERROR,
             "token-cancellation gates sit at EHB boundaries precisely so "
             "no combinational cycle arises (Sect. 5)"),
        Rule("LNT006", "constant net", Severity.INFO,
             "anti-token logic of channels that never see anti-tokens "
             "reduces to constants (Sect. 6 simplification)"),
        Rule("LNT007", "uninitialised state element", Severity.WARNING,
             "X-valued reset state is a structural X source"),
        Rule("LNT008", "state bit can never leave X", Severity.WARNING,
             "a state bit whose reachable-value set stays {X} after "
             "reset is permanently unknown: no input assignment ever "
             "resolves it (dataflow: value-set fixpoint over the "
             "sequential abstraction)"),
        Rule("LNT009", "uncovered reset is observable", Severity.WARNING,
             "an X-initialised register that reaches a primary output "
             "through combinational logic only is observable before "
             "its first load: the environment sees X in cycle 0 "
             "(dataflow: backward observability fixpoint)"),
        Rule("ELX001", "spec connectivity", Severity.ERROR,
             "every port connects exactly once with the declared role"),
        Rule("ELX002", "channel polarity", Severity.ERROR,
             "each channel has one {V+, S-} producer and one {S+, V-} "
             "consumer (Sect. 3 dual protocol)"),
        Rule("ELX003", "controller shape", Severity.ERROR,
             "join/fork arity, G-gate masks and buffer occupancy must "
             "match their declarations (Sect. 5/6)"),
        Rule("ELX004", "token-free channel cycle", Severity.ERROR,
             "liveness: every cycle must carry at least one token "
             "(Theorem, Sect. 2.2)"),
        Rule("ELX005", "bubble-free channel cycle", Severity.ERROR,
             "every cycle needs spare EB capacity for tokens to advance; "
             "a full capacity-1 loop deadlocks below the DMG abstraction"),
        Rule("ELX006", "annihilator-free counterflow cycle", Severity.ERROR,
             "an early join's anti-tokens must terminate in an "
             "annihilating buffer or passive interface (Sect. 4)"),
        Rule("ELX007", "inert passive interface", Severity.INFO,
             "a passive anti-token interface without any early-evaluation "
             "join can never see an anti-token (Fig. 7(a))"),
        Rule("ELX008", "dead early-evaluation arm", Severity.WARNING,
             "a threshold guard met every cycle by the other, "
             "persistently valid arms never depends on this arm: its "
             "G-gate and pending logic are statically irrelevant "
             "(Sect. 6 simplification, dataflow: token-availability "
             "fixpoint)"),
        Rule("ELX009", "counterflow never annihilates", Severity.WARNING,
             "anti-tokens emitted into a channel where no token can "
             "ever arrive never meet one and accumulate forever "
             "(Sect. 4 counterflow; refines ELX006 beyond cycles, "
             "dataflow: token-availability fixpoint)"),
    ]
}


@dataclass(frozen=True)
class SourceLocation:
    """A file/line/column anchor for findings on re-parsed designs.

    Produced by the :mod:`repro.lint.frontends` parsers' source maps;
    1-based line and column, SARIF-style.
    """

    file: str
    line: int
    column: int = 1

    def to_dict(self) -> Dict[str, object]:
        return {"file": self.file, "line": self.line, "column": self.column}

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class Finding:
    """One rule violation against one subject of one lint target.

    ``path`` carries the cycle or latch-to-latch path in flow order when
    the rule reports one; it participates in the fingerprint (a cycle
    through different nodes is a different finding) while ``message``
    does not (rewording a diagnostic must not invalidate baselines).

    ``witness`` is an optional machine-checkable explanation produced
    by the dataflow rules -- a JSON-native mapping (strings, ints,
    lists, dicts only) that the test suite replays against the design.
    ``location`` is an optional file anchor attached when the finding
    came from a parsed BLIF/Verilog file.  Neither participates in the
    fingerprint: a witness is derived evidence and a location is
    presentation, so baselines survive both.
    """

    rule: str
    target: str
    subject: str
    message: str
    path: Tuple[str, ...] = ()
    witness: Optional[Dict[str, object]] = None
    location: Optional[SourceLocation] = None

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown lint rule {self.rule!r}")

    @property
    def severity(self) -> Severity:
        return RULES[self.rule].severity

    @property
    def fingerprint(self) -> str:
        blob = "|".join((self.rule, self.target, self.subject, *self.path))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def sort_key(self) -> Tuple:
        return (self.target, self.rule, self.subject, self.path, self.message)

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity.name,
            "target": self.target,
            "subject": self.subject,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }
        if self.path:
            d["path"] = list(self.path)
        if self.witness is not None:
            d["witness"] = self.witness
        if self.location is not None:
            d["location"] = self.location.to_dict()
        return d

    def __str__(self) -> str:
        where = f" ({self.location})" if self.location else ""
        return (f"{self.severity.name:7s} {self.rule} "
                f"[{self.target}] {self.subject}{where}: {self.message}")


class LintReport:
    """A sorted, deduplicated collection of findings."""

    def __init__(self, findings: Iterable[Finding] = ()) -> None:
        self.findings: List[Finding] = []
        self._seen: set = set()
        self.extend(findings)

    # -- collection ----------------------------------------------------
    def add(self, finding: Finding) -> None:
        key = (finding.fingerprint, finding.message)
        if key not in self._seen:
            self._seen.add(key)
            self.findings.append(finding)
            self.findings.sort(key=Finding.sort_key)

    def extend(self, findings: Iterable[Finding]) -> None:
        for f in findings:
            self.add(f)

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)

    # -- queries -------------------------------------------------------
    def by_severity(self, severity: Severity) -> List[Finding]:
        return [f for f in self.findings if f.severity == severity]

    def errors(self) -> List[Finding]:
        return self.by_severity(Severity.ERROR)

    def counts(self) -> Dict[str, int]:
        counts = {s.name: 0 for s in Severity}
        for f in self.findings:
            counts[f.severity.name] += 1
        return counts

    @property
    def clean(self) -> bool:
        """No WARNING or ERROR findings (INFO notes are allowed --
        elaborated netlists intentionally contain constant anti-token
        logic that synthesis sweeps away)."""
        return not any(f.severity >= Severity.WARNING for f in self.findings)

    def targets(self) -> List[str]:
        return sorted({f.target for f in self.findings})

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "tool": "repro.lint",
            "counts": self.counts(),
            "targets": self.targets(),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self) -> str:
        """Deterministic JSON: same designs => identical bytes."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        """The human-facing table printed by ``repro lint``."""
        lines = [str(f) for f in self.findings]
        c = self.counts()
        lines.append(
            f"{len(self.findings)} finding(s): {c['ERROR']} error(s), "
            f"{c['WARNING']} warning(s), {c['INFO']} note(s)"
        )
        return "\n".join(lines)

    # -- observability -------------------------------------------------
    def emit(self, recorder, cycle: int = 0) -> int:
        """Emit every finding as a structured ``finding`` trace event.

        ``recorder`` is a :class:`~repro.obs.recorder.TraceRecorder`;
        static findings are stamped with ``cycle`` (they precede the
        simulation, so 0 by convention).  Returns the number emitted.
        """
        for f in self.findings:
            recorder.emit(
                cycle, "finding", f.subject, value=f.rule,
                extra={
                    "severity": f.severity.name,
                    "target": f.target,
                    "message": f.message,
                    **({"path": list(f.path)} if f.path else {}),
                },
            )
        return len(self.findings)


def render_witness(witness: Dict[str, object]) -> List[str]:
    """Human-readable lines for one finding's witness.

    Renders the shared witness vocabulary of the dataflow rules:
    ``path``/``chain`` keys become arrow chains, ``chains`` one chain
    per line, ``inputs`` a value assignment; remaining scalar keys
    print as ``key: value``.  The CLI's ``--explain`` and the tests
    share this one renderer.
    """
    kind = witness.get("kind")
    lines: List[str] = [f"witness ({kind}):" if kind else "witness:"]
    for key in sorted(witness):
        if key == "kind":
            continue
        value = witness[key]
        if key in ("path", "chain") and isinstance(value, list):
            lines.append(f"  {key}: " + " -> ".join(map(str, value)))
        elif key == "chains" and isinstance(value, list):
            for item in value:
                lines.append("  chain: " + " -> ".join(map(str, item)))
        elif key == "inputs" and isinstance(value, dict):
            assign = ", ".join(f"{n}={value[n]}" for n in sorted(value))
            lines.append(f"  inputs: {assign}")
        else:
            lines.append(f"  {key}: {value}")
    return lines
