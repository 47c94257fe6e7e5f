"""Baseline (suppression) files for intentional findings.

A baseline is a JSON file of finding fingerprints.  ``repro lint
--baseline FILE`` subtracts the recorded fingerprints before deciding
the exit code, so a design with known, accepted findings stays green
until a *new* finding appears.  Fingerprints hash the rule, target,
subject and path -- not the message -- so diagnostics can be reworded
without invalidating a baseline.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Set, Union

from repro.lint.findings import Finding, LintReport

__all__ = ["load_baseline", "new_findings", "write_baseline"]


def write_baseline(report: LintReport, path: Union[str, Path]) -> int:
    """Record every finding of ``report``; returns the count written."""
    fingerprints = sorted({f.fingerprint for f in report.findings})
    payload = {"tool": "repro.lint", "fingerprints": fingerprints}
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return len(fingerprints)


def load_baseline(path: Union[str, Path]) -> Set[str]:
    """The suppressed fingerprints of one baseline file.

    Raises :class:`OSError` when the file cannot be read, and
    :class:`ValueError` naming the file when it is not a baseline.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ValueError(f"{path}: malformed baseline ({exc})") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: malformed baseline (not a JSON object)")
    fingerprints = payload.get("fingerprints", [])
    if not isinstance(fingerprints, list) or not all(
        isinstance(f, str) for f in fingerprints
    ):
        raise ValueError(f"{path}: malformed baseline (fingerprints "
                         "must be a list of strings)")
    return set(fingerprints)


def new_findings(report: LintReport, baseline: Set[str]) -> List[Finding]:
    """Findings of ``report`` not suppressed by ``baseline``."""
    return [f for f in report.findings if f.fingerprint not in baseline]
