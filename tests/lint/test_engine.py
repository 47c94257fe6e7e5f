"""The common lint engine: reports, fingerprints, SARIF, baselines, obs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import RULES, Finding, LintReport, Severity
from repro.lint.baseline import load_baseline, new_findings, write_baseline
from repro.lint.sarif import sarif_json, to_sarif
from repro.lint.targets import run_lint
from repro.obs import TraceRecorder


def sample_report():
    return LintReport([
        Finding("LNT005", "netB", "x",
                "combinational cycle: x -> y -> x", path=("x", "y")),
        Finding("ELX004", "netA", "loop",
                "channel cycle loop -> back -> loop carries no token",
                path=("loop", "back")),
        Finding("LNT006", "netA", "g1", "AND gate is constant 0"),
    ])


# ----------------------------------------------------------------------
# Package root
# ----------------------------------------------------------------------
def test_constant_propagate_loads_no_front_end():
    """The area pipeline's ``constant_values`` import stays cheap: the
    package root does not pull in the front-ends, targets or SARIF."""
    script = (
        "import sys\n"
        "from repro.casestudy.fig9 import Config, build_fig9_spec\n"
        "from repro.rtl.area import constant_propagate\n"
        "from repro.synthesis.elaborate import to_gates\n"
        "netlist = to_gates(build_fig9_spec(Config.ACTIVE)).netlist\n"
        "constant_propagate(netlist)\n"
        "assert 'repro.lint.netlist_rules' in sys.modules\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.split()
    for module in ("repro.lint.frontends", "repro.lint.targets",
                   "repro.lint.sarif"):
        assert module not in out


# ----------------------------------------------------------------------
# Catalog and findings
# ----------------------------------------------------------------------
def test_catalog_is_stable():
    assert sorted(RULES) == [
        "ELX001", "ELX002", "ELX003", "ELX004", "ELX005", "ELX006",
        "ELX007", "ELX008", "ELX009",
        "LNT001", "LNT002", "LNT003", "LNT004", "LNT005", "LNT006",
        "LNT007", "LNT008", "LNT009",
    ]


def test_unknown_rule_code_is_rejected():
    with pytest.raises(ValueError, match="unknown lint rule"):
        Finding("LNT999", "t", "s", "m")


def test_severity_orders_and_maps_to_sarif():
    assert Severity.ERROR > Severity.WARNING > Severity.INFO
    assert Severity.ERROR.sarif_level == "error"
    assert Severity.WARNING.sarif_level == "warning"
    assert Severity.INFO.sarif_level == "note"


def test_fingerprint_ignores_message_but_not_path():
    a = Finding("LNT005", "t", "x", "one wording", path=("x", "y"))
    b = Finding("LNT005", "t", "x", "another wording", path=("x", "y"))
    c = Finding("LNT005", "t", "x", "one wording", path=("x", "z"))
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint


def test_report_sorts_and_dedupes():
    report = sample_report()
    report.extend(sample_report().findings)  # resubmit everything
    assert len(report) == 3
    assert [f.target for f in report] == ["netA", "netA", "netB"]
    assert not report.clean  # two errors present
    assert report.counts() == {"INFO": 1, "WARNING": 0, "ERROR": 2}
    assert [f.rule for f in report.errors()] == ["ELX004", "LNT005"]
    assert report.targets() == ["netA", "netB"]


def test_info_only_report_is_clean():
    report = LintReport([Finding("LNT006", "t", "g", "constant")])
    assert report.clean


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_json_and_sarif_are_deterministic_across_runs():
    targets = ["rtl:join", "zoo:capacity1", "zoo:comb_cycle"]
    first = run_lint(targets)
    second = run_lint(targets)
    assert first.to_json() == second.to_json()
    assert sarif_json(first) == sarif_json(second)
    # Target order must not matter either.
    third = run_lint(list(reversed(targets)))
    assert first.to_json() == third.to_json()


def test_report_json_shape():
    payload = json.loads(sample_report().to_json())
    assert payload["tool"] == "repro.lint"
    assert payload["counts"]["ERROR"] == 2
    first = payload["findings"][0]
    assert set(first) >= {
        "rule", "severity", "target", "subject", "message", "fingerprint",
    }
    # path only serialises when the finding carries one
    assert payload["findings"][0]["path"] == ["loop", "back"]
    assert "path" not in payload["findings"][1]


def test_render_mentions_every_finding_and_the_tally():
    text = sample_report().render()
    assert "LNT005" in text and "ELX004" in text
    assert "3 finding(s): 2 error(s), 0 warning(s), 1 note(s)" in text


# ----------------------------------------------------------------------
# SARIF 2.1.0
# ----------------------------------------------------------------------
def test_sarif_structure():
    log = to_sarif(sample_report())
    assert log["version"] == "2.1.0"
    assert log["$schema"].endswith("sarif-schema-2.1.0.json")
    run = log["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro.lint"
    # The whole catalog ships with every log, sorted by code.
    assert [r["id"] for r in driver["rules"]] == sorted(RULES)
    for result in run["results"]:
        assert driver["rules"][result["ruleIndex"]]["id"] == result["ruleId"]
        location = result["locations"][0]["logicalLocations"][0]
        assert location["fullyQualifiedName"].count("::") == 1
        assert "reproLint/v1" in result["partialFingerprints"]
    cycle = [r for r in run["results"] if r["ruleId"] == "LNT005"][0]
    assert cycle["properties"]["path"] == ["x", "y"]
    assert cycle["level"] == "error"


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
def test_baseline_roundtrip(tmp_path):
    report = sample_report()
    path = tmp_path / "baseline.json"
    assert write_baseline(report, path) == 3
    baseline = load_baseline(path)
    assert new_findings(report, baseline) == []
    # A fresh finding survives the suppression.
    report.add(Finding("LNT002", "netC", "ghost", "never driven"))
    fresh = new_findings(report, baseline)
    assert [f.rule for f in fresh] == ["LNT002"]


def test_baseline_survives_rewording(tmp_path):
    original = LintReport([Finding("LNT005", "t", "x", "old text",
                                   path=("x", "y"))])
    path = tmp_path / "baseline.json"
    write_baseline(original, path)
    reworded = LintReport([Finding("LNT005", "t", "x", "new text",
                                   path=("x", "y"))])
    assert new_findings(reworded, load_baseline(path)) == []


def test_malformed_baseline_is_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"fingerprints": "oops"}')
    with pytest.raises(ValueError, match="malformed baseline"):
        load_baseline(path)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_findings_emit_as_trace_events():
    recorder = TraceRecorder(capacity=16)
    report = sample_report()
    assert report.emit(recorder) == 3
    events = [e for e in recorder.events if e.kind == "finding"]
    assert len(events) == 3
    cycle_event = [e for e in events if e.value == "LNT005"][0]
    assert cycle_event.cycle == 0
    assert cycle_event.subject == "x"
    assert cycle_event.extra["severity"] == "ERROR"
    assert cycle_event.extra["path"] == ["x", "y"]
    # Events serialise to JSONL like every other kind.
    json.loads(cycle_event.to_json())
