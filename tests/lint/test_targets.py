"""Every shipped design lints clean; every zoo fixture is flagged."""

import pytest

from repro.lint import LintReport
from repro.lint.targets import LINT_TARGETS, all_targets, run_lint


@pytest.mark.parametrize("target", all_targets())
def test_shipped_design_lints_clean(target):
    """No WARNING or ERROR on any built-in design (INFO notes about the
    intentionally-constant anti-token logic are expected)."""
    report = LintReport(LINT_TARGETS[target]())
    noisy = [f for f in report.findings if f.severity.name != "INFO"]
    assert report.clean, "\n".join(str(f) for f in noisy)


@pytest.mark.parametrize(
    "target, expected_rule",
    [("zoo:capacity1", "ELX005"), ("zoo:comb_cycle", "LNT005")],
)
def test_zoo_fixture_is_flagged(target, expected_rule):
    report = run_lint([target])
    assert [f.rule for f in report.errors()] == [expected_rule]
    assert not report.clean


@pytest.mark.parametrize(
    "target, expected_rule",
    [
        ("zoo:x_stuck", "LNT008"),
        ("zoo:x_observable", "LNT009"),
        ("zoo:dead_ee_arm", "ELX008"),
        ("zoo:starved_counterflow", "ELX009"),
    ],
)
def test_dataflow_zoo_fixture_warns(target, expected_rule):
    """The dataflow defects are WARNINGs (report stays 'clean' in the
    exit-code sense) but the named rule must fire with a witness."""
    report = run_lint([target])
    hits = [f for f in report.findings if f.rule == expected_rule]
    assert hits
    assert all(f.witness for f in hits)
    assert not report.errors()


def test_default_target_set_excludes_the_zoo():
    defaults = all_targets()
    assert defaults == sorted(defaults)
    assert not any(t.startswith("zoo:") for t in defaults)
    assert set(all_targets(include_zoo=True)) == set(LINT_TARGETS)


def test_unknown_target_names_the_alternatives():
    with pytest.raises(KeyError, match="unknown lint target"):
        run_lint(["nope"])
