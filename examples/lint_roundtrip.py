"""Export -> re-parse -> re-lint every shipped design, and diff.

The re-parse front-end contract in one script:

1. export every shipped gate-level design to BLIF *and* structural
   Verilog (``repro.rtl.export``);
2. parse each file back (``repro.lint.frontends``) and check the
   reconstructed netlist is **fingerprint-identical** to the in-memory
   one -- names, cell order, ops, phases and reset values all survive;
3. lint the parsed netlist and diff the findings against the in-memory
   lint, locations aside: same rules, same subjects, same fingerprints,
   and every re-parsed finding additionally anchored to file/line/column;
4. write the located SARIF log for the whole sweep into ``artifacts/``
   when that directory exists (CI uploads it).

Run me:  PYTHONPATH=src python examples/lint_roundtrip.py [artifacts-dir]
"""

import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.codegen.fingerprint import netlist_fingerprint  # noqa: E402
from repro.lint import LintReport, lint_netlist  # noqa: E402
from repro.lint.frontends import parse_design_file  # noqa: E402
from repro.lint.sarif import sarif_json  # noqa: E402
from repro.lint.targets import lint_file  # noqa: E402
from repro.rtl.export import to_blif, to_verilog  # noqa: E402


def shipped_netlists():
    from repro.casestudy.fig9 import Config, build_fig9_spec
    from repro.faults.targets import TARGETS
    from repro.synthesis.elaborate import to_gates
    from repro.verif.testbenches import DESIGNS, diamond_with_feedback

    for cfg in Config:
        netlist = to_gates(
            build_fig9_spec(cfg), include_env=True, as_latches=True
        ).netlist
        yield f"fig9_{cfg.name.lower()}", netlist
    for design in sorted(DESIGNS):
        nl, _, _ = diamond_with_feedback(**DESIGNS[design])
        yield f"verif_{design}", nl
    for name in sorted(TARGETS):
        yield f"rtl_{name}", TARGETS[name]().netlist


def finding_key(finding):
    """Everything that must survive the round-trip (location aside)."""
    return (finding.rule, finding.subject, finding.path, finding.fingerprint)


def main() -> int:
    artifacts = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("artifacts")
    workdir = Path(tempfile.mkdtemp(prefix="lint-roundtrip-"))
    located = []
    designs = 0

    for name, netlist in shipped_netlists():
        designs += 1
        fingerprint = netlist_fingerprint(netlist)
        reference = {finding_key(f) for f in lint_netlist(netlist)}
        for suffix, writer in ((".blif", to_blif), (".v", to_verilog)):
            path = workdir / f"{name}{suffix}"
            path.write_text(writer(netlist))
            findings = lint_file(str(path))
            parsed_fp = netlist_fingerprint(
                parse_design_file(str(path)).netlist
            )
            assert parsed_fp == fingerprint, (
                f"{path.name}: fingerprint drifted across the round-trip"
            )
            reparsed = {finding_key(f) for f in findings}
            assert reparsed == reference, (
                f"{path.name}: findings diverged\n"
                f"  only in-memory: {sorted(reference - reparsed)}\n"
                f"  only re-parsed: {sorted(reparsed - reference)}"
            )
            missing = [f for f in findings if f.location is None]
            assert not missing, f"{path.name}: unlocated findings {missing}"
            located.extend(findings)
        print(f"  {name}: {len(reference)} finding(s) stable "
              f"across BLIF and Verilog")

    print(f"round-trip held on {designs} design(s), "
          f"{len(located)} located finding(s)")
    if artifacts.is_dir():
        out = artifacts / "lint-roundtrip.sarif"
        out.write_text(sarif_json(LintReport(located)))
        print(f"wrote located SARIF log to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
