"""The BLIF/Verilog re-parse front-ends and source-mapped findings.

Round-trip contract: for every netlist this repo exports,
``parse(to_blif(nl))`` and ``parse(to_verilog(nl))`` reconstruct a
netlist with the *same content fingerprint* -- names, cell order, ops,
phases and reset values all survive.  Golden fixtures pin every shipped
design; a Hypothesis property extends the claim to the random-netlist
distribution the backend differential suites use.  The malformed-input
zoo pins the parser diagnostics, and the source-map tests pin the
file/line/column anchors SARIF ``physicalLocation`` entries are built
from.
"""

import json

import pytest
from hypothesis import given, settings

from repro.codegen.fingerprint import netlist_fingerprint
from repro.lint import LintReport
from repro.lint.frontends import (
    FrontendParseError,
    attach_locations,
    parse_blif,
    parse_design_file,
    parse_verilog,
)
from repro.lint.sarif import sarif_json
from repro.lint.targets import lint_file
from repro.rtl.export import to_blif, to_verilog
from repro.rtl.logic import X
from repro.rtl.netlist import Netlist, Phase
from tests.strategies import random_netlists


def shipped_netlists():
    """(name, netlist) for every design the repo exports."""
    from repro.casestudy.fig9 import Config, build_fig9_spec
    from repro.faults.targets import TARGETS
    from repro.synthesis.elaborate import to_gates
    from repro.verif.testbenches import DESIGNS, diamond_with_feedback

    for cfg in Config:
        netlist = to_gates(
            build_fig9_spec(cfg), include_env=True, as_latches=True
        ).netlist
        yield f"fig9:{cfg.name.lower()}", netlist
    for design in sorted(DESIGNS):
        nl, _, _ = diamond_with_feedback(**DESIGNS[design])
        yield f"verif:{design}", nl
    for name in sorted(TARGETS):
        yield f"rtl:{name}", TARGETS[name]().netlist


def tricky_netlist():
    """Every exporter corner in one netlist."""
    nl = Netlist("fig.9 demo")  # sanitised module name
    a = nl.add_input("t one")  # sanitised signal names
    b = nl.add_input("b.x")
    nl.AND(out="allhigh")  # zero-input variadics
    nl.OR(out="alllow")
    nl.AND(a, out="single")  # one-input variadics (BUF/NOT ambiguous)
    nl.NAND(b, out="inv1")
    nl.NOR(a, out="inv2")
    nl.OR(a, b, "single", out="o3")
    nl.add_latch("o3", Phase.LOW, q="xl", init=X)  # X resets
    nl.add_flop("o3", q="xf", init=X)
    nl.add_flop("single", q="f1", init=1)
    nl.add_output("o3")
    nl.add_output("xf")
    nl.add_output("t one")  # an input that is also an output
    return nl


# ----------------------------------------------------------------------
# Round-trip fingerprints
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize(
        "name,netlist",
        list(shipped_netlists()),
        ids=[name for name, _ in shipped_netlists()],
    )
    def test_every_shipped_design(self, name, netlist):
        fp = netlist_fingerprint(netlist)
        via_blif = parse_blif(to_blif(netlist), file=f"{name}.blif")
        via_verilog = parse_verilog(to_verilog(netlist), file=f"{name}.v")
        assert netlist_fingerprint(via_blif.netlist) == fp
        assert netlist_fingerprint(via_verilog.netlist) == fp

    def test_exporter_corners(self):
        nl = tricky_netlist()
        fp = netlist_fingerprint(nl)
        assert netlist_fingerprint(parse_blif(to_blif(nl)).netlist) == fp
        assert netlist_fingerprint(parse_verilog(to_verilog(nl)).netlist) == fp

    @settings(max_examples=40, deadline=None)
    @given(random_netlists())
    def test_blif_roundtrip_property(self, nl):
        parsed = parse_blif(to_blif(nl))
        assert netlist_fingerprint(parsed.netlist) == netlist_fingerprint(nl)

    @settings(max_examples=25, deadline=None)
    @given(random_netlists())
    def test_verilog_roundtrip_property(self, nl):
        parsed = parse_verilog(to_verilog(nl))
        assert netlist_fingerprint(parsed.netlist) == netlist_fingerprint(nl)

    def test_foreign_blif_without_sourcemap_still_parses(self):
        text = "\n".join([
            ".model foreign",
            ".inputs a b",
            ".outputs y",
            ".names a b y",
            "11 1",
            ".end",
        ])
        design = parse_blif(text, file="foreign.blif")
        assert design.name == "foreign"
        assert design.netlist.gates["y"].op == "AND"

    def test_dispatch_by_extension(self, tmp_path):
        nl = tricky_netlist()
        blif = tmp_path / "t.blif"
        blif.write_text(to_blif(nl))
        verilog = tmp_path / "t.v"
        verilog.write_text(to_verilog(nl))
        fp = netlist_fingerprint(nl)
        assert netlist_fingerprint(parse_design_file(str(blif)).netlist) == fp
        assert netlist_fingerprint(parse_design_file(str(verilog)).netlist) == fp
        with pytest.raises(FrontendParseError, match="no parser"):
            parse_design_file(str(tmp_path / "t.edif"))


# ----------------------------------------------------------------------
# Malformed-input zoo
# ----------------------------------------------------------------------
class TestMalformedZoo:
    def test_truncated_names_cover(self):
        text = "\n".join([
            ".model bad",
            ".inputs a b",
            ".outputs y",
            ".names a b y",
            ".end",
        ])
        with pytest.raises(FrontendParseError, match="truncated .names cover"):
            parse_blif(text, file="bad.blif")

    def test_malformed_cover_row(self):
        text = "\n".join([
            ".model bad",
            ".inputs a b",
            ".outputs y",
            ".names a b y",
            "1 1",  # plane width 1 over two inputs
            ".end",
        ])
        with pytest.raises(FrontendParseError, match="truncated or malformed"):
            parse_blif(text, file="bad.blif")

    def test_undeclared_wire(self):
        text = "\n".join([
            ".model bad",
            ".inputs a",
            ".outputs y",
            ".names a ghost y",
            "11 1",
            ".end",
        ])
        with pytest.raises(FrontendParseError, match="undeclared wire"):
            parse_blif(text, file="bad.blif")

    def test_duplicate_model(self):
        text = "\n".join([
            ".model one",
            ".model two",
            ".inputs a",
            ".outputs a",
            ".end",
        ])
        with pytest.raises(FrontendParseError, match="duplicate .model"):
            parse_blif(text, file="bad.blif")

    def test_error_carries_file_and_line(self):
        text = ".model bad\n.inputs a\n.outputs y\n.garbage x\n.end\n"
        with pytest.raises(FrontendParseError) as exc:
            parse_blif(text, file="bad.blif")
        assert str(exc.value).startswith("bad.blif:4:")
        assert exc.value.line == 4

    def test_verilog_behavioural_statement_rejected(self):
        text = "\n".join([
            "module m (clk, rst, a, y);",
            "  input clk, rst;",
            "  input a;",
            "  output y;",
            "  initial y = 0;",
            "endmodule",
        ])
        with pytest.raises(FrontendParseError, match="unsupported statement"):
            parse_verilog(text, file="bad.v")

    def test_verilog_missing_module_rejected(self):
        with pytest.raises(FrontendParseError, match="missing module"):
            parse_verilog("assign y = a;\n", file="bad.v")


# ----------------------------------------------------------------------
# Source maps and located findings
# ----------------------------------------------------------------------
def x_stuck_blif(tmp_path):
    nl = Netlist("zoo[x_stuck]")
    a = nl.add_input("a")
    nl.BUF("q", out="d")
    nl.add_flop("d", q="q", init=X)
    nl.AND(a, "q", out="o")
    nl.add_output("o")
    path = tmp_path / "xstuck.blif"
    path.write_text(to_blif(nl))
    return path


class TestSourceMap:
    def test_anchors_point_at_defining_lines(self):
        nl = tricky_netlist()
        text = to_blif(nl)
        design = parse_blif(text, file="t.blif")
        lines = text.splitlines()
        for signal in ("t one", "b.x", "o3", "xl", "xf"):
            loc = design.source_map.location(signal)
            assert loc is not None, signal
            assert loc.file == "t.blif"
            line = lines[loc.line - 1]
            assert not line.startswith("#")  # a code line, not the trailer

    def test_every_finding_gets_a_location(self, tmp_path):
        findings = lint_file(str(x_stuck_blif(tmp_path)))
        assert findings
        assert all(f.location is not None for f in findings)
        assert {f.rule for f in findings} >= {"LNT007", "LNT008", "LNT009"}
        # all three findings anchor on the .latch line of q
        q_lines = {f.location.line for f in findings if f.subject == "q"}
        assert len(q_lines) == 1

    def test_unmapped_subject_falls_back_to_line_one(self):
        from repro.lint import Finding
        from repro.lint.frontends import SourceMap

        source_map = SourceMap(file="f.blif", anchors={})
        [located] = attach_locations(
            [Finding("LNT001", "t", "ghost", "m")], source_map
        )
        assert located.location.file == "f.blif"
        assert located.location.line == 1

    def test_sarif_carries_physical_locations(self, tmp_path):
        report = LintReport(lint_file(str(x_stuck_blif(tmp_path))))
        log = json.loads(sarif_json(report))
        results = log["runs"][0]["results"]
        assert results
        for result in results:
            physical = result["locations"][0]["physicalLocation"]
            assert physical["artifactLocation"]["uri"].endswith("xstuck.blif")
            assert physical["region"]["startLine"] >= 1
            assert physical["region"]["startColumn"] >= 1

    def test_located_output_is_deterministic(self, tmp_path):
        path = str(x_stuck_blif(tmp_path))
        first = LintReport(lint_file(path))
        second = LintReport(lint_file(path))
        assert sarif_json(first) == sarif_json(second)
        assert first.to_json() == second.to_json()

    def test_finding_json_carries_location(self, tmp_path):
        [f] = [
            f for f in lint_file(str(x_stuck_blif(tmp_path)))
            if f.rule == "LNT008"
        ]
        payload = f.to_dict()
        assert payload["location"]["file"].endswith("xstuck.blif")
        assert payload["location"]["line"] == f.location.line
        assert str(f.location) in str(f)


class TestLintFileCache:
    def test_cache_hit_still_carries_locations_and_witnesses(self, tmp_path):
        from repro.codegen import build_cache

        path = str(x_stuck_blif(tmp_path))
        cache = build_cache(str(tmp_path / "cache"))
        first = lint_file(path, cache=cache)
        second = lint_file(path, cache=cache)  # served from the cache
        assert [f.fingerprint for f in first] == [f.fingerprint for f in second]
        for f in second:
            assert f.location is not None
        [stuck] = [f for f in second if f.rule == "LNT008"]
        assert stuck.witness["kind"] == "x-propagation"
        from repro.lint import replay_witness

        assert replay_witness(parse_design_file(path).netlist, stuck)
