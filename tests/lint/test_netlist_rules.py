"""The LNT0xx defect zoo: one broken netlist per netlist rule."""

import pytest

from repro.lint import lint_netlist
from repro.lint.findings import Severity
from repro.lint.netlist_rules import combinational_cycle_finding
from repro.rtl.logic import X
from repro.rtl.netlist import Gate, Netlist, Phase


def codes(findings):
    return sorted({f.rule for f in findings})


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


def clean_reference():
    """A tiny healthy netlist: every rule must stay silent on it."""
    nl = Netlist("clean")
    a = nl.add_input("a")
    b = nl.add_input("b")
    q = nl.add_flop(nl.AND(a, b), q="q")
    nl.add_output(nl.XOR(q, a, out="y"))
    return nl


def test_clean_reference_has_no_findings():
    assert lint_netlist(clean_reference()) == []


# ----------------------------------------------------------------------
# LNT001 multiply-driven
# ----------------------------------------------------------------------
def test_lnt001_signal_owned_by_two_tables():
    nl = Netlist("zoo")
    a = nl.add_input("a")
    nl.add_flop(a, q="q")
    # The builder API refuses double drives; corrupt the tables the way
    # a buggy netlist generator would.
    nl.gates["q"] = Gate("q", "BUF", (a,))
    nl.add_output("q")
    found = by_rule(lint_netlist(nl), "LNT001")
    assert [f.subject for f in found] == ["q"]
    assert found[0].severity == Severity.ERROR
    assert "gate" in found[0].message and "flop" in found[0].message


# ----------------------------------------------------------------------
# LNT002 floating
# ----------------------------------------------------------------------
def test_lnt002_dangling_fanin():
    nl = Netlist("zoo")
    a = nl.add_input("a")
    nl.add_output(nl.AND(a, "ghost", out="y"))
    found = by_rule(lint_netlist(nl), "LNT002")
    assert [f.subject for f in found] == ["ghost"]
    assert found[0].severity == Severity.ERROR


def test_lnt002_undriven_output():
    nl = Netlist("zoo")
    nl.add_output("nowhere")
    found = by_rule(lint_netlist(nl), "LNT002")
    assert [f.subject for f in found] == ["nowhere"]


# ----------------------------------------------------------------------
# LNT003 dead cells
# ----------------------------------------------------------------------
def test_lnt003_cell_outside_output_cone():
    nl = Netlist("zoo")
    a = nl.add_input("a")
    nl.add_output(nl.BUF(a, out="y"))
    nl.NOT(a, out="orphan")
    found = by_rule(lint_netlist(nl), "LNT003")
    assert [f.subject for f in found] == ["orphan"]
    assert found[0].severity == Severity.WARNING


def test_lnt003_skipped_without_declared_outputs():
    nl = Netlist("zoo")
    a = nl.add_input("a")
    nl.NOT(a, out="orphan")
    assert by_rule(lint_netlist(nl), "LNT003") == []


# ----------------------------------------------------------------------
# LNT004 two-phase discipline
# ----------------------------------------------------------------------
def test_lnt004_same_phase_latch_chain():
    nl = Netlist("zoo")
    a = nl.add_input("a")
    first = nl.add_latch(a, Phase.HIGH, q="first")
    mid = nl.BUF(first, out="mid")
    nl.add_latch(mid, Phase.HIGH, q="second")
    nl.add_output("second")
    found = by_rule(lint_netlist(nl), "LNT004")
    assert [f.subject for f in found] == ["second"]
    assert found[0].severity == Severity.WARNING
    assert found[0].path == ("first", "mid", "second")


def test_lnt004_alternating_phases_are_clean():
    nl = Netlist("ok")
    a = nl.add_input("a")
    first = nl.add_latch(a, Phase.HIGH, q="first")
    nl.add_latch(nl.BUF(first), Phase.LOW, q="second")
    nl.add_output("second")
    assert by_rule(lint_netlist(nl), "LNT004") == []


# ----------------------------------------------------------------------
# LNT005 combinational cycles
# ----------------------------------------------------------------------
def cyclic_netlist():
    nl = Netlist("zoo")
    a = nl.add_input("a")
    nl.add_gate("AND", (a, "y"), out="x")
    nl.BUF("x", out="y")
    nl.add_output("y")
    return nl


def test_lnt005_reports_canonical_cycle_once():
    found = by_rule(lint_netlist(cyclic_netlist()), "LNT005")
    # A gate cycle exists in both phases but is one structural defect:
    # exactly one finding, tagged with the first phase that hits it.
    assert len(found) == 1
    assert found[0].path == ("x", "y")
    assert found[0].subject == "x"
    assert found[0].message == "combinational cycle: x -> y -> x (phase H)"


def test_lnt005_finding_is_the_simulator_diagnostic():
    """The lint rule and both simulators share one message producer."""
    from repro.codegen.sim import CompiledSimulator
    from repro.rtl.simulator import TwoPhaseSimulator
    from repro.rtl.toposort import CombinationalCycleError

    nl = cyclic_netlist()
    finding = combinational_cycle_finding(["x", "y"])
    with pytest.raises(CombinationalCycleError) as batch_err:
        CompiledSimulator(nl, 4)
    sim = TwoPhaseSimulator(nl, strict_x=True)
    with pytest.raises(CombinationalCycleError) as scalar_err:
        sim.cycle({"a": 1})
    assert str(batch_err.value) == finding.message
    assert str(scalar_err.value) == finding.message
    assert batch_err.value.cycle == list(finding.path)
    assert scalar_err.value.cycle == list(finding.path)


def test_lnt005_phase_suffix_only_when_asked():
    bare = combinational_cycle_finding(["b", "a"])
    assert bare.message == "combinational cycle: a -> b -> a"
    tagged = combinational_cycle_finding(["b", "a"], phase=Phase.LOW)
    assert tagged.message == "combinational cycle: a -> b -> a (phase L)"
    # The phase never enters the fingerprint inputs (rule/target/
    # subject/path), so baselines survive the wording difference.
    assert bare.fingerprint == tagged.fingerprint


def test_lnt005_multiple_distinct_cycles():
    nl = Netlist("zoo")
    nl.add_gate("BUF", ("b",), out="a")
    nl.add_gate("BUF", ("a",), out="b")
    nl.add_gate("BUF", ("d",), out="c")
    nl.add_gate("BUF", ("c",), out="d")
    found = by_rule(lint_netlist(nl), "LNT005")
    assert {f.path for f in found} == {("a", "b"), ("c", "d")}


# ----------------------------------------------------------------------
# LNT006 constants
# ----------------------------------------------------------------------
def test_lnt006_const_fed_gate_is_flagged_as_note():
    nl = Netlist("zoo")
    a = nl.add_input("a")
    zero = nl.const0(out="zero")
    nl.add_output(nl.AND(a, zero, out="y"))
    found = by_rule(lint_netlist(nl), "LNT006")
    # The declared CONST0 cell is fine; the AND it silences is not.
    assert [f.subject for f in found] == ["y"]
    assert found[0].severity == Severity.INFO
    assert "constant 0" in found[0].message


def test_lnt006_sequential_constant_through_a_flop():
    nl = Netlist("zoo")
    # q starts 0 and recycles AND(q, a) = 0 forever.
    a = nl.add_input("a")
    nl.add_flop("feed", q="q", init=0)
    nl.AND("q", a, out="feed")
    nl.add_output("q")
    found = by_rule(lint_netlist(nl), "LNT006")
    assert [f.subject for f in found] == ["feed"]


def test_lnt006_opt_out():
    nl = Netlist("zoo")
    a = nl.add_input("a")
    nl.add_output(nl.AND(a, nl.const0(), out="y"))
    assert by_rule(lint_netlist(nl, constants=False), "LNT006") == []


def test_lnt006_free_running_toggle_is_not_constant():
    nl = Netlist("ok")
    nl.add_flop("n", q="q", init=0)
    nl.NOT("q", out="n")
    nl.add_output("q")
    assert by_rule(lint_netlist(nl), "LNT006") == []


# ----------------------------------------------------------------------
# LNT007 X-initialised state
# ----------------------------------------------------------------------
def test_lnt007_x_initialised_flop_and_latch():
    nl = Netlist("zoo")
    a = nl.add_input("a")
    nl.add_flop(a, q="qf", init=X)
    nl.add_latch(a, Phase.HIGH, q="ql", init=X)
    nl.add_output("qf")
    nl.add_output("ql")
    found = by_rule(lint_netlist(nl), "LNT007")
    assert sorted(f.subject for f in found) == ["qf", "ql"]
    assert all(f.severity == Severity.WARNING for f in found)
