"""The dataflow-backed rules: LNT008/LNT009, ELX008/ELX009, witnesses.

Every rule gets a positive fixture (the defect, the finding, a witness
that replays) and a negative fixture (the near-miss that must stay
silent).  The engine-based ternary constant analysis is held to exact
agreement with the legacy reference sweep, and the LNT005 cycle report
is pinned against netlist construction order.
"""

import random

import pytest

from repro.lint import render_witness, replay_spec_witness, replay_witness
from repro.lint.elastic_rules import (
    ALWAYS,
    NEVER,
    SOMETIMES,
    lint_spec,
    token_availability,
)
from repro.lint.netlist_rules import (
    _constant_fixpoint,
    constant_values,
    lint_netlist,
    value_sets,
)
from repro.rtl.logic import X
from repro.rtl.netlist import Netlist, Phase
from repro.rtl.toposort import CombinationalCycleError, find_combinational_cycle


def rules(findings):
    return sorted({f.rule for f in findings})


def of_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


# ----------------------------------------------------------------------
# LNT008: state stuck at X
# ----------------------------------------------------------------------
def x_stuck_netlist():
    nl = Netlist("x_stuck")
    a = nl.add_input("a")
    nl.BUF("q", out="d")  # hold loop: X recirculates forever
    nl.add_flop("d", q="q", init=X)
    nl.AND(a, "q", out="o")
    nl.add_output("o")
    return nl


class TestXStuck:
    def test_positive_fires_with_replaying_witness(self):
        nl = x_stuck_netlist()
        findings = of_rule(lint_netlist(nl), "LNT008")
        assert [f.subject for f in findings] == ["q"]
        f = findings[0]
        assert f.witness["kind"] == "x-propagation"
        assert f.path[-1] == "q"
        assert replay_witness(nl, f)

    def test_value_sets_prove_the_claim(self):
        sets = value_sets(x_stuck_netlist())
        assert sets["q"] == frozenset((X,))
        assert sets["d"] == frozenset((X,))
        assert sets["o"] >= frozenset((X,))  # poisoned but not stuck-only

    def test_negative_loadable_x_is_silent(self):
        nl = Netlist("loads")
        a = nl.add_input("a")
        nl.add_flop(a, q="q", init=X)  # next cycle q is known
        nl.BUF("q", out="o")
        nl.add_output("o")
        assert "LNT008" not in rules(lint_netlist(nl))

    def test_negative_known_init_is_silent(self):
        # the same hold loop, but with a known reset value
        nl = Netlist("x_stuck_covered")
        a = nl.add_input("a")
        nl.BUF("q", out="d")
        nl.add_flop("d", q="q", init=0)
        nl.AND(a, "q", out="o")
        nl.add_output("o")
        assert "LNT008" not in rules(lint_netlist(nl))

    def test_stuck_pair_reports_both_with_paths(self):
        nl = Netlist("pair")
        nl.BUF("q2", out="d1")
        nl.BUF("q1", out="d2")
        nl.add_flop("d1", q="q1", init=X)
        nl.add_flop("d2", q="q2", init=X)
        nl.add_output("q1")
        findings = of_rule(lint_netlist(nl), "LNT008")
        assert [f.subject for f in findings] == ["q1", "q2"]
        for f in findings:
            assert replay_witness(nl, f)

    def test_tampered_witness_is_rejected(self):
        nl = x_stuck_netlist()
        f = of_rule(lint_netlist(nl), "LNT008")[0]
        f.witness["path"] = ["a", "q"]  # a is not an X source
        assert not replay_witness(nl, f)


# ----------------------------------------------------------------------
# LNT009: uncovered reset observable
# ----------------------------------------------------------------------
class TestResetObservable:
    def test_positive_fires_with_replaying_witness(self):
        nl = Netlist("obs")
        a = nl.add_input("a")
        nl.add_flop(a, q="q", init=X)
        nl.AND(a, "q", out="o")
        nl.add_output("o")
        findings = of_rule(lint_netlist(nl), "LNT009")
        assert [f.subject for f in findings] == ["q"]
        f = findings[0]
        assert f.witness["kind"] == "observable-before-load"
        assert f.witness["output"] == "o"
        assert replay_witness(nl, f)

    def test_direct_output_is_observable(self):
        nl = Netlist("direct")
        a = nl.add_input("a")
        nl.add_flop(a, q="q", init=X)
        nl.add_output("q")
        f = of_rule(lint_netlist(nl), "LNT009")[0]
        assert f.path == ("q",)
        assert replay_witness(nl, f)

    def test_negative_shielded_by_state_is_silent(self):
        # q's X reaches the output only through a second, covered flop:
        # the environment never sees the reset X directly.
        nl = Netlist("shield")
        a = nl.add_input("a")
        nl.add_flop(a, q="q", init=X)
        nl.add_flop("q", q="q2", init=0)
        nl.BUF("q2", out="o")
        nl.add_output("o")
        assert "LNT009" not in rules(lint_netlist(nl))

    def test_negative_covered_reset_is_silent(self):
        nl = Netlist("covered")
        a = nl.add_input("a")
        nl.add_flop(a, q="q", init=1)
        nl.add_output("q")
        assert "LNT009" not in rules(lint_netlist(nl))

    def test_tampered_witness_is_rejected(self):
        nl = Netlist("obs2")
        a = nl.add_input("a")
        nl.add_flop(a, q="q", init=X)
        nl.add_output("q")
        f = of_rule(lint_netlist(nl), "LNT009")[0]
        f.witness["path"] = ["q", "a"]  # a is not an output
        assert not replay_witness(nl, f)


# ----------------------------------------------------------------------
# ELX008 / ELX009: token availability behind early joins
# ----------------------------------------------------------------------
def threshold_spec(k, p_valids):
    from repro.elastic.ee import ThresholdEE
    from repro.synthesis.spec import SystemSpec

    spec = SystemSpec("tj")
    spec.add_sink("Z")
    spec.add_block("J", n_inputs=len(p_valids), ee=ThresholdEE(k, len(p_valids)))
    for i, p in enumerate(p_valids):
        spec.add_source(f"S{i}", p_valid=p)
        spec.connect(spec.source(f"S{i}"), spec.block_in("J", i))
    spec.connect(spec.block_out("J", 0), spec.sink("Z"))
    return spec


class TestTokenAvailability:
    def test_levels_from_sources(self):
        avail = token_availability(threshold_spec(1, [1.0, 0.5, 0.0]))
        assert avail["channel:S0->J"] == ALWAYS
        assert avail["channel:S1->J"] == SOMETIMES
        assert avail["channel:S2->J"] == NEVER
        assert avail["block:J"] == ALWAYS  # 1-of-3: best arm decides

    def test_threshold_takes_kth_largest(self):
        assert token_availability(
            threshold_spec(2, [1.0, 0.5, 0.0])
        )["block:J"] == SOMETIMES
        assert token_availability(
            threshold_spec(3, [1.0, 0.5, 0.0])
        )["block:J"] == NEVER

    def test_token_loop_register_is_sometimes(self):
        from repro.synthesis.spec import SystemSpec

        spec = SystemSpec("loop")
        spec.add_source("A", p_valid=0.0)
        spec.add_sink("Z")
        spec.add_block("B", n_inputs=2, n_outputs=2)
        spec.add_register("R", capacity=2, initial_tokens=1)
        spec.connect(spec.source("A"), spec.block_in("B", 0))
        spec.connect(spec.register_out("R"), spec.block_in("B", 1))
        spec.connect(spec.block_out("B", 0), spec.sink("Z"))
        spec.connect(spec.block_out("B", 1), spec.register_in("R"))
        avail = token_availability(spec)
        # the initial token keeps the register alive despite the dead source
        assert avail["register:R"] == SOMETIMES


class TestDeadEEArm:
    def test_positive_one_of_two_always(self):
        spec = threshold_spec(1, [1.0, 1.0])
        findings = of_rule(lint_spec(spec), "ELX008")
        assert [f.subject for f in findings] == ["J.in0", "J.in1"]
        for f in findings:
            assert f.witness["kind"] == "dead-ee-arm"
            assert replay_spec_witness(spec, f)

    def test_negative_needs_both_arms(self):
        assert "ELX008" not in rules(lint_spec(threshold_spec(2, [1.0, 1.0])))

    def test_negative_no_always_arm(self):
        assert "ELX008" not in rules(lint_spec(threshold_spec(1, [0.5, 0.5])))

    def test_tampered_witness_is_rejected(self):
        spec = threshold_spec(1, [1.0, 1.0])
        f = of_rule(lint_spec(spec), "ELX008")[0]
        f.witness["threshold"] = 2
        assert not replay_spec_witness(spec, f)


class TestStarvedCounterflow:
    def test_positive_dead_arm_channel(self):
        spec = threshold_spec(1, [1.0, 0.0])
        findings = of_rule(lint_spec(spec), "ELX009")
        assert [f.subject for f in findings] == ["J.in1"]
        f = findings[0]
        assert f.witness["kind"] == "starved-counterflow"
        assert f.witness["chain"][0] == "channel:S1->J"
        assert replay_spec_witness(spec, f)

    def test_negative_sometimes_arm_is_silent(self):
        assert "ELX009" not in rules(lint_spec(threshold_spec(1, [1.0, 0.5])))

    def test_negative_dead_join_is_silent(self):
        # every arm dead: the join never fires, no anti-tokens at all
        assert "ELX009" not in rules(lint_spec(threshold_spec(1, [0.0, 0.0])))

    def test_tampered_witness_is_rejected(self):
        spec = threshold_spec(1, [1.0, 0.0])
        f = of_rule(lint_spec(spec), "ELX009")[0]
        f.witness["chain"] = ["channel:S0->J"]  # an ALWAYS channel
        assert not replay_spec_witness(spec, f)


# ----------------------------------------------------------------------
# LNT006 on the engine == legacy reference sweep
# ----------------------------------------------------------------------
def legacy_agrees(nl):
    engine = constant_values(nl)
    legacy = _constant_fixpoint(nl)
    # the legacy sweep leaves never-known signals out of its dict;
    # compare with .get-X semantics over the full signal set
    for sig in engine:
        if engine[sig] != legacy.get(sig, X):
            return False
    return True


class TestConstantEngineEquivalence:
    def test_constant_cone_witness_replays(self):
        nl = Netlist("const")
        a = nl.add_input("a")
        nl.const0(out="z")
        nl.AND(a, "z", out="g")  # constant 0 through the AND
        nl.OR(a, "g", out="o")
        nl.add_output("o")
        findings = of_rule(lint_netlist(nl), "LNT006")
        assert {f.subject for f in findings} == {"g"}
        for f in findings:
            assert f.witness["kind"] == "constant-cone"
            assert replay_witness(nl, f)

    def test_agreement_on_shipped_designs(self):
        from repro.faults.targets import TARGETS

        for name in sorted(TARGETS):
            assert legacy_agrees(TARGETS[name]().netlist), name

    def test_agreement_on_random_netlists(self):
        from tests.strategies import build_random_netlist

        for seed in range(25):
            nl = build_random_netlist(random.Random(seed))
            assert legacy_agrees(nl), f"seed {seed}"

    def test_state_widening_converges(self):
        # toggling flop: q alternates, widens to X, no false constants
        nl = Netlist("toggle")
        nl.NOT("q", out="d")
        nl.add_flop("d", q="q", init=0)
        nl.add_output("q")
        vals = constant_values(nl)
        assert vals["q"] is X
        assert "LNT006" not in rules(lint_netlist(nl))


# ----------------------------------------------------------------------
# LNT005 reporting is construction-order independent
# ----------------------------------------------------------------------
def cycle_netlist(order):
    nl = Netlist("cyc")
    a = nl.add_input("a")
    makers = {
        "x": lambda: nl.add_gate("AND", (a, "z"), out="x"),
        "y": lambda: nl.add_gate("BUF", ("x",), out="y"),
        "z": lambda: nl.add_gate("OR", (a, "y"), out="z"),
    }
    for name in order:
        makers[name]()
    nl.add_output("z")
    return nl


class TestCycleReportStability:
    def test_lint_path_is_insertion_order_independent(self):
        reports = [
            of_rule(lint_netlist(cycle_netlist(order)), "LNT005")
            for order in (("x", "y", "z"), ("z", "y", "x"), ("y", "z", "x"))
        ]
        paths = {tuple(f.path) for fs in reports for f in fs}
        messages = {f.message for fs in reports for f in fs}
        assert len(paths) == 1
        assert len(messages) == 1
        assert min(paths) == ("x", "y", "z")  # canonical rotation

    def test_simulator_error_matches_lint(self):
        for order in (("x", "y", "z"), ("z", "y", "x")):
            nl = cycle_netlist(order)
            cycle = find_combinational_cycle(nl, Phase.HIGH)
            assert cycle == ["x", "y", "z"]
            with pytest.raises(CombinationalCycleError) as exc:
                from repro.codegen.sim import CompiledSimulator

                CompiledSimulator(nl)
            assert exc.value.cycle == ["x", "y", "z"]


# ----------------------------------------------------------------------
# Witness rendering (the --explain payload)
# ----------------------------------------------------------------------
class TestRenderWitness:
    def test_paths_render_as_chains(self):
        lines = render_witness({
            "kind": "x-propagation", "source": "q", "path": ["q", "o"],
        })
        assert any("q -> o" in line for line in lines)

    def test_inputs_render_sorted(self):
        lines = render_witness({
            "kind": "constant-cone", "value": 0,
            "inputs": {"b": "X", "a": 1},
        })
        joined = "\n".join(lines)
        assert joined.index("a") < joined.index("b")
