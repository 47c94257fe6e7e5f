"""Tests for the area pipeline: constants, pruning, literal counts."""

import pytest

from repro.lint.netlist_rules import constant_values
from repro.rtl.area import (
    constant_propagate,
    count_area,
    prune_dead,
    synthesize_area,
)
from repro.rtl.logic import X
from repro.rtl.netlist import Netlist, Phase
from repro.rtl.simulator import TwoPhaseSimulator


def _build_sample():
    nl = Netlist("sample")
    a, b = nl.add_input("a"), nl.add_input("b")
    q = nl.AND(a, nl.NOT(b), out="q")
    nl.add_output(q)
    return nl


class TestCountArea:
    def test_literals_by_fanin(self):
        nl = Netlist()
        a, b, c = (nl.add_input(n) for n in "abc")
        nl.AND(a, b, c)
        nl.OR(a, b)
        assert count_area(nl).literals == 5

    def test_inverters_and_buffers_free(self):
        nl = Netlist()
        a = nl.add_input("a")
        nl.NOT(a)
        nl.BUF(a)
        assert count_area(nl).literals == 0

    def test_xor_mux_cost(self):
        nl = Netlist()
        a, b, s = (nl.add_input(n) for n in "abs")
        nl.XOR(a, b)
        nl.MUX(s, a, b)
        assert count_area(nl).literals == 8

    def test_state_counts(self):
        nl = Netlist()
        a = nl.add_input("a")
        nl.add_latch(a, Phase.HIGH)
        nl.add_flop(a)
        report = count_area(nl)
        assert (report.latches, report.flops) == (1, 1)

    def test_str(self):
        assert "lit" in str(count_area(Netlist()))


class TestConstantPropagate:
    def test_and_with_zero_collapses(self):
        nl = Netlist()
        a, b = nl.const0(out="a"), nl.add_input("b")
        nl.AND(a, b, out="q")
        nl.add_output("q")
        out = constant_propagate(nl)
        assert count_area(out).literals == 0

    def test_and_with_one_drops_literal(self):
        nl = Netlist()
        a = nl.const1(out="a")
        b, c = nl.add_input("b"), nl.add_input("c")
        nl.AND(a, b, c, out="q")
        nl.add_output("q")
        out = constant_propagate(nl)
        assert count_area(out).literals == 2

    def test_nand_nor_xor_mux_rules(self):
        nl = Netlist()
        a, b, s = nl.const0(out="a"), nl.add_input("b"), nl.const1(out="s")
        nl.NAND(a, b, out="n1")
        nl.NOR(a, b, out="n2")
        nl.XOR(a, b, out="x")
        nl.MUX(s, a, b, out="m")
        for sig in ("n1", "n2", "x", "m"):
            nl.add_output(sig)
        out = constant_propagate(nl)
        assert count_area(out).literals == 0  # NOR(0, b) is NOT b
        sim = TwoPhaseSimulator(out)
        vals = sim.cycle({"b": 1})
        # NAND(0,1)=1, NOR(0,1)=0, XOR(0,1)=1, MUX(1,a=0,b)=0
        assert vals[out.outputs[0]] == 1
        assert vals[out.outputs[1]] == 0
        assert vals[out.outputs[2]] == 1
        assert vals[out.outputs[3]] == 0

    def test_semantics_preserved_on_free_inputs(self):
        nl = _build_sample()
        out = constant_propagate(nl)
        sim_in = TwoPhaseSimulator(nl)
        sim_out = TwoPhaseSimulator(out)
        for a in (0, 1):
            for b in (0, 1):
                inputs = {"a": a, "b": b}
                assert sim_in.cycle(inputs)["q"] == sim_out.cycle(inputs)["q"]

    def test_stuck_flop_removed(self):
        nl = Netlist()
        zero = nl.const0()
        q = nl.add_flop(zero, init=0)
        a = nl.add_input("a")
        nl.OR(a, q, out="out")
        nl.add_output("out")
        out = constant_propagate(nl)
        assert not out.flops

    def test_flop_with_const_but_different_init_kept(self):
        nl = Netlist()
        one = nl.const1()
        q = nl.add_flop(one, init=0)  # becomes 1 after first cycle
        nl.add_output(q)
        out = constant_propagate(nl)
        assert len(out.flops) == 1


class TestSequentialConstants:
    def test_cyclic_stuck_at_zero_pair(self):
        """Two flops feeding each other through OR logic stay 0."""
        nl = Netlist()
        a = nl.add_input("a")
        q1 = nl.add_flop("d1", q="q1", init=0)
        q2 = nl.add_flop("d2", q="q2", init=0)
        zero = nl.const0()
        nl.OR(nl.AND(q2, a), zero, out="d1")
        nl.BUF(q1, out="d2")
        known = constant_values(nl)
        assert known["q1"] == 0 and known["q2"] == 0

    def test_escaping_flop_not_constant(self):
        nl = Netlist()
        a = nl.add_input("a")
        nl.add_flop("d", q="q", init=0)
        nl.OR("q", a, out="d")
        known = constant_values(nl)
        assert known["q"] is X

    def test_constant_propagate_uses_sequential_analysis(self):
        nl = Netlist()
        a = nl.add_input("a")
        q1 = nl.add_flop("d1", q="q1", init=0)
        q2 = nl.add_flop("d2", q="q2", init=0)
        nl.AND(q2, a, out="d1")
        nl.BUF(q1, out="d2")
        nl.OR(a, q1, out="out")
        nl.add_output("out")
        out = constant_propagate(nl)
        assert not out.flops


class TestPruneDead:
    def test_unreferenced_logic_removed(self):
        nl = _build_sample()
        nl.OR("a", "b")  # dangling gate
        out = prune_dead(nl)
        assert len(out.gates) == 2  # NOT + AND only

    def test_keeps_transitive_state(self):
        nl = Netlist()
        a = nl.add_input("a")
        q = nl.add_flop(a, init=0)
        nl.NOT(q, out="out")
        nl.add_output("out")
        out = prune_dead(nl)
        assert len(out.flops) == 1

    def test_explicit_keep_roots(self):
        nl = _build_sample()
        extra = nl.OR("a", "b")
        out = prune_dead(nl, keep=[extra])
        assert extra in out.gates and "q" not in out.gates


class TestSynthesizeArea:
    def test_pipeline_composition(self):
        nl = Netlist()
        a, b = nl.add_input("a"), nl.add_input("b")
        zero = nl.const0()
        dead = nl.AND(a, zero)
        nl.OR(dead, b, out="q")
        nl.add_output("q")
        report = synthesize_area(nl)
        assert report.literals == 0  # q == b, a buffer
