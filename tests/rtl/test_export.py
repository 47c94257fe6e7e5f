"""Tests for the Verilog / BLIF / SMV export backends."""

import re

import pytest

from repro.elastic.gates import GateChannel, build_elastic_buffer, build_nd_sink, build_nd_source
from repro.rtl.export import (
    _sanitize,
    channel_specs_smv,
    cover_rows,
    to_blif,
    to_smv,
    to_verilog,
)
from repro.rtl.logic import eval_op
from repro.rtl.netlist import Netlist, Phase


@pytest.fixture
def small():
    nl = Netlist("small.ctrl")
    a, b = nl.add_input("a"), nl.add_input("b.x")
    nb = nl.NOT(b, out="nb")
    g = nl.AND(a, nb, out="g1")
    nl.XOR(a, g, out="g2")
    nl.MUX(a, g, "g2", out="g3")
    nl.const1(out="one")
    nl.add_latch("g1", Phase.HIGH, q="lh", init=0)
    nl.add_latch("g1", Phase.LOW, q="ll", init=1)
    nl.add_flop("g2", q="ff", init=0)
    nl.add_output("g3")
    nl.add_output("ff")
    return nl


@pytest.fixture
def controller():
    """A real controller netlist (EB chain with nd environment)."""
    nl = Netlist("ebchain")
    c0 = GateChannel.declare(nl, "c0")
    c1 = GateChannel.declare(nl, "c1")
    choice = nl.add_input("src.choice")
    build_nd_source(nl, c0, prefix="src", choice_input=choice)
    build_elastic_buffer(nl, c0, c1, prefix="eb", initial_tokens=1)
    stall = nl.add_input("snk.stall")
    build_nd_sink(nl, c1, prefix="snk", stall_input=stall)
    for ch in (c0, c1):
        for w in ch.wires():
            nl.add_output(w)
    return nl, [c0, c1]


class TestSanitize:
    def test_dots_become_underscores(self):
        assert _sanitize("eb.t0_d") == "eb_t0_d"

    def test_leading_digit_prefixed(self):
        assert _sanitize("1bad")[0].isalpha()


class TestVerilog:
    def test_module_structure(self, small):
        v = to_verilog(small)
        assert v.startswith("module small_ctrl (")
        assert "\nendmodule\n" in v
        assert "input clk, rst;" in v
        # only source-map comments may follow the module body
        trailer = v.split("\nendmodule\n", 1)[1]
        assert all(l.startswith("//") for l in trailer.splitlines() if l)
        assert "// repro.sourcemap 1" in trailer

    def test_all_cells_emitted(self, small):
        v = to_verilog(small)
        assert "assign g1 = a & nb;" in v
        assert "assign nb = ~b_x;" in v
        assert "g2 = a ^ g1" in v
        assert "? g1 : g2" in v
        assert "1'b1" in v  # constant

    def test_latch_phases(self, small):
        v = to_verilog(small)
        assert "else if (clk) lh = g1;" in v
        assert "else if (~clk) ll = g1;" in v

    def test_flop_reset_values(self, small):
        v = to_verilog(small)
        assert "ff <= rst ? 1'b0 : g2;" in v

    def test_controller_netlist_exports(self, controller):
        nl, _ = controller
        v = to_verilog(nl, module="ebchain")
        assert v.count("endmodule") == 1
        # deterministic output
        assert v == to_verilog(nl, module="ebchain")


class TestBlif:
    def test_model_header(self, small):
        b = to_blif(small)
        assert b.startswith(".model small_ctrl")
        assert ".end" in b

    def test_latch_kinds(self, small):
        b = to_blif(small)
        assert ".latch g1 lh ah clk 0" in b
        assert ".latch g1 ll al clk 1" in b
        assert ".latch g2 ff re clk 0" in b

    def test_covers(self, small):
        b = to_blif(small)
        assert ".names a b_x" not in b  # NOT gets its own .names
        assert "11 1" in b  # AND cover
        assert "10 1" in b and "01 1" in b  # XOR cover

    def test_mux_cover(self, small):
        b = to_blif(small)
        assert "11- 1" in b and "0-1 1" in b

    def test_const_covers(self):
        nl = Netlist("c")
        nl.const0(out="z")
        nl.const1(out="o")
        nl.add_output("z")
        nl.add_output("o")
        b = to_blif(nl)
        assert ".names z\n" in b  # empty cover = constant 0
        assert ".names o\n 1" in b


class TestSmv:
    def test_structure(self, small):
        s = to_smv(small)
        assert s.startswith("MODULE main")
        assert "VAR" in s and "DEFINE" in s and "ASSIGN" in s

    def test_state_updates(self, small):
        s = to_smv(small)
        assert "next(ff) := g2;" in s
        assert "init(ll) := TRUE;" in s

    def test_specs_rewritten(self, controller):
        nl, chans = controller
        specs = channel_specs_smv(chans)
        s = to_smv(nl, specs=specs, fairness=["snk.stall = FALSE"])
        assert "SPEC AG ((c0_vp & c0_sp) -> AX c0_vp)" in s
        assert "FAIRNESS snk_stall" in s
        assert len(specs) == 8  # 4 per channel

    def test_expressions(self, small):
        s = to_smv(small)
        assert "g1 := (a & nb);" in s
        assert "xor" in s


class TestSemanticRoundTrip:
    def test_blif_cover_semantics_match_simulator(self, small):
        """Evaluate each gate's BLIF cover against the simulator."""
        import itertools

        from repro.rtl.simulator import TwoPhaseSimulator

        b = to_blif(small)
        # parse the AND gate cover back and evaluate it
        sim = TwoPhaseSimulator(small)
        for a, bx in itertools.product((0, 1), repeat=2):
            vals = sim.cycle({"a": a, "b.x": bx})
            assert vals["g1"] == (a & (1 - bx))
            assert vals["g2"] == (a ^ vals["g1"])


class TestCoverRows:
    @pytest.mark.parametrize("op, n", [
        ("AND", 0), ("AND", 3), ("OR", 0), ("OR", 2), ("NAND", 0),
        ("NAND", 3), ("NOR", 0), ("NOR", 2), ("NOT", 1), ("BUF", 1),
        ("XOR", 2), ("MUX", 3), ("CONST0", 0), ("CONST1", 0),
    ])
    def test_cover_is_the_gate_table(self, op, n):
        """Each cover, read as a sum of products, is the op's function."""
        import itertools

        rows = cover_rows(op, n)
        for bits in itertools.product((0, 1), repeat=n):
            on = any(
                all(c == "-" or int(c) == b for c, b in zip(plane, bits))
                for plane, _ in rows
            )
            assert int(on) == eval_op(op, list(bits)), (op, bits)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown gate op"):
            cover_rows("XNOR", 2)
