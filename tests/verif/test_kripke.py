"""Tests for the Kripke builder and its per-sequential-state rows."""

import pytest

from repro.rtl.netlist import Netlist
from repro.verif.kripke import build_kripke


def toggler():
    """A 1-bit counter with an enable input."""
    nl = Netlist("tog")
    en = nl.add_input("en")
    q = nl.add_flop("d", q="q", init=0)
    nl.XOR(q, en, out="d")
    nl.add_output("q")
    return nl


def value(k, state, signal):
    """Signal ``signal`` in Kripke state ``state`` (s * 2^k + i)."""
    s, i = divmod(state, k.lanes)
    return (k.words[s][k.signals.index(signal)] >> i) & 1


class TestBuild:
    def test_state_count(self):
        k = build_kripke(toggler())
        # 2 sequential states x 2 input combinations
        assert len(k) == 4

    def test_initial_states_cover_all_inputs(self):
        k = build_kripke(toggler())
        # Kripke states 0 .. 2^k - 1: row 0 (reset) under every input
        assert k.lanes == 2
        assert len(k.next_state) == 2

    def test_labels_expose_signal_values(self):
        k = build_kripke(toggler())
        for s in range(k.lanes):
            assert value(k, s, "q") == 0

    def test_successors_fan_out_over_inputs(self):
        k = build_kripke(toggler())
        for row in k.next_state:
            assert len(row) == k.lanes

    def test_transition_semantics(self):
        k = build_kripke(toggler())
        # from (q=0, en=1) every successor has q=1
        start = next(s for s in range(k.lanes) if value(k, s, "en") == 1)
        succ = k.next_state[0][start]
        for i in range(k.lanes):
            assert value(k, succ * k.lanes + i, "q") == 1

    def test_observe_selects_signals(self):
        k = build_kripke(toggler(), observe=["q"])
        assert k.signals == ["q"]
        assert all(len(row) == 1 for row in k.words)

    def test_max_states_enforced(self):
        nl = Netlist("big")
        prev = nl.add_input("in0")
        for i in range(8):
            prev = nl.add_flop(prev, q=f"q{i}", init=0)
        nl.add_output(prev)
        with pytest.raises(RuntimeError):
            build_kripke(nl, max_states=10)

    def test_raw_states_align(self):
        # Kripke state s * 2^k + i runs input vector i, so an observed
        # input's word is its truth-table column in every row.
        k = build_kripke(toggler())
        en = k.signals.index("en")
        assert [row[en] for row in k.words] == [0b10, 0b10]
        for idx in range(k.lanes):
            assert value(k, idx, "q") == 0
            assert value(k, idx, "en") == idx

    def test_input_vectors_count_first_input_high(self):
        nl = Netlist("two")
        a, b = nl.add_input("a"), nl.add_input("b")
        nl.add_flop(nl.AND(a, b), q="q", init=0)
        nl.add_output("q")
        k = build_kripke(nl)
        assert k.input_names == ["a", "b"]
        row = k.words[0]
        # vectors 0..3 are (a, b) = 00, 01, 10, 11
        assert row[k.signals.index("a")] == 0b1100
        assert row[k.signals.index("b")] == 0b1010
        assert k.next_state[0] == [0, 0, 0, 1]
