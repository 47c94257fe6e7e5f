"""Tests for the ternary (0/1/X) logic kernel."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.rtl.logic import (
    X,
    eval_op,
    is_known,
    land,
    land2,
    landn2,
    lmux,
    lnor2,
    lnot,
    lor,
    lor2,
    lorn2,
    lxor,
)

VALUES = [0, 1, X]


class TestBasics:
    def test_x_is_singleton(self):
        assert X is type(X)()

    def test_x_has_no_truth_value(self):
        with pytest.raises(TypeError):
            bool(X)

    def test_is_known(self):
        assert is_known(0) and is_known(1)
        assert not is_known(X)

    def test_repr(self):
        assert repr(X) == "X"


class TestAnd:
    def test_zero_dominates(self):
        assert land(0, X) == 0
        assert land(X, 0, 1) == 0

    def test_all_ones(self):
        assert land(1, 1, 1) == 1

    def test_unknown_otherwise(self):
        assert land(1, X) is X

    def test_empty_is_one(self):
        assert land() == 1

    def test_truthy_normalisation(self):
        assert land(True, 2) == 1


class TestOr:
    def test_one_dominates(self):
        assert lor(1, X) == 1
        assert lor(X, 1, 0) == 1

    def test_all_zero(self):
        assert lor(0, 0) == 0

    def test_unknown_otherwise(self):
        assert lor(0, X) is X

    def test_empty_is_zero(self):
        assert lor() == 0


#: each two-input form with its variadic definition
TWO_INPUT = {
    "land2": (land2, lambda a, b: land(a, b)),
    "lor2": (lor2, lambda a, b: lor(a, b)),
    "lnor2": (lnor2, lambda a, b: lnot(lor(a, b))),
    "landn2": (landn2, lambda a, b: land(a, lnot(b))),
    "lorn2": (lorn2, lambda a, b: lor(a, lnot(b))),
}


@pytest.mark.parametrize("name", sorted(TWO_INPUT))
def test_two_input_forms_equal_the_variadic_gates(name):
    fast, reference = TWO_INPUT[name]
    for a, b in itertools.product(VALUES, repeat=2):
        got, want = fast(a, b), reference(a, b)
        assert got is X if want is X else (type(got) is int and got == want), (a, b)


class TestNotXorMux:
    def test_not(self):
        assert lnot(0) == 1
        assert lnot(1) == 0
        assert lnot(X) is X

    def test_xor_table(self):
        assert lxor(0, 0) == 0
        assert lxor(0, 1) == 1
        assert lxor(1, 1) == 0
        assert lxor(X, 1) is X

    def test_mux_known_select(self):
        assert lmux(1, 1, 0) == 1
        assert lmux(0, 1, 0) == 0

    def test_mux_x_select_agreeing_data(self):
        assert lmux(X, 1, 1) == 1
        assert lmux(X, 0, 0) == 0

    def test_mux_x_select_disagreeing_data(self):
        assert lmux(X, 1, 0) is X


def _leq(a, b):
    """Information order: X below 0 and 1."""
    return a is X or a == b


@given(
    st.lists(st.sampled_from(VALUES), min_size=1, max_size=4),
    st.lists(st.sampled_from(VALUES), min_size=1, max_size=4),
)
def test_and_or_monotone(us, vs):
    """Refining an input (X -> 0/1) never changes a known output."""
    n = min(len(us), len(vs))
    us, vs = us[:n], vs[:n]
    refined = [v if u is X else u for u, v in zip(us, vs)]
    assert _leq(land(*us), land(*refined))
    assert _leq(lor(*us), lor(*refined))


@given(st.sampled_from(VALUES), st.sampled_from(VALUES), st.sampled_from(VALUES))
def test_mux_monotone(sel, a, b):
    for known_sel in (0, 1):
        if sel is X:
            assert _leq(lmux(sel, a, b), lmux(known_sel, a, b))


@given(st.sampled_from(VALUES))
def test_double_negation(v):
    r = lnot(lnot(v))
    assert (r is X) if v is X else (r == v)


def test_eval_op_rejects_unknown_op():
    with pytest.raises(ValueError, match="unknown gate op 'XNOR'"):
        eval_op("XNOR", [0, 1])
