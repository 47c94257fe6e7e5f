"""Tests for the CTL model checker, including fairness.

The hand-built general graphs (``diamond``, ``two_loops``) run on the
explicit reference checker of ``ctl_reference``, since a factored
structure cannot express them; their factored twins below run on
:class:`~repro.verif.ctl.ModelChecker`.
"""

from repro.verif.ctl import (
    AF,
    AG,
    AU,
    AX,
    EF,
    EG,
    EU,
    EX,
    AP,
    And,
    Implies,
    ModelChecker,
    Not,
    Or,
    TrueF,
    check,
)
from repro.verif.kripke import KripkeStructure
from tests.verif import ctl_reference as ref
from tests.verif.ctl_reference import ExplicitChecker, ExplicitKripke, states_of


def diamond():
    """s0 -> {s1, s2}; s1 -> s3; s2 -> s3; s3 -> s3.  p holds in s1, s3."""
    return ExplicitKripke(
        signals=["p", "q"],
        labels=[(0, 0), (1, 0), (0, 1), (1, 1)],
        successors=[[1, 2], [3], [3], [3]],
        initial=[0],
    )


def two_loops():
    """s0 -> s0 and s0 -> s1 -> s1.  p holds only in s1."""
    return ExplicitKripke(
        signals=["p"],
        labels=[(0,), (1,)],
        successors=[[0, 1], [1]],
        initial=[0],
    )


class TestBoolean:
    def test_ap_and_value(self):
        k = diamond()
        mc = ExplicitChecker(k)
        assert mc.sat(AP("p")) == frozenset({1, 3})
        assert mc.sat(AP("p", 0)) == frozenset({0, 2})

    def test_not_and_or_implies(self):
        mc = ExplicitChecker(diamond())
        assert mc.sat(Not(AP("p"))) == frozenset({0, 2})
        assert mc.sat(And(AP("p"), AP("q"))) == frozenset({3})
        assert mc.sat(Or(AP("p"), AP("q"))) == frozenset({1, 2, 3})
        assert mc.sat(Implies(AP("p"), AP("q"))) == frozenset({0, 2, 3})

    def test_true(self):
        mc = ExplicitChecker(diamond())
        assert mc.sat(TrueF()) == frozenset(range(4))


class TestTemporal:
    def test_ex(self):
        mc = ExplicitChecker(diamond())
        assert mc.sat(EX(AP("p"))) == frozenset({0, 1, 2, 3})
        assert mc.sat(EX(AP("q"))) == frozenset({0, 1, 2, 3})

    def test_ax(self):
        mc = ExplicitChecker(diamond())
        # AX p: all successors satisfy p -> true for s1, s2, s3; s0 has s2
        assert mc.sat(AX(AP("p"))) == frozenset({1, 2, 3})

    def test_ef_eu(self):
        mc = ExplicitChecker(two_loops())
        assert mc.sat(EF(AP("p"))) == frozenset({0, 1})
        assert mc.sat(EU(AP("p", 0), AP("p"))) == frozenset({0, 1})

    def test_eg(self):
        mc = ExplicitChecker(two_loops())
        # EG !p: stay in s0 forever
        assert mc.sat(EG(AP("p", 0))) == frozenset({0})

    def test_ag(self):
        mc = ExplicitChecker(two_loops())
        assert mc.sat(AG(Or(AP("p"), AP("p", 0)))) == frozenset({0, 1})
        assert mc.sat(AG(AP("p"))) == frozenset({1})

    def test_af_fails_with_escape_loop(self):
        mc = ExplicitChecker(two_loops())
        # s0 can loop forever: AF p does not hold there
        assert mc.sat(AF(AP("p"))) == frozenset({1})

    def test_au(self):
        mc = ExplicitChecker(diamond())
        # A[!q U p] from s0: path via s2 reaches q=1 at s2? s2 has q=1...
        result = mc.sat(AU(AP("q", 0), AP("p")))
        assert 1 in result and 3 in result

    def test_check_wrapper(self):
        assert ref.check(diamond(), EF(AP("q")))
        assert not ref.check(diamond(), AP("p"))


class TestFairness:
    def test_fairness_rescues_liveness(self):
        k = two_loops()
        # unfair: s0 may loop forever, AG AF p fails
        assert not ref.check(k, AG(AF(AP("p"))))
        # fair: p-states must occur infinitely often -> the s0 self-loop
        # is unfair, so every fair path reaches s1
        assert ref.check(k, AG(AF(AP("p"))), fairness=[AP("p")])

    def test_fair_eg(self):
        k = two_loops()
        mc = ExplicitChecker(k, fairness=[AP("p")])
        # EG !p needs a fair path staying in s0: impossible
        assert mc.sat(EG(AP("p", 0))) == frozenset()

    def test_unsatisfiable_fairness_empties_paths(self):
        k = ExplicitKripke(
            signals=["p"],
            labels=[(0,)],
            successors=[[0]],
            initial=[0],
        )
        mc = ExplicitChecker(k, fairness=[AP("p")])
        assert mc.fair_states == frozenset()

    def test_counterexample_state(self):
        mc = ExplicitChecker(diamond())
        assert mc.counterexample_state(AP("p")) == 0
        assert mc.counterexample_state(EF(AP("p"))) is None


class TestFormulaConstruction:
    def test_operators(self):
        f = AP("a") & AP("b") | ~AP("c")
        assert isinstance(f, Or)

    def test_str_forms(self):
        assert str(AP("x")) == "x"
        assert str(AP("x", 0)) == "!x"
        assert "EG" in str(EG(AP("x")))
        assert "U" in str(EU(TrueF(), AP("x")))

    def test_caching_consistency(self):
        mc = ExplicitChecker(diamond())
        f = EF(AP("p"))
        assert mc.sat(f) is mc.sat(EF(AP("p")))


# -- factored twins ------------------------------------------------------
# One input x, so a row has two Kripke states: s·2 + x.


def diamond_rows():
    """A -x=0-> B, A -x=1-> C, B -> C, C -> C.

    Kripke states A0=0, A1=1, B0=2, B1=3, C0=4, C1=5; p holds in B0,
    B1 and C0, q in A1, C0 and C1.
    """
    return KripkeStructure(
        signals=["p", "q"],
        input_names=["x"],
        next_state=[[1, 2], [2, 2], [2, 2]],
        words=[[0b00, 0b10], [0b11, 0b00], [0b01, 0b11]],
    )


def two_loops_rows():
    """A -x=0-> A, A -x=1-> B, B -> B.  p holds only in B (2, 3)."""
    return KripkeStructure(
        signals=["p"],
        input_names=["x"],
        next_state=[[0, 1], [1, 1]],
        words=[[0b00], [0b11]],
    )


def sat(mc, f):
    return states_of(mc.sat(f), mc.k.lanes)


class TestFactoredBoolean:
    def test_ap_and_value(self):
        mc = ModelChecker(diamond_rows())
        assert mc.sat(AP("p")) == [0b00, 0b11, 0b01]
        assert sat(mc, AP("p")) == frozenset({2, 3, 4})
        assert sat(mc, AP("p", 0)) == frozenset({0, 1, 5})

    def test_not_and_or_implies(self):
        mc = ModelChecker(diamond_rows())
        assert sat(mc, Not(AP("p"))) == frozenset({0, 1, 5})
        assert sat(mc, And(AP("p"), AP("q"))) == frozenset({4})
        assert sat(mc, Or(AP("p"), AP("q"))) == frozenset({1, 2, 3, 4, 5})
        assert sat(mc, Implies(AP("p"), AP("q"))) == frozenset({0, 1, 4, 5})

    def test_true(self):
        mc = ModelChecker(diamond_rows())
        assert mc.sat(TrueF()) == [0b11] * 3


class TestFactoredTemporal:
    def test_ex(self):
        mc = ModelChecker(diamond_rows())
        assert sat(mc, EX(AP("p"))) == frozenset(range(6))
        # A0 steps to B, where q never holds
        assert sat(mc, EX(AP("q"))) == frozenset({1, 2, 3, 4, 5})

    def test_ax(self):
        mc = ModelChecker(diamond_rows())
        # only A0 steps to a row where p holds under every input (B)
        assert sat(mc, AX(AP("p"))) == frozenset({0})

    def test_ef_eu(self):
        mc = ModelChecker(two_loops_rows())
        assert sat(mc, EF(AP("p"))) == frozenset(range(4))
        assert sat(mc, EU(AP("p", 0), AP("p"))) == frozenset(range(4))

    def test_eg(self):
        mc = ModelChecker(two_loops_rows())
        # EG !p: stay in A under x=0 forever
        assert sat(mc, EG(AP("p", 0))) == frozenset({0})
        # C1 -> C1 keeps !p in the diamond; A1 enters that loop
        assert sat(ModelChecker(diamond_rows()), EG(AP("p", 0))) == {1, 5}

    def test_ag(self):
        mc = ModelChecker(two_loops_rows())
        assert sat(mc, AG(Or(AP("p"), AP("p", 0)))) == frozenset(range(4))
        assert sat(mc, AG(AP("p"))) == frozenset({2, 3})

    def test_af_fails_with_escape_loop(self):
        mc = ModelChecker(two_loops_rows())
        # A0 can loop forever: AF p fails there only
        assert sat(mc, AF(AP("p"))) == frozenset({1, 2, 3})

    def test_au(self):
        mc = ModelChecker(diamond_rows())
        assert sat(mc, AU(AP("q", 0), AP("p"))) == frozenset({0, 2, 3, 4})

    def test_check_wrapper(self):
        assert check(diamond_rows(), EF(AP("q")))
        assert not check(diamond_rows(), AP("p"))


class TestFactoredFairness:
    def test_fairness_rescues_liveness(self):
        k = two_loops_rows()
        assert not check(k, AG(AF(AP("p"))))
        # the A0 self-loop never visits p: unfair
        assert check(k, AG(AF(AP("p"))), fairness=[AP("p")])

    def test_fair_eg(self):
        mc = ModelChecker(two_loops_rows(), fairness=[AP("p")])
        assert mc.sat(EG(AP("p", 0))) == [0, 0]

    def test_unsatisfiable_fairness_empties_paths(self):
        k = KripkeStructure(
            signals=["p"], input_names=[], next_state=[[0]], words=[[0]],
        )
        mc = ModelChecker(k, fairness=[AP("p")])
        assert mc.fair_states == [0]

    def test_counterexample_state(self):
        mc = ModelChecker(diamond_rows())
        assert mc.counterexample_state(AP("p")) == 0
        assert mc.counterexample_state(AP("q")) == 0
        assert mc.counterexample_state(AP("q", 0)) == 1
        assert mc.counterexample_state(EF(AP("p"))) is None

    def test_caching_consistency(self):
        mc = ModelChecker(diamond_rows())
        assert mc.sat(EF(AP("p"))) is mc.sat(EF(AP("p")))


def test_twins_agree_with_the_reference():
    formulas = [
        AP("p"), AX(AP("p")), EG(AP("p", 0)), AF(AP("p")),
        AU(AP("p", 0), AP("p")), AG(AF(AP("p"))),
    ]
    for k in (diamond_rows(), two_loops_rows()):
        for fairness in ((), [AP("p")]):
            mc = ModelChecker(k, fairness)
            want = ExplicitChecker(ref.explicit(k), fairness)
            for f in formulas:
                assert sat(mc, f) == want.sat(f)
