"""The scalar simulator's skipping vs the plain-sweep reference.

:class:`~repro.rtl.simulator.TwoPhaseSimulator` skips the HIGH phase of
a netlist without H latches and re-evaluates a gate only when one of
its inputs changed; ``tests/rtl/sweep_reference.py`` evaluates
everything.  On random acyclic and cyclic netlists, with X stimulus and
overrides that change from cycle to cycle, every ``cycle()`` must
return the reference's values and leave its state, X for X.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rtl.simulator as simulator
from repro.rtl.logic import X, lnot
from repro.rtl.netlist import Netlist
from repro.rtl.simulator import TwoPhaseSimulator
from tests.rtl.sweep_reference import SweepSimulator
from tests.strategies import build_cyclic_netlist, build_random_netlist

CYCLES = 10
OVERRIDES = (0, 1, X, lnot)


def _value(rng):
    return rng.choice((0, 1, X))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_cycles_match_the_sweep_reference(seed, cyclic):
    rng = random.Random(seed)
    build = build_cyclic_netlist if cyclic else build_random_netlist
    nl = build(rng)
    sites = sorted(nl.signals())
    sim, ref = TwoPhaseSimulator(nl), SweepSimulator(nl)
    for t in range(CYCLES):
        # X drives, and inputs left out (also X)
        inputs = {
            name: _value(rng) for name in nl.inputs if rng.random() < 0.9
        }
        overrides = {
            net: rng.choice(OVERRIDES)
            for net in rng.sample(sites, rng.randint(0, min(3, len(sites))))
        }
        sim.overrides = dict(overrides)
        ref.overrides = dict(overrides)
        assert sim.cycle(inputs) == ref.cycle(inputs), (seed, t)
        assert sim.state == ref.state, (seed, t)


def test_an_acyclic_flop_only_cycle_evaluates_each_gate_once(monkeypatch):
    nl = Netlist("flops")
    a, b = nl.add_input("a"), nl.add_input("b")
    x = nl.AND(a, nl.NOT(b))
    y = nl.OR(x, nl.add_flop(x, q="q0", init=0))
    nl.add_flop(nl.XOR(y, "q1"), q="q1", init=1)
    nl.validate()
    calls = []
    real = simulator.eval_op

    def counted(op, ins):
        calls.append(op)
        return real(op, ins)

    monkeypatch.setattr(simulator, "eval_op", counted)
    sim = TwoPhaseSimulator(nl)
    for inputs in ({"a": 1, "b": 0}, {"a": 0, "b": 1}, {}):
        calls.clear()
        sim.cycle(inputs)
        assert len(calls) == len(nl.gates)
