"""The factored CTL checker against the explicit one it replaced.

``ModelChecker`` holds a satisfying set as one ``2^k``-bit mask per
sequential state; ``ctl_reference.ExplicitChecker`` is the checker over
one node per (sequential state, input) pair that it replaced.  On every
subformula of the four channel properties, with and without fairness,
the two must agree on the satisfying set, ``fair_states``, ``holds``,
``counterexample_state`` and the ``counterexample_trace`` steps.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.casestudy.fig9 import Config, build_fig9_spec
from repro.elastic.gates import GateChannel
from repro.synthesis.elaborate import to_gates
from repro.verif.ctl import AG, AP, And, ModelChecker, Not, Or
from repro.verif.gatedata import alternating_pipeline
from repro.verif.kripke import StateSpaceLimitError, build_kripke
from repro.verif.properties import (
    channel_properties,
    observed_signals,
    verify_channel_properties,
)
from repro.verif.testbenches import DESIGNS, diamond_with_feedback
from repro.verif.traces import counterexample_trace
from tests.strategies import random_netlists
from tests.verif import ctl_reference as ref
from tests.verif.test_kripke_reference import ledger_fuzz_netlists


def subformulas(formulas):
    """Every distinct subformula, children before their parents."""
    seen = {}

    def visit(f):
        if f in seen:
            return
        kids = f.children if isinstance(f, (And, Or)) else [
            getattr(f, name) for name in ("child", "lhs", "rhs")
            if hasattr(f, name)
        ]
        for kid in kids:
            visit(kid)
        seen[f] = None

    for f in formulas:
        visit(f)
    return list(seen)


def channel_formulas(channels):
    return [f for ch in channels for f in channel_properties(ch).values()]


def assert_agree(kripke, formulas, fairness):
    lanes = kripke.lanes
    explicit = ref.explicit(kripke)
    assert len(explicit) == len(kripke)
    for fair in ((), tuple(fairness)):
        mc = ModelChecker(kripke, fair)
        want = ref.ExplicitChecker(explicit, fair)
        assert ref.states_of(mc.fair_states, lanes) == want.fair_states
        for f in subformulas(formulas):
            assert ref.states_of(mc.sat(f), lanes) == want.sat(f), str(f)
            assert mc.holds(f) == want.holds(f), str(f)
            assert mc.counterexample_state(f) == want.counterexample_state(f)
            assert (counterexample_trace(kripke, f, fair)
                    == ref.counterexample_trace(explicit, f, fair,
                                                checker=want)), str(f)


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_fig8a_designs(design):
    nl, channels, fairness = diamond_with_feedback(**DESIGNS[design])
    kripke = build_kripke(nl, observe=observed_signals(nl, channels))
    assert_agree(kripke, channel_formulas(channels), fairness)


@pytest.mark.parametrize("kwargs", [
    {}, {"n_buffers": 1}, {"with_kill": False}, {"sabotage": True},
])
def test_fig8b_pipelines(kwargs):
    nl, errors = alternating_pipeline(**kwargs)
    channels = [GateChannel.declare(nl, f"c{i}")
                for i in range(kwargs.get("n_buffers", 2) + 1)]
    fairness = [AP("src.choice", 1), AP("snk.stall", 0)]
    if kwargs.get("with_kill", True):
        fairness.append(AP("snk.kill", 0))
    kripke = build_kripke(nl, observe=observed_signals(nl, channels) + errors)
    formulas = channel_formulas(channels) + [AG(Not(AP(e))) for e in errors]
    assert_agree(kripke, formulas, fairness)


def test_ledger_fuzz_specs():
    cases = ledger_fuzz_netlists()
    assert len(cases) == 5
    for nl, channels, observe, fairness in cases:
        kripke = build_kripke(nl, observe=observe)
        assert_agree(kripke, channel_formulas(channels), fairness)


def fig9_case(config):
    elab = to_gates(build_fig9_spec(config), include_env=True)
    channels = [elab.channels[k] for k in sorted(elab.channels)]
    fairness = [AP(sig, value) for sig, value in elab.fairness.items()]
    kripke = build_kripke(elab.netlist,
                          observe=observed_signals(elab.netlist, channels))
    return kripke, channels, fairness


def test_no_buffer():
    kripke, channels, fairness = fig9_case(Config.NO_BUFFER)
    assert len(kripke) == 4_288
    assert_agree(kripke, channel_formulas(channels), fairness)


def test_no_buffer_verdicts_match_the_reference():
    """Every NO_BUFFER verdict equals the explicit checker's.

    Both fail Retry+ on ``W->Dout`` and nothing else: the gate
    environment lets a retrying channel's data wires change, so W's
    early-evaluation function can flip while ``W->Dout`` retries.
    """
    kripke, channels, fairness = fig9_case(Config.NO_BUFFER)
    result = verify_channel_properties(kripke, channels, fairness=fairness)
    want = ref.ExplicitChecker(ref.explicit(kripke), fairness)
    assert result.results == {
        (ch.name, name): want.holds(f)
        for ch in channels for name, f in channel_properties(ch).items()
    }
    assert result.failures() == [("W->Dout", "retry_pos")]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_netlists(), st.data())
def test_random_netlists(nl, data):
    signals = sorted(nl.signals())
    wires = [data.draw(st.sampled_from(signals)) for _ in range(4)]
    channel = GateChannel("rand", *wires)
    fairness = [AP(data.draw(st.sampled_from(signals)),
                   data.draw(st.integers(0, 1)))]
    try:
        kripke = build_kripke(nl, observe=signals, max_states=64)
    except StateSpaceLimitError:
        return
    assert_agree(kripke, channel_formulas([channel]), fairness)
