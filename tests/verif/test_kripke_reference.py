"""The lane Kripke builder against the scalar exploration it replaced.

``scalar_build_kripke`` is the one-pair-at-a-time exploration that
``repro.verif.kripke.build_kripke`` ran before it moved onto the
compiled simulator: it steps ``TwoPhaseSimulator.step_function`` once
per (sequential state, input) pair and sets bit ``i`` of a signal's
word when the signal is 1 under input vector ``i``.  It stays here as
the reference; both builders emit the same rows and words.
"""

import itertools
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.targets import dual_ehb
from repro.fuzz import GeneratorConfig, generate_model
from repro.rtl.simulator import TwoPhaseSimulator
from repro.rtl.toposort import CombinationalCycleError
from repro.synthesis.elaborate import to_gates
from repro.verif.ctl import AP
from repro.verif.gatedata import alternating_pipeline
from repro.verif.kripke import (
    KripkeStructure,
    StateSpaceLimitError,
    build_kripke,
)
from repro.verif.properties import observed_signals
from repro.verif.testbenches import DESIGNS, diamond_with_feedback
from tests.strategies import random_netlists


def scalar_build_kripke(netlist, observe=None, max_states=500_000):
    """The scalar exploration loop (no checkpoint, cache or progress)."""
    sim = TwoPhaseSimulator(netlist)
    inputs = list(netlist.inputs)
    observed = list(observe) if observe is not None else (
        list(netlist.outputs) + inputs
    )
    state_names = sorted(sim.initial_state())
    input_combos = [
        dict(zip(inputs, combo))
        for combo in itertools.product((0, 1), repeat=len(inputs))
    ]

    def state_key(state):
        return tuple(state[n] for n in state_names)

    initial_state = sim.initial_state()
    seq_index = {state_key(initial_state): 0}
    seq_states = [dict(initial_state)]
    next_state, words = [None], [None]
    frontier = [0]
    while frontier:
        si = frontier.pop()
        state = seq_states[si]
        row, row_words = [], [0] * len(observed)
        for ii, input_map in enumerate(input_combos):
            values, successor = sim.step_function(state, input_map)
            for j, s in enumerate(observed):
                if values.get(s) == 1:
                    row_words[j] |= 1 << ii
            nk = state_key(successor)
            if nk not in seq_index:
                if len(seq_index) >= max_states:
                    raise StateSpaceLimitError(max_states, state)
                seq_index[nk] = len(seq_states)
                seq_states.append({n: successor[n] for n in state_names})
                next_state.append(None)
                words.append(None)
                frontier.append(seq_index[nk])
            row.append(seq_index[nk])
        next_state[si], words[si] = row, row_words
    return KripkeStructure(observed, inputs, next_state, words)


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_fig8a_designs(design):
    nl, channels, _ = diamond_with_feedback(**DESIGNS[design])
    observe = observed_signals(nl, channels)
    assert (build_kripke(nl, observe=observe)
            == scalar_build_kripke(nl, observe=observe))


@pytest.mark.parametrize("kwargs", [
    {}, {"n_buffers": 1}, {"with_kill": False}, {"sabotage": True},
])
def test_fig8b_pipelines(kwargs):
    nl, errors = alternating_pipeline(**kwargs)
    observe = list(errors) + list(nl.inputs)
    assert (build_kripke(nl, observe=observe)
            == scalar_build_kripke(nl, observe=observe))


def ledger_fuzz_netlists():
    """The gate netlists of the ledger's ``fuzz`` specs that reach CTL:
    the first six of ``repro fuzz --seed 2007 --max-blocks 8`` with
    all-capacity-2 registers and at most six inputs, as (netlist,
    channels, observed signals, fairness) tuples."""
    cases = []
    for index in range(6):
        model = generate_model(
            random.Random(f"fuzz:2007:{index}"),
            GeneratorConfig(max_blocks=8), name=f"fuzz2007_{index:04d}",
        )
        spec = model.build()
        if any(r.capacity != 2 for r in spec.registers.values()):
            continue
        elab = to_gates(spec, include_env=True, as_latches=False)
        if len(elab.netlist.inputs) > 6:
            continue
        channels = [elab.channels[k] for k in sorted(elab.channels)]
        cases.append((
            elab.netlist, channels, observed_signals(elab.netlist, channels),
            [AP(sig, value) for sig, value in elab.fairness.items()],
        ))
    return cases


def test_ledger_fuzz_specs():
    cases = ledger_fuzz_netlists()
    assert len(cases) == 5
    for nl, _, observe, _ in cases:
        assert build_kripke(nl, observe) == scalar_build_kripke(nl, observe)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_netlists(), st.integers(1, 12))
def test_random_netlists(nl, max_states):
    assert len(nl.inputs) <= 6
    observe = sorted(nl.signals())
    try:
        expected = scalar_build_kripke(nl, observe, max_states)
    except StateSpaceLimitError as exc:
        with pytest.raises(StateSpaceLimitError) as got:
            build_kripke(nl, observe, max_states)
        assert got.value.last_state == exc.last_state
        return
    assert build_kripke(nl, observe, max_states) == expected


def test_combinational_cycle_is_refused():
    # The cyclic dual_ehb of test_cyclic_netlist_campaign_raises in
    # tests/faults/test_harness_reference.py.
    target = dual_ehb()
    target.netlist.OR("cyc.b", "src.choice", out="cyc.a")
    target.netlist.AND("cyc.a", "snk.stall", out="cyc.b")
    with pytest.raises(CombinationalCycleError,
                       match=re.escape("cyc.a -> cyc.b -> cyc.a")):
        build_kripke(target.netlist)
