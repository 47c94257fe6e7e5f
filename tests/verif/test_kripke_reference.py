"""The lane Kripke builder against the scalar exploration it replaced.

``scalar_build_kripke`` is the one-pair-at-a-time exploration that
``repro.verif.kripke.build_kripke`` ran before it moved onto the
compiled simulator: it steps ``TwoPhaseSimulator.step_function`` once
per (sequential state, input) pair.  It stays here as the reference;
both builders fold their tables with the same ``_fold_structure``.
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
from repro.verif.gatedata import alternating_pipeline
from repro.verif.kripke import (
    StateSpaceLimitError,
    _fold_structure,
    build_kripke,
)
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
    transition = {}
    frontier = [0]
    while frontier:
        si = frontier.pop()
        state = seq_states[si]
        for ii, input_map in enumerate(input_combos):
            values, next_state = sim.step_function(state, input_map)
            label = tuple(1 if values.get(s) == 1 else 0 for s in observed)
            nk = state_key(next_state)
            if nk not in seq_index:
                if len(seq_index) >= max_states:
                    raise StateSpaceLimitError(max_states, state)
                seq_index[nk] = len(seq_states)
                seq_states.append({n: next_state[n] for n in state_names})
                frontier.append(seq_index[nk])
            transition[(si, ii)] = (seq_index[nk], label)
    return _fold_structure(
        seq_states, transition, observed, inputs, input_combos, state_names
    )


def assert_same_structure(a, b):
    assert a.signals == b.signals
    assert a.labels == b.labels
    assert a.successors == b.successors
    assert a.initial == b.initial
    assert a.input_names == b.input_names
    assert a.raw_states == b.raw_states


def verify_observe(netlist, channels):
    """The observation list ``verify_netlist`` builds."""
    wires = [w for ch in channels for w in ch.wires()]
    return list(dict.fromkeys(
        wires + list(netlist.inputs) + list(netlist.outputs)
    ))


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_fig8a_designs(design):
    nl, channels, _ = diamond_with_feedback(**DESIGNS[design])
    observe = verify_observe(nl, channels)
    assert_same_structure(
        build_kripke(nl, observe=observe),
        scalar_build_kripke(nl, observe=observe),
    )


@pytest.mark.parametrize("kwargs", [
    {}, {"n_buffers": 1}, {"with_kill": False}, {"sabotage": True},
])
def test_fig8b_pipelines(kwargs):
    nl, errors = alternating_pipeline(**kwargs)
    observe = list(errors) + list(nl.inputs)
    assert_same_structure(
        build_kripke(nl, observe=observe),
        scalar_build_kripke(nl, observe=observe),
    )


def ledger_fuzz_netlists():
    """The gate netlists of the ledger's ``fuzz`` specs that reach CTL:
    the first six of ``repro fuzz --seed 2007 --max-blocks 8`` with
    all-capacity-2 registers and at most six inputs."""
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
        cases.append((elab.netlist, verify_observe(elab.netlist, channels)))
    return cases


def test_ledger_fuzz_specs():
    cases = ledger_fuzz_netlists()
    assert len(cases) == 5
    for nl, observe in cases:
        assert_same_structure(
            build_kripke(nl, observe), scalar_build_kripke(nl, observe)
        )


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
    assert_same_structure(build_kripke(nl, observe, max_states), expected)


def test_combinational_cycle_is_refused():
    # The cyclic dual_ehb of TestCompileFallback in
    # tests/faults/test_campaign.py.
    target = dual_ehb()
    target.netlist.OR("cyc.b", "src.choice", out="cyc.a")
    target.netlist.AND("cyc.a", "snk.stall", out="cyc.b")
    with pytest.raises(CombinationalCycleError,
                       match=re.escape("cyc.a -> cyc.b -> cyc.a")):
        build_kripke(target.netlist)
