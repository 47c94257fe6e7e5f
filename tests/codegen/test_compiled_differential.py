"""Differential testing: restricted compiled modules vs the scalar reference.

Hypothesis reuses the shared random-circuit strategies of
``tests/strategies.py`` (the same distribution the all-lanes
differential suite drives) and checks what that suite does not: modules
*restricted* the way campaigns build them (override hooks only at the
injected nets, writeback only for an observed subset), lane counts past
the 64-lane word boundary, and the value-plane-only known dialect.
Every compared lane must match its own scalar
:class:`~repro.rtl.simulator.TwoPhaseSimulator` run, with X stimulus
and per-lane faults live.
"""

import random

import pytest
from hypothesis import given, settings

from repro.codegen.cache import BuildCache
from repro.codegen.sim import CompiledSimulator
from repro.faults.batch import BatchCampaignHarness
from repro.faults.campaign import (
    CampaignConfig,
    enumerate_injections,
    resolve_target,
)
from repro.rtl.batchsim import pack_stimulus
from repro.rtl.simulator import TwoPhaseSimulator
from tests.strategies import (
    CYCLES,
    LANES,
    _batch_overrides,
    _scalar_overrides,
    differential_cases,
)


def _widen(per_lane, lanes):
    """Extend 64 per-lane sequences to ``lanes`` by cyclic repetition."""
    return [per_lane[i % len(per_lane)] for i in range(lanes)]


def _scalar_runs(nl, stimuli, injections, lanes):
    """Per-cycle values and final state of each lane's scalar replay."""
    runs = {}
    for lane in lanes:
        scalar = TwoPhaseSimulator(nl)
        trace = []
        for t in range(len(stimuli[lane])):
            scalar.overrides = _scalar_overrides(injections[lane], t)
            trace.append(scalar.cycle(stimuli[lane][t]))
        runs[lane] = (trace, scalar.state)
    return runs


@settings(max_examples=60, deadline=None)
@given(differential_cases())
def test_compiled_matches_scalar(case):
    """64 lanes on a campaign-style restricted module == scalar."""
    seed, nl, stimuli, injections = case
    hooks = frozenset(inj[0] for inj in injections if inj is not None)
    observe = frozenset(sorted(nl.signals())[::2])
    sim = CompiledSimulator(
        nl, LANES, hooks=hooks, observe=observe,
        cache=BuildCache.in_memory(),
    )
    spots = (0, 1, LANES // 2, LANES - 1)
    runs = _scalar_runs(nl, stimuli, injections, spots)

    for t, packed in enumerate(pack_stimulus(stimuli)):
        sim.set_overrides(_batch_overrides(injections, t))
        sim.cycle(packed)
        assert sim.check_lane_integrity() == 0
        for lane in spots:
            values = runs[lane][0][t]
            for sig in sorted(observe):
                assert sim.lane_value(sig, lane) == values[sig], (
                    f"seed={seed} t={t} lane={lane} sig={sig}"
                )
    for lane in spots:
        assert sim.lane_state(lane) == runs[lane][1]


@settings(max_examples=25, deadline=None)
@given(differential_cases())
def test_wide_lanes_match_scalar(case):
    """96 lanes (past one machine word): the high lanes == scalar."""
    lanes = 96
    seed, nl, stimuli, injections = case
    stimuli = _widen(stimuli, lanes)
    injections = _widen(injections, lanes)
    sim = CompiledSimulator(nl, lanes, cache=BuildCache.in_memory())
    for t, packed in enumerate(pack_stimulus(stimuli)):
        sim.set_overrides(_batch_overrides(injections, t))
        sim.cycle(packed)
        assert sim.check_lane_integrity() == 0
    runs = _scalar_runs(nl, stimuli, injections, (0, 63, 64, 65, lanes - 1))
    for lane, (trace, state) in runs.items():
        assert len(trace) == CYCLES
        for sig in sorted(nl.signals()):
            assert sim.lane_value(sig, lane) == trace[-1][sig], (
                f"seed={seed} lane={lane} sig={sig}"
            )
        assert sim.lane_state(lane) == state


def _all_known_stimulus(target, lanes, cycles):
    rngs = [random.Random(f"lane:{lane}") for lane in range(lanes)]
    return [
        [
            {name: rng.getrandbits(1) for name in target.free_inputs}
            for _ in range(cycles)
        ]
        for rng in rngs
    ]


def _run_against_two_plane(nl, stimuli, spots):
    """Run the known dialect beside a pinned two-plane run and scalar.

    The two-plane twin must agree plane for plane on every signal every
    cycle; the scalar replays pin the spot lanes' absolute values.
    """
    sim = CompiledSimulator(nl, LANES)
    twin = CompiledSimulator(nl, LANES)
    twin._known_active = False  # pin the two-plane kernel
    no_faults = [None] * LANES
    runs = _scalar_runs(nl, stimuli, no_faults, spots)
    for t, packed in enumerate(pack_stimulus(stimuli)):
        sim.cycle(packed)
        twin.cycle(packed)
        for sig in sorted(nl.signals()):
            assert sim.planes(sig) == twin.planes(sig), (t, sig)
            for lane in spots:
                assert sim.lane_value(sig, lane) == runs[lane][0][t][sig]
    return sim


def test_known_dialect_runs_and_matches():
    """All-known stimulus keeps the value-plane-only kernel active."""
    from repro.faults.targets import TARGETS

    target = TARGETS["dual_ehb"]()
    stimuli = _all_known_stimulus(target, LANES, 60)
    sim = _run_against_two_plane(target.netlist, stimuli, (0, 63))
    assert sim.module.KNOWN_OK
    assert sim._known_active, "known dialect should have stayed active"


def test_known_dialect_falls_back_on_x():
    """One X input permanently drops to the two-plane kernel."""
    from repro.faults.targets import TARGETS
    from repro.rtl.logic import X

    target = TARGETS["dual_ehb"]()
    stimuli = _all_known_stimulus(target, LANES, 30)
    first = next(iter(target.free_inputs))
    stimuli[7][10] = dict(stimuli[7][10], **{first: X})
    sim = _run_against_two_plane(target.netlist, stimuli, (0, 7))
    assert not sim._known_active
    sim.reset()
    assert sim._known_active, "reset() must re-arm the known dialect"


def test_non_hook_override_rejected():
    from repro.faults.targets import TARGETS
    from repro.rtl.batchsim import LaneOverride

    target = TARGETS["dual_ehb"]()
    sim = CompiledSimulator(
        target.netlist, 8,
        hooks=frozenset(), observe=frozenset(target.observe),
    )
    wire = target.fault_sites[0]
    with pytest.raises(ValueError, match="not a hook"):
        sim.set_overrides({wire: LaneOverride(set1=1)})
    with pytest.raises(ValueError, match="unknown net"):
        sim.set_overrides({"no.such.net": LaneOverride(set1=1)})


def test_unobserved_signal_rejected():
    from repro.faults.targets import TARGETS

    target = TARGETS["dual_ehb"]()
    observed = sorted(target.observe)[:2]
    sim = CompiledSimulator(
        target.netlist, 8,
        hooks=frozenset(), observe=frozenset(observed),
    )
    sim.cycle({})
    assert sim.planes(observed[0]) is not None
    hidden = next(
        s for s in sorted(target.observe) if s not in observed
    )
    with pytest.raises(ValueError, match="not observed"):
        sim.planes(hidden)


def _checked_harness():
    """A 4-lane campaign harness after one clean chunk."""
    config = CampaignConfig(cycles=60, seed=3, untestable_analysis=False)
    target = resolve_target("dual_ehb")
    harness = BatchCampaignHarness(target, config, 4)
    harness.run_chunk(enumerate_injections(target, config)[:4])
    return harness


def test_clean_simulator_reports_no_bad_lanes():
    assert _checked_harness().sim.check_lane_integrity() == 0


def test_encoding_violation_names_the_lane():
    sim = _checked_harness().sim
    slot = next(iter(sim.state))
    vp, kp = sim.state[slot]
    sim.state[slot] = (vp | 0b100, kp & ~0b100)  # lane 2: v set, k clear
    assert sim.check_lane_integrity() == 0b100


def test_bit_above_the_mask_taints_every_lane():
    sim = _checked_harness().sim
    slot = next(iter(sim.state))
    vp, kp = sim.state[slot]
    above = 1 << 4
    sim.state[slot] = (vp | above, kp | above)
    assert sim.check_lane_integrity() == sim.mask
