"""Differential testing: CompiledSimulator lanes vs TwoPhaseSimulator.

Hypothesis drives randomly generated acyclic netlists (gates, both
latch phases, flip-flop feedback), per-lane stimulus with explicit X
states, and per-lane fault injections; every one of the 64 lanes must
match its own scalar simulation cycle-for-cycle -- all signal values,
X-propagation, and latch/flop state included.  The generators live in
``tests/strategies.py`` (shared with the compiled-module suite), and
build cells in topological order (each cell reads only earlier
signals), so phase-acyclicity is guaranteed by construction;
flip-flops are sequential cuts and may feed back freely.
"""

import random

from hypothesis import given, settings

from repro.codegen.cache import BuildCache
from repro.codegen.sim import CompiledSimulator
from repro.rtl.batchsim import pack_stimulus
from repro.rtl.simulator import TwoPhaseSimulator
from tests.strategies import (
    LANES,
    _batch_overrides,
    _scalar_overrides,
    differential_cases,
)


@settings(max_examples=220, deadline=None)
@given(differential_cases())
def test_every_lane_matches_scalar(case):
    seed, nl, stimuli, injections = case

    batch = CompiledSimulator(nl, LANES, cache=BuildCache.in_memory())
    scalars = [TwoPhaseSimulator(nl) for _ in range(LANES)]
    signals = sorted(nl.signals())

    for t, packed in enumerate(pack_stimulus(stimuli)):
        batch.set_overrides(_batch_overrides(injections, t))
        batch.cycle(packed)
        for lane, sim in enumerate(scalars):
            sim.overrides = _scalar_overrides(injections[lane], t)
            values = sim.cycle(stimuli[lane][t])
            for sig in signals:
                assert batch.lane_value(sig, lane) == values[sig], (
                    f"seed={seed} cycle={t} lane={lane} sig={sig} "
                    f"inj={injections[lane]}"
                )
            assert batch.lane_state(lane) == sim.state, (
                f"seed={seed} cycle={t} lane={lane} state diverged"
            )


def test_dual_ehb_directed():
    """The Fig. 5 dual-EHB netlist, 64 random-seed lanes, 100 cycles."""
    from repro.faults.targets import TARGETS

    target = TARGETS["dual_ehb"]()
    nl = target.netlist
    rngs = [random.Random(f"lane:{lane}") for lane in range(LANES)]
    stimuli = [
        [
            {name: rng.getrandbits(1) for name in target.free_inputs}
            for _ in range(100)
        ]
        for rng in rngs
    ]
    batch = CompiledSimulator(nl, LANES, cache=BuildCache.in_memory())
    scalars = [TwoPhaseSimulator(nl) for _ in range(LANES)]
    observe = sorted(nl.signals())
    for t, packed in enumerate(pack_stimulus(stimuli)):
        batch.cycle(packed)
        for lane, sim in enumerate(scalars):
            values = sim.cycle(stimuli[lane][t])
            for sig in observe:
                assert batch.lane_value(sig, lane) == values[sig], (
                    t, lane, sig)
    for lane, sim in enumerate(scalars):
        assert batch.lane_state(lane) == sim.state
