"""Exhaustive lane equivalence on the paper's controller netlists.

Every boundary-input sequence up to depth 4 (16 input symbols per
cycle, 16^4 = 65536 sequences) is run through the lane-parallel
compiled simulator in 64-lane batches and compared against a scalar
reference on *every* signal, every cycle.  The scalar side is memoised on
(state, input symbol) -- the controllers reach only a handful of
states, so the scalar work collapses while the compiled side still
executes every lane for real.
"""

import pytest

from repro.codegen.sim import CompiledSimulator
from repro.faults.targets import TARGETS
from repro.rtl.simulator import TwoPhaseSimulator

DEPTH = 4
LANES = 64


class _ScalarReference:
    """Memoised (state, symbol) -> (observation, next state) oracle."""

    def __init__(self, netlist, free_inputs, signals):
        self.sim = TwoPhaseSimulator(netlist)
        self.free_inputs = free_inputs
        self.signals = signals
        self._states = {}  # interned state tuple -> id
        self._by_id = []
        self._memo = {}
        self.initial = self._intern(self.sim.initial_state())

    def _intern(self, state):
        key = tuple(sorted(state.items()))
        sid = self._states.get(key)
        if sid is None:
            sid = self._states[key] = len(self._by_id)
            self._by_id.append(dict(state))
        return sid

    def step(self, sid, symbol):
        """Returns (obs, next_sid); obs[i] is signals[i]'s value."""
        hit = self._memo.get((sid, symbol))
        if hit is None:
            inputs = {
                name: (symbol >> i) & 1
                for i, name in enumerate(self.free_inputs)
            }
            values, next_state = self.sim.step_function(
                self._by_id[sid], inputs
            )
            obs = tuple(values[sig] for sig in self.signals)
            hit = (obs, self._intern(next_state))
            self._memo[(sid, symbol)] = hit
        return hit


@pytest.mark.parametrize("name", ["dual_ehb", "early_join"])
def test_depth4_exhaustive_lane_equivalence(name):
    target = TARGETS[name]()
    nl = target.netlist
    free = list(target.free_inputs)
    assert len(free) == 4, "16 symbols per cycle is baked into the sweep"
    signals = sorted(nl.signals())
    ref = _ScalarReference(nl, free, signals)
    batch = CompiledSimulator(nl, LANES)
    full = batch.mask
    n_sigs = len(signals)

    total = 16 ** DEPTH
    for base in range(0, total, LANES):
        batch.reset()
        sids = [ref.initial] * LANES
        for t in range(DEPTH):
            digits = [((base + lane) >> (4 * t)) & 15 for lane in range(LANES)]
            # pack the 4 input bits of each lane's symbol of this cycle
            inputs = {}
            for i, name_in in enumerate(free):
                v = 0
                for lane, digit in enumerate(digits):
                    if (digit >> i) & 1:
                        v |= 1 << lane
                inputs[name_in] = (v, full)
            batch.cycle(inputs)

            # scalar expectations, grouped by (state, symbol) so the
            # expected planes are built per distinct observation
            masks = {}
            for lane, digit in enumerate(digits):
                obs, sids[lane] = ref.step(sids[lane], digit)
                masks[obs] = masks.get(obs, 0) | (1 << lane)
            want_v = [0] * n_sigs
            for obs, mask in masks.items():
                for idx in range(n_sigs):
                    if obs[idx] == 1:
                        want_v[idx] |= mask
            v, k = batch.value_planes, batch.known_planes
            for idx, sig in enumerate(signals):
                slot = batch.slot(sig)
                assert k[slot] == full, (name, base, t, sig, "unknown lanes")
                assert v[slot] == want_v[idx], (name, base, t, sig)
