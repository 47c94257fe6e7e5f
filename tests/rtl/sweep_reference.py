"""The plain-sweep scalar simulator: the reference for the skipping one.

:class:`~repro.rtl.simulator.TwoPhaseSimulator` skips the HIGH phase of
a netlist without H latches and re-evaluates a gate only when one of
its inputs changed since its last evaluation.  :class:`SweepSimulator`
does neither: every cycle runs both phases, and every pass of a phase
evaluates every gate and every transparent latch.  The passes, their
order and their bound are the same, so for any netlist, stimulus and
overrides the two must return the same values and state.
"""

from typing import List, Mapping, Tuple

from repro.rtl.logic import X, eval_op, is_known
from repro.rtl.netlist import Latch, Phase
from repro.rtl.simulator import (
    CombinationalCycleError,
    State,
    TwoPhaseSimulator,
    Values,
    _apply_override,
)
from repro.rtl.toposort import find_combinational_cycle


class SweepSimulator(TwoPhaseSimulator):
    """:class:`TwoPhaseSimulator` with a plain sweep in every phase."""

    def _phase_values(
        self,
        inputs: Mapping[str, object],
        state: Mapping[str, object],
        phase: Phase,
    ) -> Values:
        nl = self.netlist
        gates = nl.gates
        ov = self.overrides
        vals: Values = {}
        for sig in nl.inputs:
            v = inputs.get(sig, X)
            if ov and sig in ov:
                v = _apply_override(ov[sig], v)
            vals[sig] = v
        for q in nl.flops:
            v = state[q]
            if ov and q in ov:
                v = _apply_override(ov[q], v)
            vals[q] = v
        transparent: List[Latch] = []
        for q, latch in nl.latches.items():
            if latch.phase == phase:
                transparent.append(latch)
                vals[q] = X
            else:
                v = state[q]
                if ov and q in ov:
                    v = _apply_override(ov[q], v)
                vals[q] = v
        for out in self._order:
            vals[out] = X

        max_passes = len(self._order) + len(transparent) + 2
        for _ in range(max_passes):
            changed = False
            for out in self._order:
                gate = gates[out]
                new = eval_op(gate.op, [vals.get(i, X) for i in gate.ins])
                if ov and out in ov:
                    new = _apply_override(ov[out], new)
                if new is not vals[out] and new != vals[out]:
                    vals[out] = new
                    changed = True
            for latch in transparent:
                new = vals.get(latch.d, X)
                if ov and latch.q in ov:
                    new = _apply_override(ov[latch.q], new)
                if new is not vals[latch.q] and new != vals[latch.q]:
                    vals[latch.q] = new
                    changed = True
            if not changed:
                break
        return vals

    def step_function(
        self, state: Mapping[str, object], inputs: Mapping[str, object]
    ) -> Tuple[Values, State]:
        nl = self.netlist
        high_vals = self._phase_values(inputs, state, Phase.HIGH)
        mid_state: State = dict(state)
        for q, latch in nl.latches.items():
            if latch.phase == Phase.HIGH:
                mid_state[q] = high_vals[q]
        low_vals = self._phase_values(inputs, mid_state, Phase.LOW)
        next_state: State = dict(mid_state)
        for q, latch in nl.latches.items():
            if latch.phase == Phase.LOW:
                next_state[q] = low_vals[q]
        for q, flop in nl.flops.items():
            next_state[q] = low_vals.get(flop.d, X)
        if self.strict_x:
            unresolved = [
                s
                for s, v in low_vals.items()
                if v is X and all(is_known(inputs.get(i, X)) for i in nl.inputs)
                and all(is_known(v2) for v2 in state.values())
            ]
            if unresolved:
                for phase in (Phase.LOW, Phase.HIGH):
                    cycle = find_combinational_cycle(nl, phase)
                    if cycle is not None:
                        raise CombinationalCycleError.from_cycle(cycle)
                raise CombinationalCycleError(
                    f"unresolved signals after LOW phase: {sorted(unresolved)[:8]}"
                )
        return low_vals, next_state
