"""Two-phase cycle simulation of netlists with X-propagation.

The paper's controllers are latch-based (Fig. 3): ``H`` latches are
transparent while the clock is high, ``L`` latches while it is low.  A
clock cycle is therefore simulated as two phases:

1. **HIGH** phase -- ``H`` latches are transparent (their output follows
   their input combinationally), ``L`` latches hold; at the end of the
   phase the ``H`` latches capture.
2. **LOW** phase -- symmetric; at the end of the phase the ``L`` latches
   capture and flip-flops capture their ``d`` (a flip-flop triggers on
   the next rising edge, i.e. the upcoming cycle boundary).

Within a phase, combinational values are computed as the least fixed
point of the ternary (0/1/X) gate functions starting from all-X.  This
is the classical ternary simulation: it is exact for acyclic logic and
conservatively reports ``X`` for truly unresolvable combinational
cycles.  The paper takes care to place the token-cancellation gates at
EHB boundaries precisely so that no such cycles arise; the simulator
verifies this claim (`strict_x=True` raises on unresolved signals).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.rtl.logic import Value, X, is_known, land, lmux, lnot, lor, lxor
from repro.rtl.netlist import FlipFlop, Gate, Latch, Netlist, Phase
from repro.rtl.toposort import CombinationalCycleError, find_combinational_cycle

__all__ = [
    "CombinationalCycleError",
    "Override",
    "State",
    "TwoPhaseSimulator",
    "Values",
]

State = Dict[str, Value]
Values = Dict[str, Value]

#: A net override: either a constant forced value, or a function of the
#: fault-free value (e.g. ``lnot`` for a bit-flip).
Override = Union[int, Callable[[Value], Value]]


def _apply_override(override: Override, value: Value) -> Value:
    return override(value) if callable(override) else override


def _eval_gate(gate: Gate, vals: Mapping[str, Value]) -> Value:
    ins = [vals.get(i, X) for i in gate.ins]
    op = gate.op
    if op == "AND":
        return land(*ins)
    if op == "OR":
        return lor(*ins)
    if op == "NOT":
        return lnot(ins[0])
    if op == "NAND":
        return lnot(land(*ins))
    if op == "NOR":
        return lnot(lor(*ins))
    if op == "XOR":
        return lxor(ins[0], ins[1])
    if op == "MUX":
        return lmux(ins[0], ins[1], ins[2])
    if op == "BUF":
        return ins[0]
    if op == "CONST0":
        return 0
    if op == "CONST1":
        return 1
    raise AssertionError(f"unhandled op {op}")


class TwoPhaseSimulator:
    """Cycle simulator for a :class:`Netlist` with H/L latch phases.

    The simulator keeps the latch/flop state between calls to
    :meth:`cycle`, which returns the cycle's settled values;
    :meth:`step_function` exposes the same semantics as a pure function
    of (state, inputs).  It is the semantic reference the compiled
    lane-parallel simulator is tested against, and the fuzz oracle's
    differential runs it beside a compiled lane; fault campaigns,
    enumeration (:mod:`repro.verif`, the :mod:`repro.faults` prover)
    and the gate-level profiler, trace recorder and stall watchdog run
    on that compiled engine instead.
    """

    def __init__(
        self,
        netlist: Netlist,
        strict_x: bool = False,
        overrides: Optional[Mapping[str, Override]] = None,
    ) -> None:
        netlist.validate()
        self.netlist = netlist
        self.strict_x = strict_x
        #: Net override hooks (fault injection): while a signal name is
        #: present here its *visible* value is forced everywhere it is
        #: read -- gate evaluation, latch transparency and state loads.
        #: A transparent latch stores its (forced) output node, so an
        #: override on a latch corrupts the stored bit as well; a
        #: flip-flop keeps sampling its true ``d`` and recovers once the
        #: override is removed.  The mapping may be mutated between
        #: cycles; the scalar reference harness of the fault-campaign
        #: tests drives it per injection schedule.
        self.overrides: Dict[str, Override] = dict(overrides or {})
        self._order = self._schedule()
        self.state: State = self.initial_state()
        self.values: Values = {}
        self.time = 0

    # ------------------------------------------------------------------
    def initial_state(self) -> State:
        """Reset state: every latch/flop at its declared init value."""
        state: State = {}
        for q, latch in self.netlist.latches.items():
            state[q] = latch.init
        for q, flop in self.netlist.flops.items():
            state[q] = flop.init
        return state

    def reset(self) -> None:
        """Restore the reset state and clear the clock counter."""
        self.state = self.initial_state()
        self.values = {}
        self.time = 0

    def _schedule(self) -> List[str]:
        """A quasi-topological gate order for fast fixed-point passes.

        Orders gate outputs by depth-first post-order over fan-in edges,
        treating latches and flops as cuts.  For acyclic combinational
        logic one pass over this order reaches the fixed point; cyclic
        logic simply needs extra passes.
        """
        nl = self.netlist
        order: List[str] = []
        seen: Set[str] = set()
        # Iterative DFS to avoid recursion limits on deep netlists.
        for root in nl.gates:
            if root in seen:
                continue
            stack: List[Tuple[str, int]] = [(root, 0)]
            path: Set[str] = set()
            while stack:
                sig, idx = stack.pop()
                if idx == 0:
                    if sig in seen or sig not in nl.gates:
                        continue
                    path.add(sig)
                fanin = nl.gates[sig].ins
                if idx < len(fanin):
                    stack.append((sig, idx + 1))
                    child = fanin[idx]
                    if child in nl.gates and child not in seen and child not in path:
                        stack.append((child, 0))
                else:
                    path.discard(sig)
                    if sig not in seen:
                        seen.add(sig)
                        order.append(sig)
        return order

    # ------------------------------------------------------------------
    def _phase_values(
        self,
        inputs: Mapping[str, Value],
        state: Mapping[str, Value],
        phase: Phase,
    ) -> Values:
        """Least ternary fixed point of one clock phase."""
        nl = self.netlist
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
                new = _eval_gate(nl.gates[out], vals)
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
        self, state: Mapping[str, Value], inputs: Mapping[str, Value]
    ) -> Tuple[Values, State]:
        """One full clock cycle as a pure function.

        Args:
            state: latch/flop values at the cycle start.
            inputs: primary input values, stable for the whole cycle.

        Returns:
            ``(values, next_state)`` where ``values`` are the signal
            values observed at the end of the LOW phase (the cycle
            boundary) and ``next_state`` the captured latch/flop values.
        """
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

    def cycle(self, inputs: Optional[Mapping[str, Value]] = None) -> Values:
        """Advance the stateful simulation by one clock cycle."""
        values, next_state = self.step_function(self.state, inputs or {})
        self.state = next_state
        self.values = values
        self.time += 1
        return values

    def value(self, sig: str) -> Value:
        """Value of ``sig`` at the end of the last simulated cycle."""
        return self.values[sig]
