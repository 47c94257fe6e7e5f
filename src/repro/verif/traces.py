"""Counterexample traces for failed model-checking runs.

When a safety property ``AG p`` fails, the practical question is *how*
the controller gets into the bad state.  :func:`counterexample_trace`
extracts a shortest path from an initial Kripke state to a violating
one and renders each step's signal values and primary-input choices --
the analogue of NuSMV's counterexample output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.verif.ctl import Formula, ModelChecker, StateSet
from repro.verif.kripke import KripkeStructure


@dataclass
class TraceStep:
    """One cycle of a counterexample."""

    state: int
    inputs: Dict[str, int]
    signals: Dict[str, int]

    def __str__(self) -> str:
        ins = " ".join(f"{k}={v}" for k, v in sorted(self.inputs.items()))
        hot = " ".join(k for k, v in sorted(self.signals.items()) if v)
        return f"[{self.state}] in({ins}) hot: {hot or '-'}"


def shortest_path_to(
    kripke: KripkeStructure, targets: StateSet
) -> Optional[List[int]]:
    """BFS from the initial states to any Kripke state in ``targets``
    (a :class:`~repro.verif.ctl.ModelChecker` state set).

    A Kripke state's successors are every input vector of one
    sequential state, so the search runs over sequential states: it
    visits them in the order a search over (state, input) pairs would,
    and stops at the lowest target input vector of the first sequential
    state holding one.
    """
    lanes = kripke.lanes
    # sequential state -> the Kripke state that first reached it
    parent: Dict[int, Optional[int]] = {0: None}
    queue: deque[int] = deque([0])
    while queue:
        s = queue.popleft()
        hit = targets[s]
        if hit:
            goal = s * lanes + (hit & -hit).bit_length() - 1
            break
        for i, t in enumerate(kripke.next_state[s]):
            if t not in parent:
                parent[t] = s * lanes + i
                queue.append(t)
    else:
        return None
    path = [goal]
    via = parent[s]
    while via is not None:
        path.append(via)
        via = parent[via // lanes]
    path.reverse()
    return path


def _step(kripke: KripkeStructure, state: int) -> TraceStep:
    s, i = divmod(state, kripke.lanes)
    top = len(kripke.input_names) - 1
    inputs = {name: (i >> (top - j)) & 1
              for j, name in enumerate(kripke.input_names)}
    signals = {name: (word >> i) & 1
               for name, word in zip(kripke.signals, kripke.words[s])}
    return TraceStep(state=state, inputs=inputs, signals=signals)


def counterexample_trace(
    kripke: KripkeStructure,
    invariant: Formula,
    fairness: Sequence[Formula] = (),
) -> Optional[List[TraceStep]]:
    """Witness for the violation of ``AG invariant``.

    Returns the shortest initial path to a state violating the
    invariant, or ``None`` if ``AG invariant`` holds.  (Liveness
    counterexamples are lassos, which explicit enumeration could also
    produce; safety covers the paper's Retry/invariant properties.)
    """
    checker = ModelChecker(kripke, fairness)
    bad = [checker.full ^ m for m in checker.sat(invariant)]
    path = shortest_path_to(kripke, bad)
    if path is None:  # no violating state is reachable
        return None
    return [_step(kripke, s) for s in path]


def format_trace(steps: Sequence[TraceStep]) -> str:
    """Render a counterexample, one cycle per line."""
    lines = [f"counterexample ({len(steps)} cycles):"]
    for i, step in enumerate(steps):
        lines.append(f"  cycle {i}: {step}")
    return "\n".join(lines)
