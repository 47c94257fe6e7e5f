"""Counterexample traces for failed model-checking runs.

When a safety property ``AG p`` fails, the practical question is *how*
the controller gets into the bad state.  :func:`counterexample_trace`
extracts a shortest path from an initial Kripke state to a violating
one and renders each step's signal values and primary-input choices --
the explicit-state analogue of NuSMV's counterexample output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.verif.ctl import Formula, ModelChecker
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
    kripke: KripkeStructure, targets: FrozenSet[int]
) -> Optional[List[int]]:
    """BFS from the initial states to any state in ``targets``."""
    parent: Dict[int, Optional[int]] = {}
    queue: deque[int] = deque()
    for s in kripke.initial:
        parent[s] = None
        queue.append(s)
    goal: Optional[int] = None
    while queue:
        s = queue.popleft()
        if s in targets:
            goal = s
            break
        for t in kripke.successors[s]:
            if t not in parent:
                parent[t] = s
                queue.append(t)
    if goal is None:
        return None
    path = [goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])  # type: ignore[index]
    path.reverse()
    return path


def _step(kripke: KripkeStructure, state: int) -> TraceStep:
    raw_state, raw_inputs = kripke.raw_states[state]
    inputs = dict(zip(kripke.input_names, raw_inputs))
    signals = dict(zip(kripke.signals, kripke.labels[state]))
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
    bad = frozenset(range(len(kripke))) - checker.sat(invariant)
    if not bad:
        return None
    path = shortest_path_to(kripke, bad)
    if path is None:  # violating states exist but are unreachable
        return None
    return [_step(kripke, s) for s in path]


def format_trace(steps: Sequence[TraceStep]) -> str:
    """Render a counterexample, one cycle per line."""
    lines = [f"counterexample ({len(steps)} cycles):"]
    for i, step in enumerate(steps):
        lines.append(f"  cycle {i}: {step}")
    return "\n".join(lines)
