"""The explicit Kripke structure and CTL checker the factored ones replaced.

Before the checker moved onto one mask per sequential state,
``build_kripke`` folded its rows into one node per (sequential state,
input vector) pair, each with its own list of all ``2^k`` successors,
and ``ModelChecker`` held a satisfying set as a frozenset of those
nodes.  Both stay here as the reference: :func:`explicit` unfolds a
:class:`~repro.verif.kripke.KripkeStructure` the way the builder's fold
did (same state numbers, labels, successor order and initial states),
and :class:`ExplicitChecker`, :func:`shortest_path_to` and
:func:`counterexample_trace` are the checker and the trace extraction
over that representation.  The hand-built general graphs of
``test_ctl.py`` and ``test_traces.py`` run here too, since a factored
structure cannot express them.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.verif.ctl import (
    AP,
    EG,
    EU,
    EX,
    And,
    Formula,
    Implies,
    Not,
    Or,
    TrueF,
)
from repro.verif.kripke import KripkeStructure
from repro.verif.traces import TraceStep

StateSet = FrozenSet[int]


@dataclass
class ExplicitKripke:
    """An explicit Kripke structure over (state, input) pairs."""

    #: names of the labelled signals, in label-vector order
    signals: List[str]
    #: per Kripke-state signal values (0/1), aligned with ``signals``
    labels: List[Tuple[int, ...]]
    #: successor indices per state
    successors: List[List[int]]
    #: initial state indices
    initial: List[int]
    #: primary-input names, aligned with each state's input vector
    input_names: List[str] = field(default_factory=list)
    #: the input vector per Kripke state
    inputs: List[Tuple[int, ...]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.labels)

    def predecessors(self) -> List[List[int]]:
        preds: List[List[int]] = [[] for _ in self.labels]
        for src, succs in enumerate(self.successors):
            for dst in succs:
                preds[dst].append(src)
        return preds


def explicit(kripke: KripkeStructure) -> ExplicitKripke:
    """Unfold the rows into one node per (sequential state, input)."""
    lanes = kripke.lanes
    vectors = list(itertools.product((0, 1), repeat=len(kripke.input_names)))
    labels, successors, inputs = [], [], []
    for row, words in zip(kripke.next_state, kripke.words):
        for i in range(lanes):
            labels.append(tuple((w >> i) & 1 for w in words))
            successors.append(list(range(row[i] * lanes, (row[i] + 1) * lanes)))
            inputs.append(vectors[i])
    return ExplicitKripke(
        signals=list(kripke.signals),
        labels=labels,
        successors=successors,
        initial=list(range(lanes)),
        input_names=list(kripke.input_names),
        inputs=inputs,
    )


def states_of(masks: Sequence[int], lanes: int) -> StateSet:
    """The Kripke states of a factored checker's state set."""
    return frozenset(
        s * lanes + i
        for s, mask in enumerate(masks)
        for i in range(lanes) if (mask >> i) & 1
    )


class ExplicitChecker:
    """Labelling-based CTL checker over one explicit Kripke structure."""

    def __init__(
        self,
        kripke: ExplicitKripke,
        fairness: Sequence[Formula] = (),
    ):
        self.k = kripke
        self.n = len(kripke)
        self.all_states: StateSet = frozenset(range(self.n))
        self.preds = kripke.predecessors()
        self._cache: Dict[object, StateSet] = {}
        # Fairness sets are plain formulas evaluated without fairness.
        self.fair_sets: List[StateSet] = [self._sat(f) for f in fairness]
        if self.fair_sets:
            self.fair_states = self._fair_eg(self.all_states)
        else:
            self.fair_states = self.all_states

    # -- basic set operations ------------------------------------------
    def _pre_exists(self, target: StateSet) -> StateSet:
        """States with at least one successor in ``target``."""
        result = set()
        for t in target:
            result.update(self.preds[t])
        return frozenset(result)

    def _eu(self, p: StateSet, q: StateSet) -> StateSet:
        """E[p U q]: backward reachability of q through p-states."""
        result = set(q)
        frontier = list(q)
        while frontier:
            t = frontier.pop()
            for s in self.preds[t]:
                if s not in result and s in p:
                    result.add(s)
                    frontier.append(s)
        return frozenset(result)

    def _eg(self, p: StateSet) -> StateSet:
        """EG p: largest subset of p closed under 'has successor inside'."""
        current = set(p)
        changed = True
        while changed:
            changed = False
            drop = [s for s in current
                    if not any(t in current for t in self.k.successors[s])]
            if drop:
                current.difference_update(drop)
                changed = True
        return frozenset(current)

    def _fair_eg(self, p: StateSet) -> StateSet:
        """Emerson-Lei fair EG: infinite p-paths hitting every fair set."""
        if not self.fair_sets:
            return self._eg(p)
        z = frozenset(p)
        while True:
            new_z = z
            for fair in self.fair_sets:
                target = new_z & fair
                reach = self._eu(p, target)
                new_z = new_z & self._pre_exists(reach) & p
            if new_z == z:
                return z
            z = new_z

    # -- formula evaluation ----------------------------------------------
    def _sat(self, f: Formula) -> StateSet:
        if f not in self._cache:
            self._cache[f] = self._compute(f)
        return self._cache[f]

    def _compute(self, f: Formula) -> StateSet:
        if isinstance(f, TrueF):
            return self.all_states
        if isinstance(f, AP):
            idx = self.k.signals.index(f.signal)
            return frozenset(
                s for s in range(self.n) if self.k.labels[s][idx] == f.value
            )
        if isinstance(f, Not):
            return self.all_states - self._sat(f.child)
        if isinstance(f, And):
            sets = [self._sat(c) for c in f.children]
            return frozenset.intersection(*sets) if sets else self.all_states
        if isinstance(f, Or):
            sets = [self._sat(c) for c in f.children]
            return frozenset.union(*sets) if sets else frozenset()
        if isinstance(f, Implies):
            return (self.all_states - self._sat(f.lhs)) | self._sat(f.rhs)
        if isinstance(f, EX):
            return self._pre_exists(self._sat(f.child) & self.fair_states)
        if isinstance(f, EU):
            return self._eu(self._sat(f.lhs), self._sat(f.rhs) & self.fair_states)
        if isinstance(f, EG):
            return self._fair_eg(self._sat(f.child))
        raise TypeError(f"unknown formula {f!r}")

    def sat(self, f: Formula) -> StateSet:
        """States satisfying ``f`` (under the fairness constraints)."""
        return self._sat(f)

    def holds(self, f: Formula) -> bool:
        """Whether every initial state satisfies ``f``."""
        return all(s in self._sat(f) for s in self.k.initial)

    def counterexample_state(self, f: Formula) -> Optional[int]:
        """An initial state violating ``f`` (or None)."""
        satisfying = self._sat(f)
        for s in self.k.initial:
            if s not in satisfying:
                return s
        return None


def check(
    kripke: ExplicitKripke,
    formula: Formula,
    fairness: Sequence[Formula] = (),
) -> bool:
    """Does ``formula`` hold in all initial states?"""
    return ExplicitChecker(kripke, fairness).holds(formula)


def shortest_path_to(
    kripke: ExplicitKripke, targets: StateSet
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


def counterexample_trace(
    kripke: ExplicitKripke,
    invariant: Formula,
    fairness: Sequence[Formula] = (),
    checker: Optional[ExplicitChecker] = None,
) -> Optional[List[TraceStep]]:
    """The shortest initial path to a state violating ``invariant``;
    ``checker``, when given, is one already built with ``fairness``."""
    if checker is None:
        checker = ExplicitChecker(kripke, fairness)
    bad = frozenset(range(len(kripke))) - checker.sat(invariant)
    if not bad:
        return None
    path = shortest_path_to(kripke, bad)
    if path is None:  # violating states exist but are unreachable
        return None
    return [
        TraceStep(
            state=s,
            inputs=dict(zip(kripke.input_names, kripke.inputs[s])),
            signals=dict(zip(kripke.signals, kripke.labels[s])),
        )
        for s in path
    ]
