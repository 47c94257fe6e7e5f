"""CTL model checking with fairness over explicit Kripke structures.

Implements the classical labelling algorithm [Clarke-Emerson-Sistla,
the paper's reference [5]]: the set of states satisfying a formula is
computed bottom-up using the primitives ``EX``, ``EU`` and ``EG``;
the universal operators are derived by duality.

Fairness constraints (sets of states that must occur infinitely often
on a path) use the Emerson-Lei iteration for fair ``EG``; ``EX``/``EU``
are relativised to states admitting a fair path.  Fairness is needed
for the paper's liveness property ``AG AF (transfer)``: with a fully
non-deterministic environment the consumer may stall forever, so the
check is run under the constraint that the environment makes progress
infinitely often -- the explicit-state analogue of NuSMV ``FAIRNESS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.verif.kripke import KripkeStructure

StateSet = FrozenSet[int]


class Formula:
    """Base class of CTL formulas."""

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True)
class TrueF(Formula):
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class AP(Formula):
    """Atomic proposition: ``signal == value`` (value defaults to 1)."""

    signal: str
    value: int = 1

    def __str__(self) -> str:
        return self.signal if self.value else f"!{self.signal}"


@dataclass(frozen=True)
class Not(Formula):
    child: Formula

    def __str__(self) -> str:
        return f"!({self.child})"


class _NAry(Formula):
    def __init__(self, *children: Formula):
        self.children = tuple(children)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.children == other.children

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.children))


class And(_NAry):
    def __str__(self) -> str:
        return "(" + " & ".join(str(c) for c in self.children) + ")"


class Or(_NAry):
    def __str__(self) -> str:
        return "(" + " | ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula

    def __str__(self) -> str:
        return f"({self.lhs} -> {self.rhs})"


@dataclass(frozen=True)
class EX(Formula):
    child: Formula

    def __str__(self) -> str:
        return f"EX {self.child}"


@dataclass(frozen=True)
class EU(Formula):
    lhs: Formula
    rhs: Formula

    def __str__(self) -> str:
        return f"E[{self.lhs} U {self.rhs}]"


@dataclass(frozen=True)
class EG(Formula):
    child: Formula

    def __str__(self) -> str:
        return f"EG {self.child}"


# Derived operators -----------------------------------------------------
def EF(f: Formula) -> Formula:
    """EF f == E[true U f]."""
    return EU(TrueF(), f)


def AX(f: Formula) -> Formula:
    """AX f == not EX not f."""
    return Not(EX(Not(f)))


def AG(f: Formula) -> Formula:
    """AG f == not EF not f."""
    return Not(EF(Not(f)))


def AF(f: Formula) -> Formula:
    """AF f == not EG not f."""
    return Not(EG(Not(f)))


def AU(f: Formula, g: Formula) -> Formula:
    """A[f U g] == not(E[not g U (not f & not g)]) & not EG not g."""
    return And(Not(EU(Not(g), And(Not(f), Not(g)))), Not(EG(Not(g))))


class ModelChecker:
    """Labelling-based CTL checker over one Kripke structure."""

    def __init__(
        self,
        kripke: KripkeStructure,
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
            drop = [s for s in current if not any(t in current for t in self.k.successors[s])]
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
        key = f
        if key in self._cache:
            return self._cache[key]
        result = self._compute(f)
        self._cache[key] = result
        return result

    def _compute(self, f: Formula) -> StateSet:
        if isinstance(f, TrueF):
            return self.all_states
        if isinstance(f, AP):
            idx = self.k.signal_index(f.signal)
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
    kripke: KripkeStructure,
    formula: Formula,
    fairness: Sequence[Formula] = (),
) -> bool:
    """Convenience wrapper: does ``formula`` hold in all initial states?"""
    return ModelChecker(kripke, fairness).holds(formula)
