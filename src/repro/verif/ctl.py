"""CTL model checking with fairness over factored Kripke structures.

Implements the classical labelling algorithm [Clarke-Emerson-Sistla,
the paper's reference [5]]: the set of states satisfying a formula is
computed bottom-up using the primitives ``EX``, ``EU`` and ``EG``;
the universal operators are derived by duality.  A satisfying set is
held as one ``2^k``-bit mask per sequential state of a
:class:`~repro.verif.kripke.KripkeStructure` (bit ``i`` is the state
under input vector ``i``), so the (state, input) pairs are never
listed.

Fairness constraints (sets of states that must occur infinitely often
on a path) use the Emerson-Lei iteration for fair ``EG``; ``EX``/``EU``
are relativised to states admitting a fair path.  Fairness is needed
for the paper's liveness property ``AG AF (transfer)``: with a fully
non-deterministic environment the consumer may stall forever, so the
check is run under the constraint that the environment makes progress
infinitely often -- the analogue of NuSMV ``FAIRNESS``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.verif.kripke import KripkeStructure

#: One mask per sequential state; bit i of entry s is Kripke state
#: ``s * 2^k + i``.
StateSet = List[int]


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
    """Labelling-based CTL checker over one Kripke structure.

    A state set is one ``2^k``-bit mask per sequential state: bit ``i``
    of entry ``s`` stands for Kripke state ``s * 2^k + i``.  The
    connectives are word operations; ``EX``, ``EU`` and ``EG`` walk the
    sequential graph, whose edge from ``s`` to ``t`` carries the mask of
    input vectors that take ``s`` to ``t``.
    """

    def __init__(
        self,
        kripke: KripkeStructure,
        fairness: Sequence[Formula] = (),
    ):
        self.k = kripke
        self.full = (1 << kripke.lanes) - 1
        self.all_states: StateSet = [self.full] * len(kripke.next_state)
        # preds[t]: (s, mask of the input vectors taking s to t)
        self.preds: List[List[Tuple[int, int]]] = [
            [] for _ in kripke.next_state
        ]
        bits = [1 << i for i in range(kripke.lanes)]
        for s, row in enumerate(kripke.next_state):
            edges: Dict[int, int] = {}
            for i, t in enumerate(row):
                edges[t] = edges.get(t, 0) | bits[i]
            for t, mask in edges.items():
                self.preds[t].append((s, mask))
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
        result = [0] * len(target)
        for t, hit in enumerate(target):
            if hit:
                for s, mask in self.preds[t]:
                    result[s] |= mask
        return result

    def _eu(self, p: StateSet, q: StateSet) -> StateSet:
        """E[p U q]: backward reachability of q through p-states.

        A state's successors all share one sequential state, so a
        sequential state propagates once, when its mask turns nonzero.
        """
        result = list(q)
        frontier = [t for t, hit in enumerate(q) if hit]
        while frontier:
            t = frontier.pop()
            for s, mask in self.preds[t]:
                add = p[s] & mask & ~result[s]
                if add:
                    if not result[s]:
                        frontier.append(s)
                    result[s] |= add
        return result

    def _eg(self, p: StateSet) -> StateSet:
        """EG p: largest subset of p closed under 'has successor inside'."""
        current = list(p)
        dead = [t for t, hit in enumerate(current) if not hit]
        while dead:
            t = dead.pop()
            for s, mask in self.preds[t]:
                if current[s] & mask:
                    current[s] &= ~mask
                    if not current[s]:
                        dead.append(s)
        return current

    def _fair_eg(self, p: StateSet) -> StateSet:
        """Emerson-Lei fair EG: infinite p-paths hitting every fair set."""
        if not self.fair_sets:
            return self._eg(p)
        z = p
        while True:
            new_z = z
            for fair in self.fair_sets:
                reach = self._eu(p, _and(new_z, fair))
                new_z = _and(_and(new_z, self._pre_exists(reach)), p)
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
        full = self.full
        if isinstance(f, TrueF):
            return self.all_states
        if isinstance(f, AP):
            j = self.k.signals.index(f.signal)
            flip = 0 if f.value else full
            return [row[j] ^ flip for row in self.k.words]
        if isinstance(f, Not):
            return [full ^ m for m in self._sat(f.child)]
        if isinstance(f, And):
            return functools.reduce(
                _and, (self._sat(c) for c in f.children), self.all_states
            )
        if isinstance(f, Or):
            return functools.reduce(
                _or, (self._sat(c) for c in f.children),
                [0] * len(self.all_states),
            )
        if isinstance(f, Implies):
            return [(full ^ a) | b for a, b
                    in zip(self._sat(f.lhs), self._sat(f.rhs))]
        if isinstance(f, EX):
            return self._pre_exists(_and(self._sat(f.child), self.fair_states))
        if isinstance(f, EU):
            return self._eu(self._sat(f.lhs),
                            _and(self._sat(f.rhs), self.fair_states))
        if isinstance(f, EG):
            return self._fair_eg(self._sat(f.child))
        raise TypeError(f"unknown formula {f!r}")

    def sat(self, f: Formula) -> StateSet:
        """States satisfying ``f`` (under the fairness constraints)."""
        return self._sat(f)

    def holds(self, f: Formula) -> bool:
        """Whether every initial state satisfies ``f``."""
        return self._sat(f)[0] == self.full

    def counterexample_state(self, f: Formula) -> Optional[int]:
        """An initial state violating ``f`` (or None): the lowest."""
        missing = self.full & ~self._sat(f)[0]
        return (missing & -missing).bit_length() - 1 if missing else None


def _and(a: StateSet, b: StateSet) -> StateSet:
    return [x & y for x, y in zip(a, b)]


def _or(a: StateSet, b: StateSet) -> StateSet:
    return [x | y for x, y in zip(a, b)]


def check(
    kripke: KripkeStructure,
    formula: Formula,
    fairness: Sequence[Formula] = (),
) -> bool:
    """Convenience wrapper: does ``formula`` hold in all initial states?"""
    return ModelChecker(kripke, fairness).holds(formula)
