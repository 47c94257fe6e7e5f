"""Early-evaluation (EE) enabling functions.

The early-evaluation join of Sect. 4.2 replaces the conjunction of the
input ``V+`` signals by a function ``EE(V+_1..V+_n, data)`` that may be
asserted before all inputs are valid.  Sect. 4.3 imposes the *positive
unateness* constraint: every cofactor of EE with respect to the data
inputs must be positive unate in the valid signals -- decisions are
made on the **presence** of inputs, never on their absence.

This module provides ready-made EE functions (multiplexer select,
plain conjunction, k-of-n threshold) and an exhaustive unateness
checker used by the tests.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Mapping, Optional, Sequence

from repro.rtl.logic import Value, X, is_known, land


class EarlyEvalFunction:
    """Base class for EE functions.

    Subclasses implement :meth:`evaluate` over ternary valid signals and
    the data payloads of the *valid* channels (payloads of invalid
    channels are ``None``).  The result must be monotone: turning an
    ``X`` valid into a known value may only turn an ``X`` result into a
    known one.
    """

    #: number of input channels this function expects
    arity: int = 0

    def evaluate(self, valids: Sequence[Value], datas: Sequence[object]) -> Value:
        """Ternary enabling value given current valid/data wires."""
        raise NotImplementedError

    def output_data(self, valids: Sequence[Value], datas: Sequence[object]) -> object:
        """Payload produced when the join fires (default: tuple of datas)."""
        return tuple(datas)


class AndEE(EarlyEvalFunction):
    """The lazy join as an EE function: all inputs must be valid."""

    def __init__(self, arity: int):
        self.arity = arity

    def evaluate(self, valids: Sequence[Value], datas: Sequence[object]) -> Value:
        return land(*valids)


class MuxEE(EarlyEvalFunction):
    """Multiplexer enabling: the select channel plus the chosen operand.

    This is the paper's running example::

        EE = V+_s and ((s and V+_a) or (not s and V+_b))

    Args:
        select: index of the select channel.
        chooser: maps the select payload to the index of the required
            data channel.
        arity: total number of input channels.
    """

    def __init__(self, select: int, chooser: Callable[[object], int], arity: int):
        self.arity = arity
        self.select = select
        self.chooser = chooser

    def evaluate(self, valids: Sequence[Value], datas: Sequence[object]) -> Value:
        vs = valids[self.select]
        if vs is X:
            return X
        if vs == 0:
            return 0
        chosen = self.chooser(datas[self.select])
        if not 0 <= chosen < self.arity:
            raise ValueError(f"chooser picked invalid channel {chosen}")
        return valids[chosen]

    def output_data(self, valids: Sequence[Value], datas: Sequence[object]) -> object:
        """The selected operand's payload."""
        return datas[self.chooser(datas[self.select])]


class ThresholdEE(EarlyEvalFunction):
    """k-of-n enabling: fire as soon as ``k`` inputs are valid.

    Models OR-causality (k=1) and general partial joins.  Positive unate
    by construction (more valid inputs never disable it).
    """

    def __init__(self, k: int, arity: int):
        if not 1 <= k <= arity:
            raise ValueError("threshold must satisfy 1 <= k <= arity")
        self.k = k
        self.arity = arity

    def evaluate(self, valids: Sequence[Value], datas: Sequence[object]) -> Value:
        ones = sum(1 for v in valids if is_known(v) and v == 1)
        unknown = sum(1 for v in valids if not is_known(v))
        if ones >= self.k:
            return 1
        if ones + unknown < self.k:
            return 0
        return X

    def output_data(self, valids: Sequence[Value], datas: Sequence[object]) -> object:
        return tuple(d for v, d in zip(valids, datas) if v == 1)


def check_positive_unate(
    ee: EarlyEvalFunction,
    data_domain: Sequence[object],
    select_indices: Optional[Sequence[int]] = None,
) -> bool:
    """Exhaustively check the Sect. 4.3 unateness constraint.

    For every assignment of data values (drawn from ``data_domain`` for
    the channels in ``select_indices``, all channels by default) and
    every pair of valid vectors ``u <= v`` (componentwise), requires
    ``EE(u) <= EE(v)``.  Only feasible for small arities; the
    controllers in this repo have at most 4 inputs.

    Returns True or raises ``AssertionError`` naming the violation.
    """
    n = ee.arity
    indices = list(select_indices) if select_indices is not None else list(range(n))

    def data_for(assignment: Mapping[int, object], valids: Sequence[int]) -> List[object]:
        return [
            (assignment.get(i) if valids[i] else None) if i in indices else None
            for i in range(n)
        ]

    for combo in itertools.product(data_domain, repeat=len(indices)):
        assignment = dict(zip(indices, combo))
        results = {}
        for valids in itertools.product((0, 1), repeat=n):
            val = ee.evaluate(list(valids), data_for(assignment, valids))
            if not is_known(val):
                raise AssertionError(f"EE returned X on fully known inputs {valids}")
            results[valids] = val
        for u in results:
            for i in range(n):
                if u[i] == 1:
                    continue
                v = tuple(1 if j == i else u[j] for j in range(n))
                if results[u] == 1 and results[v] == 0:
                    raise AssertionError(
                        f"EE not positive unate: EE{u}=1 but EE{v}=0 "
                        f"(data {assignment})"
                    )
    return True
