"""Three-valued logic (0, 1, X).

The unknown value ``X`` is used (a) to initialise state before reset,
(b) to compute ternary fixed points of combinational loops, and (c) to
model don't-care environment inputs.  Values are plain Python objects:
``0``, ``1`` and the module-level constant :data:`X`.

The operations below are the standard monotone extensions of boolean
operators: a result is known whenever it is determined by the known
operands (e.g. ``land(0, X) == 0``).
"""

from __future__ import annotations

from typing import Iterable, Union


class _Unknown:
    """Singleton unknown value.  Falsy, prints as ``X``."""

    _instance: "_Unknown | None" = None

    def __new__(cls) -> "_Unknown":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "X"

    def __bool__(self) -> bool:
        raise TypeError("X has no truth value; use is_known()")


X = _Unknown()
Value = Union[int, _Unknown]

# Canonical truth values accepted everywhere.
_TRUE = 1
_FALSE = 0


def is_known(v: Value) -> bool:
    """True for 0/1, False for X."""
    return v is not X


def _norm(v: Value) -> Value:
    """Normalise truthy/falsy ints to canonical 0/1; pass X through."""
    if v is X:
        return X
    return _TRUE if v else _FALSE


def land(*vs: Value) -> Value:
    """Ternary AND: 0 dominates, all-1 gives 1, otherwise X."""
    saw_x = False
    for v in vs:
        if v is X:
            saw_x = True
        elif not v:
            return 0
    return X if saw_x else 1


def lor(*vs: Value) -> Value:
    """Ternary OR: 1 dominates, all-0 gives 0, otherwise X."""
    saw_x = False
    for v in vs:
        if v is X:
            saw_x = True
        elif v:
            return 1
    return X if saw_x else 0


def lnot(v: Value) -> Value:
    """Ternary NOT."""
    if v is X:
        return X
    return 0 if v else 1


def lxor(a: Value, b: Value) -> Value:
    """Ternary XOR: unknown if either operand is unknown."""
    a, b = _norm(a), _norm(b)
    if a is X or b is X:
        return X
    return a ^ b


def lmux(sel: Value, when1: Value, when0: Value) -> Value:
    """Ternary 2:1 multiplexer with X-reduction.

    If the select is unknown but both data inputs agree on a known
    value, the output is that value.
    """
    sel, when1, when0 = _norm(sel), _norm(when1), _norm(when0)
    if sel is X:
        if when1 is not X and when1 == when0:
            return when1
        return X
    return when1 if sel == 1 else when0


def AND(vs: Iterable[Value]) -> Value:
    """Variadic ternary AND over an iterable."""
    return land(*vs)


def OR(vs: Iterable[Value]) -> Value:
    """Variadic ternary OR over an iterable."""
    return lor(*vs)


def NOT(v: Value) -> Value:
    """Alias of :func:`lnot`."""
    return lnot(v)
