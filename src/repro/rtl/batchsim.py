"""The two-plane lane encoding: 64 lanes per Python int, and its helpers.

The lane-parallel simulator (:class:`~repro.codegen.sim.CompiledSimulator`)
runs ``lanes`` independent copies of one
:class:`~repro.rtl.netlist.Netlist` at once.  Lane ``i`` of every signal
lives in bit ``i`` of a pair of machine words, the **two-plane
encoding**:

* plane ``v`` -- the value bit, and
* plane ``k`` -- the *known* bit: lane ``i`` carries a definite 0/1 iff
  bit ``i`` of ``k`` is set; a clear ``k`` bit means the lane is ``X``.

The canonical invariant ``v & ~k == 0`` holds everywhere (an unknown
lane's value bit is 0), which keeps the word-wide gate formulas below
exactly equivalent to the ternary operators in :mod:`repro.rtl.logic`:

=====  =============================================================
gate   two-plane formula (per 64 lanes in one pass)
=====  =============================================================
AND    ``rv = va & vb``; known iff some known-0 input or both known-1:
       ``rk = rv | (ka & ~va) | (kb & ~vb)``
OR     ``rv = va | vb``; ``rk = rv | (ka & ~va) & (kb & ~vb)``
NOT    ``rk = ka``; ``rv = ka & ~va``
XOR    ``rk = ka & kb``; ``rv = (va ^ vb) & rk``
MUX    known select steers; an X select still resolves lanes where
       both data inputs agree on a known value (X-reduction, matching
       :func:`repro.rtl.logic.lmux`)
=====  =============================================================

The formulas themselves are emitted once, by
:mod:`repro.codegen.kernel`.  This module holds what callers need to
speak the encoding: packing stimulus into planes, unpacking one lane,
strict-bit lane masks, truth-table columns (lanes as an enumeration
axis), and :class:`LaneOverride`, the lane-granular fault mask.  An
override is applied at exactly the points the scalar simulator applies
its net overrides -- primary inputs, state loads, every gate output and
transparent-latch outputs -- so a batch of 64 single-fault lanes
reproduces 64 scalar fault runs bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.rtl.logic import Value, X, is_known

__all__ = [
    "LaneOverride",
    "Planes",
    "broadcast",
    "pack_values",
    "pack_stimulus",
    "strict_planes",
    "truth_table_columns",
    "unpack_lane",
]

#: The two-plane word pair ``(v, k)`` for one signal across all lanes.
Planes = Tuple[int, int]


def broadcast(value: Value, lanes: int = 64) -> Planes:
    """The same ternary value in every lane."""
    mask = (1 << lanes) - 1
    if not is_known(value):
        return (0, 0)
    return (mask if value else 0, mask)


def pack_values(values: Sequence[Value]) -> Planes:
    """Pack one ternary value per lane, lane ``i`` from ``values[i]``."""
    v = k = 0
    for lane, value in enumerate(values):
        if is_known(value):
            k |= 1 << lane
            if value:
                v |= 1 << lane
    return (v, k)


def unpack_lane(planes: Planes, lane: int) -> Value:
    """The ternary value of one lane of a two-plane word pair."""
    bit = 1 << lane
    if not planes[1] & bit:
        return X
    return 1 if planes[0] & bit else 0


def truth_table_columns(n: int) -> List[int]:
    """The value words of an ``n``-variable truth table over ``2**n`` lanes.

    Lane ``L`` of column ``j`` holds bit ``j`` of ``L``, so lane ``L``
    carries one assignment of all ``n`` variables and the lanes together
    enumerate every assignment once, in counting order.  Every lane is
    known: pair a column with the full lane mask as its known plane.
    """
    full = (1 << (1 << n)) - 1
    return [
        # One period of column j (2**j zeros, then 2**j ones), repeated
        # by multiplying with the word that has a 1 at every period start.
        (((1 << (1 << j)) - 1) << (1 << j)) * (full // ((1 << (2 << j)) - 1))
        for j in range(n)
    ]


def strict_planes(sim, sig: str) -> Planes:
    """``(ones, zeros)`` lane masks of a signal, strict-bit style.

    Bit ``i`` of ``ones`` is set iff lane ``i`` is *known* 1, of
    ``zeros`` iff it is known 0; an ``X`` lane appears in neither --
    the word-wide analogue of the strict comparisons ``sig == 1`` /
    ``sig == 0`` the protocol classifiers use.  ``sim`` is any
    simulator with the two-plane ``planes()`` accessor (the compiled
    simulator), which is where the channel profiler reads from.
    """
    v, k = sim.planes(sig)
    return (v & k, k & ~v)


def pack_stimulus(
    stimuli: Sequence[Sequence[Mapping[str, Value]]],
) -> List[Dict[str, Planes]]:
    """Pack per-lane stimulus traces into per-cycle plane words.

    ``stimuli[lane][cycle]`` maps input names to ternary values; inputs
    a lane leaves unmentioned are ``X`` for that lane.  All lanes must
    supply the same number of cycles.  Returns one ``{input: planes}``
    dict per cycle, ready for ``CompiledSimulator.cycle``.
    """
    lengths = {len(trace) for trace in stimuli}
    if len(lengths) > 1:
        raise ValueError(f"stimulus traces differ in length: {sorted(lengths)}")
    cycles = lengths.pop() if lengths else 0
    packed: List[Dict[str, Planes]] = []
    for t in range(cycles):
        planes: Dict[str, List[int]] = {}
        for lane, trace in enumerate(stimuli):
            bit = 1 << lane
            for name, value in trace[t].items():
                vk = planes.setdefault(name, [0, 0])
                if is_known(value):
                    vk[1] |= bit
                    if value:
                        vk[0] |= bit
        packed.append({name: (vk[0], vk[1]) for name, vk in planes.items()})
    return packed


class LaneOverride:
    """Per-lane net override masks for the lane-parallel simulator.

    Lane ``i`` is forced to 0 (1) when bit ``i`` of ``set0`` (``set1``)
    is set, and inverted when bit ``i`` of ``flip`` is set.  A flip on
    an unknown lane leaves it ``X``, matching the scalar ``lnot``
    override.  Masks for different lanes are independent, so one object
    carries a whole batch of injections on the same net.
    """

    __slots__ = ("set0", "set1", "flip")

    def __init__(self, set0: int = 0, set1: int = 0, flip: int = 0) -> None:
        if set0 & set1:
            raise ValueError("a lane cannot be stuck at both 0 and 1")
        self.set0 = set0
        self.set1 = set1
        self.flip = flip

    def apply(self, v: int, k: int) -> Planes:
        """The forced planes given fault-free planes ``(v, k)``."""
        if self.set0 or self.set1:
            v = (v & ~self.set0) | self.set1
            k = k | self.set0 | self.set1
        if self.flip:
            v ^= self.flip & k
        return v, k

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LaneOverride(set0={self.set0:#x}, set1={self.set1:#x}, "
            f"flip={self.flip:#x})"
        )
