"""Netlists of gates, transparent latches and flip-flops.

A :class:`Netlist` is a named collection of:

* **primary inputs** -- driven by the environment each cycle;
* **gates** -- combinational cells (``AND OR NOT NAND NOR XOR MUX BUF
  CONST0 CONST1``), one per driven signal;
* **latches** -- level-sensitive transparent latches with an active
  phase (``Phase.HIGH`` or ``Phase.LOW``) matching the H/L labels of
  Fig. 3 of the paper;
* **flip-flops** -- edge-triggered storage (used by the eager fork and
  the early-evaluation join for pending anti-tokens).

Every signal has exactly one driver.  The builder API
(:meth:`Netlist.AND`, :meth:`Netlist.OR`, ...) creates gates with fresh
signal names so controller constructors read like structural Verilog.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.rtl.logic import Value


class Phase(enum.Enum):
    """Active phase of a transparent latch."""

    HIGH = "H"
    LOW = "L"


GATE_OPS = {
    "AND",
    "OR",
    "NOT",
    "NAND",
    "NOR",
    "XOR",
    "MUX",  # MUX(sel, when1, when0)
    "BUF",
    "CONST0",
    "CONST1",
}


@dataclass(frozen=True)
class Gate:
    """A combinational cell driving signal ``out``."""

    out: str
    op: str
    ins: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.op not in GATE_OPS:
            raise ValueError(f"unknown gate op {self.op!r}")
        if self.op in ("NOT", "BUF") and len(self.ins) != 1:
            raise ValueError(f"{self.op} takes exactly one input")
        if self.op == "MUX" and len(self.ins) != 3:
            raise ValueError("MUX takes (sel, when1, when0)")
        if self.op.startswith("CONST") and self.ins:
            raise ValueError("constants take no inputs")


@dataclass(frozen=True)
class Latch:
    """A transparent latch: ``q`` follows ``d`` while its phase is active."""

    q: str
    d: str
    phase: Phase
    init: Value = 0


@dataclass(frozen=True)
class FlipFlop:
    """An edge-triggered flip-flop: ``q`` takes ``d`` at each cycle start."""

    q: str
    d: str
    init: Value = 0


class Netlist:
    """A single-driver netlist with a structural builder API."""

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.gates: Dict[str, Gate] = {}
        self.latches: Dict[str, Latch] = {}
        self.flops: Dict[str, FlipFlop] = {}
        self._drivers: Set[str] = set()
        self._fresh = 0

    # ------------------------------------------------------------------
    # Naming helpers
    # ------------------------------------------------------------------
    def fresh(self, hint: str = "n") -> str:
        """Return a fresh signal name with the given hint."""
        self._fresh += 1
        return f"{hint}${self._fresh}"

    def _claim(self, sig: str) -> None:
        if sig in self._drivers:
            raise ValueError(f"signal {sig!r} already has a driver")
        self._drivers.add(sig)

    # ------------------------------------------------------------------
    # Structural construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input."""
        self._claim(name)
        self.inputs.append(name)
        return name

    def add_output(self, name: str) -> str:
        """Mark an existing signal as a primary output (observable)."""
        if name not in self.outputs:
            self.outputs.append(name)
        return name

    def add_gate(self, op: str, ins: Sequence[str], out: Optional[str] = None) -> str:
        """Add a gate; returns the name of the driven signal."""
        out = out if out is not None else self.fresh(op.lower())
        self._claim(out)
        self.gates[out] = Gate(out, op, tuple(ins))
        return out

    def add_latch(
        self, d: str, phase: Phase, q: Optional[str] = None, init: Value = 0
    ) -> str:
        """Add a transparent latch capturing ``d``; returns ``q``."""
        q = q if q is not None else self.fresh("lat")
        self._claim(q)
        self.latches[q] = Latch(q, d, phase, init)
        return q

    def add_flop(self, d: str, q: Optional[str] = None, init: Value = 0) -> str:
        """Add a flip-flop capturing ``d``; returns ``q``."""
        q = q if q is not None else self.fresh("ff")
        self._claim(q)
        self.flops[q] = FlipFlop(q, d, init)
        return q

    # Convenience cell builders ----------------------------------------
    def AND(self, *ins: str, out: Optional[str] = None) -> str:
        return self.add_gate("AND", ins, out)

    def OR(self, *ins: str, out: Optional[str] = None) -> str:
        return self.add_gate("OR", ins, out)

    def NOT(self, a: str, out: Optional[str] = None) -> str:
        return self.add_gate("NOT", (a,), out)

    def NAND(self, *ins: str, out: Optional[str] = None) -> str:
        return self.add_gate("NAND", ins, out)

    def NOR(self, *ins: str, out: Optional[str] = None) -> str:
        return self.add_gate("NOR", ins, out)

    def XOR(self, a: str, b: str, out: Optional[str] = None) -> str:
        return self.add_gate("XOR", (a, b), out)

    def MUX(self, sel: str, when1: str, when0: str, out: Optional[str] = None) -> str:
        return self.add_gate("MUX", (sel, when1, when0), out)

    def BUF(self, a: str, out: Optional[str] = None) -> str:
        return self.add_gate("BUF", (a,), out)

    def const0(self, out: Optional[str] = None) -> str:
        return self.add_gate("CONST0", (), out)

    def const1(self, out: Optional[str] = None) -> str:
        return self.add_gate("CONST1", (), out)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def signals(self) -> Set[str]:
        """Every driven signal plus the primary inputs."""
        return (
            set(self.inputs)
            | set(self.gates)
            | set(self.latches)
            | set(self.flops)
        )

    def driver_of(self, sig: str) -> Optional[object]:
        """The Gate/Latch/FlipFlop driving ``sig``, or None for inputs."""
        if sig in self.gates:
            return self.gates[sig]
        if sig in self.latches:
            return self.latches[sig]
        if sig in self.flops:
            return self.flops[sig]
        return None

    def fanin(self, sig: str) -> Tuple[str, ...]:
        """Immediate fan-in signals of ``sig`` (empty for inputs/consts)."""
        drv = self.driver_of(sig)
        if isinstance(drv, Gate):
            return drv.ins
        if isinstance(drv, Latch):
            return (drv.d,)
        if isinstance(drv, FlipFlop):
            return (drv.d,)
        return ()

    def undriven(self) -> Set[str]:
        """Signals referenced as fan-in but never driven (dangling)."""
        referenced: Set[str] = set()
        for g in self.gates.values():
            referenced.update(g.ins)
        for l in self.latches.values():
            referenced.add(l.d)
        for f in self.flops.values():
            referenced.add(f.d)
        return referenced - self.signals()

    def validate(self) -> None:
        """Raise ``ValueError`` if any referenced signal has no driver."""
        dangling = self.undriven()
        if dangling:
            raise ValueError(f"undriven signals: {sorted(dangling)}")

    def stats(self) -> Dict[str, int]:
        """Cell-count summary."""
        return {
            "inputs": len(self.inputs),
            "gates": len(self.gates),
            "latches": len(self.latches),
            "flops": len(self.flops),
        }

    def merge(self, other: "Netlist", prefix: str = "") -> Dict[str, str]:
        """Import every cell of ``other``, optionally prefixing names.

        Returns the renaming map applied to ``other``'s signals.  The
        caller is responsible for connecting ``other``'s former inputs
        (they become undriven references here unless also renamed onto
        existing signals).
        """
        rename = {s: (prefix + s if prefix else s) for s in other.signals()}
        for g in other.gates.values():
            self.add_gate(g.op, tuple(rename[i] for i in g.ins), rename[g.out])
        for l in other.latches.values():
            self.add_latch(rename[l.d], l.phase, rename[l.q], l.init)
        for f in other.flops.values():
            self.add_flop(rename[f.d], rename[f.q], f.init)
        return rename

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"Netlist({self.name!r}, gates={s['gates']}, "
            f"latches={s['latches']}, flops={s['flops']})"
        )
