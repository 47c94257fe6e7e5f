"""Elaborate a netlist into a standalone generated Python module.

The emitted module is plain source on disk -- importable, diffable,
inspectable -- with no imports of its own.  It carries the netlist's
slot layout as module constants plus the **fused cycle functions** of
:data:`KERNELS` that can run on it, each one whole clock cycle as
straight-line code:

====================  ================================================
``cycle``             two-plane ternary semantics, override guards at
                      the hook slots (modules with hook slots)
``cycle_clean``       two-plane, no override code (every module)
``kcycle``            value-plane-only "known" dialect, guarded
                      (hook slots and ``KNOWN_OK``)
``kcycle_clean``      known dialect, no override code (``KNOWN_OK``)
====================  ================================================

A hook-free module carries no guarded kernel: only an installed
override selects one, and :class:`~repro.codegen.sim.CompiledSimulator`
rejects an override on any net outside the hooks.

A fused function folds input loading, the two phase programs, latch
captures, state reloads and the flip-flop update into one body whose
intermediate values live in Python locals -- the plane arrays are only
touched twice per cycle: sources never (state lives in the ``state``
dict), results once per *observed* slot at the end.  Restricting both
the override guards (``hooks``) and the final writeback (``observe``)
to what a caller actually uses is where the compiled backend's speed
comes from; passing ``None`` for either keeps the fully general
surface: guards at every named net, every named net observed.

Each phase computes only what it feeds (:func:`live_cycle`).  The LOW
phase recomputes every gate, so a HIGH-phase value reaches nothing but
the H latches it captures: the HIGH program keeps their fan-in and no
more, and is empty on a netlist without H latches.  The LOW program
keeps the fan-in of the L-latch captures, the flops' ``d`` and the
observed slots.  Inputs and state loads that neither phase reads are
not loaded, and their override guards go with them.

The known dialect is only emitted when every latch/flop init is a
known 0/1 (``KNOWN_OK``); its per-cycle eligibility (all inputs driven
known) is the caller's contract, checked by
:class:`~repro.codegen.sim.CompiledSimulator` each cycle.

Every operation in the generated code is a pure expression (no
augmented assignment), the all-X word is the ``zero`` parameter and
the lane mask the ``mask`` parameter; the simulator passes Python int
planes for both.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.codegen import kernel
from repro.codegen.fingerprint import (
    CODEGEN_VERSION,
    artifact_key,
    netlist_fingerprint,
)
from repro.rtl.logic import is_known
from repro.rtl.netlist import Netlist, Phase

__all__ = [
    "KERNELS",
    "Layout",
    "LiveCycle",
    "build_layout",
    "emit_module",
    "live_cycle",
]

#: Every fused kernel a module can carry, in source order, as
#: ``(name, known dialect, override guards)``.
KERNELS = (
    ("cycle", False, True),
    ("cycle_clean", False, False),
    ("kcycle", True, True),
    ("kcycle_clean", True, False),
)


class Layout:
    """The slot assignment and whole phase programs of one netlist.

    Slots number the named signals in insertion order (inputs, gates,
    latches, flops), so every module built from the same netlist --
    whatever its hooks and observe set -- agrees slot for slot.
    """

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self.netlist = netlist
        nl = netlist
        self.slot: Dict[str, int] = {}
        for sig in (*nl.inputs, *nl.gates, *nl.latches, *nl.flops):
            self.slot[sig] = len(self.slot)
        self.n_named = len(self.slot)
        self.inputs = [(name, self.slot[name]) for name in nl.inputs]
        self.flops = [
            (self.slot[q], self.slot[f.d]) for q, f in nl.flops.items()
        ]
        self.state_slots = [
            (q, self.slot[q]) for q in nl.latches
        ] + [(q, self.slot[q]) for q in nl.flops]
        self.init = {
            self.slot[q]: latch.init for q, latch in nl.latches.items()
        }
        self.init.update(
            {self.slot[q]: flop.init for q, flop in nl.flops.items()}
        )
        high = [q for q, l in nl.latches.items() if l.phase == Phase.HIGH]
        low = [q for q, l in nl.latches.items() if l.phase == Phase.LOW]
        self.load_high = [self.slot[q] for q in list(nl.flops) + low]
        self.load_low = [self.slot[q] for q in list(nl.flops) + high]
        self.capture_high = [self.slot[q] for q in high]
        self.capture_low = [self.slot[q] for q in low]
        self.templates, self.n_slots = kernel.decompose_gates(
            nl, self.slot, self.n_named
        )
        self.prog_high = kernel.phase_program(
            nl, self.slot, self.templates, Phase.HIGH
        )
        self.prog_low = kernel.phase_program(
            nl, self.slot, self.templates, Phase.LOW
        )
        self.known_ok = all(is_known(i) for i in self.init.values())


def build_layout(netlist: Netlist) -> Layout:
    """Compute the slot layout and phase programs (raises on cycles)."""
    return Layout(netlist)


class LiveCycle(NamedTuple):
    """One cycle's loads and phase programs, cut to what they feed."""

    inputs: List[Tuple[str, int]]
    load_high: List[int]
    prog_high: Tuple[kernel.Instr, ...]
    load_low: List[int]
    prog_low: Tuple[kernel.Instr, ...]


def live_cycle(layout: Layout, observed: List[int]) -> LiveCycle:
    """Each phase program of ``layout`` cut to its live cone.

    HIGH keeps the fan-in of the H-latch captures; LOW the fan-in of
    the L-latch captures, the flops' ``d`` and the ``observed`` slots.
    An input or state load survives only where a kept instruction, or
    the LOW phase's observed writeback, reads it.
    """
    prog_high, reads_high = kernel.live_cone(
        layout.prog_high, layout.capture_high
    )
    prog_low, reads_low = kernel.live_cone(
        layout.prog_low,
        [*layout.capture_low, *(d for _q, d in layout.flops), *observed],
    )
    reads = reads_high | reads_low
    return LiveCycle(
        inputs=[(name, s) for name, s in layout.inputs if s in reads],
        load_high=[s for s in layout.load_high if s in reads_high],
        prog_high=prog_high,
        load_low=[s for s in layout.load_low if s in reads_low],
        prog_low=prog_low,
    )


def _resolve(
    layout: Layout, names: Optional[FrozenSet[str]], what: str
) -> List[int]:
    """Named signals to sorted slots; ``None`` means every named slot."""
    if names is None:
        return list(range(layout.n_named))
    slots = []
    for name in sorted(names):
        slot = layout.slot.get(name)
        if slot is None:
            raise ValueError(f"unknown {what} signal {name!r}")
        slots.append(slot)
    return sorted(slots)


class _Body:
    """Indentation-aware statement accumulator."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def w(self, stmt: str, indent: int = 1) -> None:
        self.lines.append("    " * indent + stmt)


def _emit_cycle(
    layout: Layout,
    live: LiveCycle,
    name: str,
    hook_slots: frozenset,
    observed: List[int],
    known: bool,
    guarded: bool,
) -> List[str]:
    """One fused cycle function as source lines."""
    b = _Body()
    if known:
        params = "inputs, state, v, ov, mask, zero" if guarded else \
                 "inputs, state, v, mask, zero"
    else:
        params = "inputs, state, v, k, ov, mask, zero" if guarded else \
                 "inputs, state, v, k, mask, zero"
    b.lines.append(f"def {name}({params}):")

    def guard(slot: int) -> None:
        """Override guard for one hook slot, at the scalar simulator's
        application points (inputs re-mask after apply, state loads and
        gate outputs do not).  The known dialect receives
        pre-masked ``(~set0, set1, flip)`` triples instead of override
        objects: with every lane known, ``apply`` reduces to three bit
        ops, inlined here to skip the call frame per hook per cycle."""
        if not (guarded and slot in hook_slots):
            return
        b.w(f"_o=ov[{slot}]")
        if known:
            b.w(
                f"if _o is not None: "
                f"v{slot}=((v{slot}&_o[0])|_o[1])^_o[2]"
            )
        else:
            b.w(
                f"if _o is not None: "
                f"v{slot},k{slot}=_o.apply(v{slot},k{slot})"
            )

    # 1. primary inputs
    for iname, slot in live.inputs:
        if known:
            b.w(f"v{slot}=inputs[{iname!r}][0]&mask")
        else:
            b.w(f"_t=inputs.get({iname!r})")
            b.w("if _t is None:")
            b.w(f"v{slot}=zero; k{slot}=zero", indent=2)
            b.w("else:")
            b.w(f"v{slot}=_t[0]&mask; k{slot}=_t[1]&mask", indent=2)
        if guarded and slot in hook_slots:
            b.w(f"_o=ov[{slot}]")
            b.w("if _o is not None:")
            if known:
                # triple elements are pre-masked, so no re-mask needed
                b.w(
                    f"v{slot}=((v{slot}&_o[0])|_o[1])^_o[2]",
                    indent=2,
                )
            else:
                b.w(
                    f"v{slot},k{slot}=_o.apply(v{slot},k{slot}); "
                    f"v{slot}=v{slot}&mask; k{slot}=k{slot}&mask",
                    indent=2,
                )

    def load(slots: List[int]) -> None:
        for slot in slots:
            if known:
                b.w(f"v{slot}=state[{slot}][0]")
            else:
                b.w(f"_t=state[{slot}]")
                b.w(f"v{slot}=_t[0]; k{slot}=_t[1]")
            guard(slot)

    def run(program) -> None:
        lines_of = kernel.known_lines if known else kernel.two_plane_lines
        for op, out, a, bb, c in program:
            for stmt in lines_of(op, out, a, bb, c, zero="zero"):
                b.w(stmt)
            if out < layout.n_named:
                guard(out)

    def capture(slots: List[int]) -> None:
        for slot in slots:
            if known:
                b.w(f"state[{slot}]=(v{slot},mask)")
            else:
                b.w(f"state[{slot}]=(v{slot},k{slot})")

    # 2..8: the two live phases around the state dict, then the flop edge
    load(live.load_high)
    run(live.prog_high)
    capture(layout.capture_high)
    load(live.load_low)
    run(live.prog_low)
    capture(layout.capture_low)
    for qslot, dslot in layout.flops:
        if known:
            b.w(f"state[{qslot}]=(v{dslot},mask)")
        else:
            b.w(f"state[{qslot}]=(v{dslot},k{dslot})")

    # 9: write the observed end-of-cycle values back to the arrays
    for slot in observed:
        if known:
            b.w(f"v[{slot}]=v{slot}")
        else:
            b.w(f"v[{slot}]=v{slot}; k[{slot}]=k{slot}")

    if len(b.lines) == 1:
        b.w("pass")
    return b.lines


def emit_module(
    netlist: Netlist,
    hooks: Optional[FrozenSet[str]] = None,
    observe: Optional[FrozenSet[str]] = None,
) -> str:
    """The full generated module source for one netlist.

    ``hooks`` restricts which named signals get override guards
    (``set_overrides`` on anything else must be rejected by the
    caller); ``observe`` restricts which named slots are written back
    to the plane arrays each cycle.  ``None`` means all named signals
    for either.  A module with no hook slot carries no guarded kernel
    (see :data:`KERNELS`).
    """
    layout = build_layout(netlist)
    hook_slots = frozenset(_resolve(layout, hooks, "hook"))
    observed = _resolve(layout, observe, "observe")
    live = live_cycle(layout, observed)

    head: List[str] = [
        '"""Generated by repro.codegen -- do not edit.',
        "",
        f"Netlist: {netlist.name}",
        "Regenerate by deleting this artifact directory; the build",
        "cache re-emits it from the netlist on the next load.",
        '"""',
        "",
        f"CODEGEN_VERSION = {CODEGEN_VERSION}",
        f"FINGERPRINT = {netlist_fingerprint(netlist)!r}",
        f"KEY = {artifact_key(netlist, hooks, observe)!r}",
        f"NAME = {netlist.name!r}",
        f"N_NAMED = {layout.n_named}",
        f"N_SLOTS = {layout.n_slots}",
        f"KNOWN_OK = {layout.known_ok}",
        f"SLOT = {layout.slot!r}",
        f"INPUTS = {tuple(layout.inputs)!r}",
        f"STATE = {tuple(layout.state_slots)!r}",
        "# init values: 0/1, or None for an X (unknown) reset",
        "INIT = %r" % (
            {s: (int(i) if is_known(i) else None)
             for s, i in layout.init.items()},
        ),
        f"HOOKS = frozenset({sorted(hook_slots)!r})",
        f"OBSERVED = {tuple(observed)!r}",
    ]
    parts: List[str] = list(head)
    for name, known, guarded in KERNELS:
        if (known and not layout.known_ok) or (guarded and not hook_slots):
            continue
        parts.extend(["", ""])
        parts.extend(_emit_cycle(
            layout, live, name, hook_slots, observed,
            known=known, guarded=guarded,
        ))
    parts.append("")
    return "\n".join(parts)
