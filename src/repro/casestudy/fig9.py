"""The Fig. 9 example system.

Datapath (Fig. 9(a)): unit ``S`` reads ``Din`` and the loop feedback,
and sends data to units ``I``, ``F`` and ``M`` in parallel, plus control
data (the opcode) to register ``C``.  ``I`` and ``S`` are unpipelined;
``F`` has three pipeline stages (registers F1, F2, F3); ``M`` is two
variable-latency units M1, M2 delivering into a register; ``W`` is a
multiplexer selecting one result by opcode, with three output registers
feeding back to ``S``.  Selection probabilities: I 0.6, F 0.3, M 0.1.
M1 takes 2 cycles w.p. 0.8 and 10 w.p. 0.2; M2 takes 1 or 2 cycles with
probability 0.5 each.

Elastic conversion (Fig. 9(b)): every register becomes an EB; ``S``
gets a join (Din + feedback) and an eager fork; ``W`` gets an early
join (or a lazy join in the baseline) and an output fork; the two VL
units get variable-latency controllers.  Initially the three EBs at
the output of W hold tokens, every other EB a bubble.

The opcode is encoded on two control bits (s1, s2): ``00`` selects I,
``01`` selects F and ``1-`` selects M, giving the early-enabling
function of Sect. 6::

    EE = V+c & ((!s1 & !s2 & V+I) | (!s1 & s2 & V+F) | (s1 & V+M))
"""

from __future__ import annotations

import enum
import random
from typing import Dict, List, Optional, Sequence

from repro.core.performance import distribution_latency
from repro.elastic.ee import MuxEE
from repro.rtl.netlist import Netlist
from repro.synthesis.spec import SystemSpec

#: opcode selection probabilities (Sect. 6)
OPCODE_PROBABILITIES: Dict[str, float] = {"I": 0.6, "F": 0.3, "M": 0.1}

#: the five channels reported in Table 1
CHANNELS_REPORTED: List[str] = ["F2->F3", "F3->W", "S->M1", "M1->M2", "M2->W"]

#: latency distributions ``{cycles: probability}`` of the VL units (Sect. 6)
VL_LATENCIES: Dict[str, Dict[int, float]] = {
    "M1": {2: 0.8, 10: 0.2},
    "M2": {1: 0.5, 2: 0.5},
}

#: their means (E[M1] = 3.6, E[M2] = 1.5): the latencies the DMG
#: abstraction assumes for the lazy bound and the model comparison
MEAN_LATENCY: Dict[str, float] = {
    unit: sum(cycles * p for cycles, p in dist.items())
    for unit, dist in VL_LATENCIES.items()
}

#: EJ input order: C (select), I, F, M
_EJ_INPUTS = {"C": 0, "I": 1, "F": 2, "M": 3}


class Config(enum.Enum):
    """The five Table 1 configurations."""

    ACTIVE = "Active anti-tokens"
    NO_BUFFER = "No buffer (S->W)"
    PASSIVE_F3W = "Passive (F3->W)"
    PASSIVE_M2W = "Passive (M2->W)"
    LAZY = "No early evaluation"


def _opcode_chooser(op: object) -> int:
    """Map the select payload to the required EJ data input."""
    return _EJ_INPUTS[str(op)]


def _gate_ee(nl: Netlist, vps: Sequence[str], datas: Sequence[Sequence[str]]) -> str:
    """Gate-level EE of the W multiplexer over control bits (s1, s2)."""
    vc, vi, vf, vm = vps
    s1, s2 = datas[0]
    n_s1 = nl.NOT(s1)
    n_s2 = nl.NOT(s2)
    sel_i = nl.AND(n_s1, n_s2, vi)
    sel_f = nl.AND(n_s1, s2, vf)
    sel_m = nl.AND(s1, vm)
    return nl.AND(vc, nl.OR(sel_i, sel_f, sel_m))


def opcode_source(seed: int):
    """Data function drawing opcodes with the Sect. 6 probabilities."""
    rng = random.Random(seed)
    ops = list(OPCODE_PROBABILITIES)
    weights = [OPCODE_PROBABILITIES[o] for o in ops]

    def data_fn(n: int) -> str:
        return rng.choices(ops, weights=weights, k=1)[0]

    return data_fn


def build_fig9_spec(config: Config = Config.ACTIVE, seed: int = 0) -> SystemSpec:
    """Build the Fig. 9 system in the given Table 1 configuration.

    The payload flowing through the system is the opcode string itself
    (the datapath values are irrelevant to control behaviour); the EJ
    select channel carries the same opcode, so simulation can check
    that W always delivers the operand the opcode selected.
    """
    spec = SystemSpec(f"fig9[{config.name.lower()}]")

    spec.add_source("Din", data_fn=opcode_source(seed * 1009 + 7))
    spec.add_sink("Dout")

    # S: join(Din, feedback), fork to I / F / M / C.  The opcode of the
    # new operation is taken from Din; every branch carries it.
    spec.add_block(
        "S",
        n_inputs=2,
        n_outputs=4,
        func=lambda ops: ops[0],  # the opcode from Din
    )
    # I: unpipelined unit; its output register.
    spec.add_block("I")
    spec.add_register("EB_I")
    # F: three pipeline stages.
    for reg in ("EB_F1", "EB_F2", "EB_F3"):
        spec.add_register(reg)
    # M: input buffer, two VL units, output register.
    spec.add_register("EB_M0")
    for unit in ("M1", "M2"):
        spec.add_block(unit, latency=distribution_latency(VL_LATENCIES[unit]))
    spec.add_register("EB_M")
    # C: the control buffer on the S -> W channel (dropped in NO_BUFFER).
    has_c = config is not Config.NO_BUFFER
    if has_c:
        spec.add_register("EB_C")
    # W: the multiplexer -- early join unless the lazy baseline.
    early = config is not Config.LAZY
    spec.add_block(
        "W",
        n_inputs=4,
        n_outputs=2,
        ee=MuxEE(select=0, chooser=_opcode_chooser, arity=4) if early else None,
        gate_ee=_gate_ee if early else None,
        g_inputs=[False, True, True, True] if early else None,
        func=None if early else (lambda ops: ops[_opcode_chooser(ops[0])]),
    )
    # The three EBs at the output of W, initially full.
    for reg in ("EB_W1", "EB_W2", "EB_W3"):
        spec.add_register(reg, initial_tokens=1, initial_data=["I"])

    # ------------------------------------------------------------------
    # Connections (channel names follow Table 1 where applicable).
    # ------------------------------------------------------------------
    spec.connect(spec.source("Din"), spec.block_in("S", 0), name="Din->S")
    spec.connect(spec.register_out("EB_W3"), spec.block_in("S", 1), name="fb->S")

    spec.connect(spec.block_out("S", 0), spec.block_in("I"), name="S->I")
    spec.connect(spec.block_out("S", 1), spec.register_in("EB_F1"), name="S->F1")
    spec.connect(spec.block_out("S", 2), spec.register_in("EB_M0"), name="S->M0")
    if has_c:
        spec.connect(spec.block_out("S", 3), spec.register_in("EB_C"), name="S->C", data_bits=2)
        spec.connect(spec.register_out("EB_C"), spec.block_in("W", 0), name="C->W", data_bits=2)
    else:
        spec.connect(spec.block_out("S", 3), spec.block_in("W", 0), name="C->W", data_bits=2)

    spec.connect(spec.block_out("I"), spec.register_in("EB_I"), name="I->EBI")
    spec.connect(spec.register_out("EB_I"), spec.block_in("W", 1), name="I->W")

    spec.connect(spec.register_out("EB_F1"), spec.register_in("EB_F2"), name="F1->F2")
    spec.connect(spec.register_out("EB_F2"), spec.register_in("EB_F3"), name="F2->F3")
    spec.connect(
        spec.register_out("EB_F3"),
        spec.block_in("W", 2),
        name="F3->W",
        passive=config is Config.PASSIVE_F3W,
    )

    spec.connect(spec.register_out("EB_M0"), spec.block_in("M1"), name="S->M1")
    spec.connect(spec.block_out("M1"), spec.block_in("M2"), name="M1->M2")
    spec.connect(
        spec.block_out("M2"),
        spec.register_in("EB_M"),
        name="M2->W",
        passive=config is Config.PASSIVE_M2W,
    )
    spec.connect(spec.register_out("EB_M"), spec.block_in("W", 3), name="M->W")

    spec.connect(spec.block_out("W", 0), spec.sink("Dout"), name="W->Dout")
    spec.connect(spec.block_out("W", 1), spec.register_in("EB_W1"), name="W->fb")
    spec.connect(spec.register_out("EB_W1"), spec.register_in("EB_W2"), name="W1->W2")
    spec.connect(spec.register_out("EB_W2"), spec.register_in("EB_W3"), name="W2->W3")

    spec.validate()
    return spec
