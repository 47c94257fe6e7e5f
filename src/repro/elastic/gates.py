"""Gate-level elastic controllers (Figs. 3--7 of the paper).

Each builder adds one controller to a :class:`~repro.rtl.netlist.
Netlist`.  Channels are quadruples of signal names (:class:`GateChannel`)
``{V+, S+, V−, S−}``; a builder drives the two signals owned by its side
of each channel.  The equations transcribe the behavioural layer
(:mod:`repro.elastic.behavioral`) one-to-one, so the two layers can be
cross-checked, and the netlists feed

* the area pipeline of :mod:`repro.rtl.area` (Table 1 literal/latch/FF
  columns) -- state bits of elastic buffers are built as master/slave
  transparent-latch pairs (2 latches per EHB, 4 per EB, 8 per dual EB,
  matching the paper's counts), while the pending-token bits of forks
  and joins are flip-flops (the paper's ``ff`` column);
* the model checker of :mod:`repro.verif` (Fig. 8(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.rtl.netlist import Netlist, Phase


@dataclass(frozen=True)
class GateChannel:
    """Signal names of one dual channel."""

    name: str
    vp: str
    sp: str
    vn: str
    sn: str

    @staticmethod
    def declare(nl: Netlist, name: str) -> "GateChannel":
        """Reserve the four wire names (drivers added by controllers)."""
        return GateChannel(name, f"{name}.vp", f"{name}.sp", f"{name}.vn", f"{name}.sn")

    def wires(self) -> Tuple[str, str, str, str]:
        return (self.vp, self.sp, self.vn, self.sn)


def ms_flop(nl: Netlist, d: str, q: Optional[str] = None, init: int = 0) -> str:
    """An edge-triggered bit as a master(L)/slave(H) latch pair.

    This is how the elasticization flow implements registers (step 1 of
    Sect. 6: registers become pairs of master-slave latches), and how
    EB state is stored so that latch counts match the paper's area
    numbers.
    """
    master = nl.add_latch(d, Phase.LOW, init=init)
    return nl.add_latch(master, Phase.HIGH, q=q, init=init)


# An EE netlist builder: given the netlist, the input V+ wires and the
# data wires bundled with each channel, return the enabling signal.
GateEE = Callable[[Netlist, Sequence[str], Sequence[Sequence[str]]], str]


def and_ee(nl: Netlist, vps: Sequence[str], datas: Sequence[Sequence[str]]) -> str:
    """The lazy join enabling function: conjunction of all valids."""
    return nl.AND(*vps)


def build_elastic_buffer(
    nl: Netlist,
    left: GateChannel,
    right: GateChannel,
    prefix: str,
    initial_tokens: int = 0,
    as_latches: bool = True,
) -> None:
    """A dual elastic buffer -- two EHBs, Fig. 3 / Fig. 5.

    State: up to two tokens (bits ``t0 >= t1``) and up to two
    anti-tokens (bits ``a0 >= a1``).  Each bit is a master/slave
    latch pair (2 latches per EHB, as the paper counts area); pass
    ``as_latches=False`` to use plain flip-flops instead, which halves
    the number of state bits for model checking without changing the
    cycle behaviour.  All four channel outputs are state-bit outputs,
    so an EB cuts every combinational path, and the cancellation gates
    sit at its boundaries exactly as the paper requires.
    """
    if not 0 <= initial_tokens <= 2:
        raise ValueError("an EB stores at most two tokens")

    def state_bit(d: str, q: str, init: int) -> str:
        if as_latches:
            return ms_flop(nl, d, q=q, init=init)
        return nl.add_flop(d, q=q, init=init)

    t0_d = f"{prefix}.t0_d"
    t1_d = f"{prefix}.t1_d"
    t0 = state_bit(t0_d, f"{prefix}.t0", 1 if initial_tokens >= 1 else 0)
    t1 = state_bit(t1_d, f"{prefix}.t1", 1 if initial_tokens >= 2 else 0)
    a0_d = f"{prefix}.a0_d"
    a1_d = f"{prefix}.a1_d"
    a0 = state_bit(a0_d, f"{prefix}.a0", 0)
    a1 = state_bit(a1_d, f"{prefix}.a1", 0)

    # Channel outputs: pure functions of state.
    nl.BUF(t0, out=right.vp)
    nl.BUF(a1, out=right.sn)
    nl.BUF(t1, out=left.sp)
    nl.BUF(a0, out=left.vn)

    # Boundary events (the cancellation gates of Fig. 5).
    n_t1 = nl.NOT(t1)
    n_t0 = nl.NOT(t0)
    n_a0 = nl.NOT(a0)
    n_a1 = nl.NOT(a1)
    n_spr = nl.NOT(right.sp)
    n_vnr = nl.NOT(right.vn)
    n_vpl = nl.NOT(left.vp)
    n_snl = nl.NOT(left.sn)

    in_pos = nl.AND(left.vp, n_t1, n_a0, out=f"{prefix}.in_pos")
    kill_left = nl.AND(left.vp, a0, out=f"{prefix}.kill_left")
    out_pos = nl.AND(t0, n_spr, n_vnr, out=f"{prefix}.out_pos")
    kill_right = nl.AND(t0, right.vn, out=f"{prefix}.kill_right")
    in_neg = nl.AND(right.vn, n_t0, n_a1, out=f"{prefix}.in_neg")
    out_neg = nl.AND(a0, n_snl, n_vpl, out=f"{prefix}.out_neg")

    inc = nl.OR(in_pos, kill_left, out_neg, out=f"{prefix}.inc")
    dec = nl.OR(out_pos, kill_right, in_neg, out=f"{prefix}.dec")
    up = nl.AND(inc, nl.NOT(dec), out=f"{prefix}.up")
    down = nl.AND(dec, nl.NOT(inc), out=f"{prefix}.down")
    n_up = nl.NOT(up)
    n_down = nl.NOT(down)

    # Signed-occupancy next state (count in [-2, 2]).  The gain terms
    # are written as in_pos/in_neg conjunctions (rather than up & !a0 /
    # down & !t0, which are equivalent) so that tying a channel's V−
    # wire to 0 makes the anti-token state bits *syntactically*
    # constant -- that is what lets sequential constant propagation
    # strip the negative logic of anti-token-free regions.
    nl.OR(
        nl.AND(t0, nl.OR(n_down, t1)),
        nl.AND(in_pos, nl.NOT(dec)),
        out=t0_d,
    )
    nl.OR(nl.AND(t1, n_down), nl.AND(t0, up), out=t1_d)
    nl.OR(
        nl.AND(a0, nl.OR(n_up, a1)),
        nl.AND(in_neg, nl.NOT(inc)),
        out=a0_d,
    )
    nl.OR(nl.AND(a1, n_up), nl.AND(a0, down), out=a1_d)


def build_join(
    nl: Netlist,
    inputs: Sequence[GateChannel],
    output: GateChannel,
    prefix: str,
    ee: Optional[GateEE] = None,
    datas: Optional[Sequence[Sequence[str]]] = None,
    g_inputs: Optional[Sequence[bool]] = None,
) -> None:
    """A dual join (Fig. 6(a)); with ``ee`` the early join of Fig. 6(c).

    ``ee`` builds the enabling function from the input valid wires and
    the per-channel data wires (``datas``); when omitted the lazy
    conjunction is used and no G gates are emitted.

    ``g_inputs`` selects which inputs get anti-token generation.  An
    input whose validity is implied by the EE function (e.g. the select
    of a multiplexer, which every cofactor requires) never receives an
    anti-token, so its G gate and pending flip-flop can be omitted --
    this is the simplification that leaves the paper's early join with
    one flip-flop per *data* input only.
    """
    n = len(inputs)
    early = ee is not None
    ee_builder = ee if ee is not None else and_ee
    data_wires: Sequence[Sequence[str]] = datas if datas is not None else [()] * n
    g_mask = list(g_inputs) if g_inputs is not None else [early] * n
    if len(g_mask) != n:
        raise ValueError("g_inputs mask length must match the inputs")

    apend = [
        nl.add_flop(f"{prefix}.apend{i}_d", q=f"{prefix}.apend{i}", init=0)
        for i in range(n)
    ]
    pending = nl.OR(*apend, out=f"{prefix}.pending") if n > 1 else nl.BUF(apend[0])
    n_pending = nl.NOT(pending)

    enable = ee_builder(nl, [ch.vp for ch in inputs], data_wires)
    nl.AND(enable, n_pending, out=output.vp)
    nl.BUF(pending, out=output.sn)

    fire = nl.AND(output.vp, nl.NOT(output.sp), out=f"{prefix}.fire")
    n_fire = nl.NOT(fire)
    forked = nl.AND(
        output.vn, nl.NOT(output.vp), n_pending, out=f"{prefix}.forked"
    )

    for i, ch in enumerate(inputs):
        terms = [apend[i], forked]
        generated = None
        if early and g_mask[i]:
            # G gate: anti-token for inputs absent at an (early) firing.
            generated = nl.AND(fire, nl.NOT(ch.vp), out=f"{prefix}.gen{i}")
            terms.append(generated)
        vn_i = nl.OR(*terms, out=ch.vn)
        nl.AND(n_fire, nl.NOT(vn_i), out=ch.sp)  # I gate keeps invariant (2)
        delivered = nl.AND(vn_i, nl.OR(ch.vp, nl.NOT(ch.sn)), out=f"{prefix}.del{i}")
        incoming = nl.OR(forked, generated) if generated is not None else forked
        nl.AND(nl.OR(apend[i], incoming), nl.NOT(delivered), out=f"{prefix}.apend{i}_d")


def build_fork(
    nl: Netlist,
    input: GateChannel,
    outputs: Sequence[GateChannel],
    prefix: str,
) -> None:
    """A dual eager fork (Fig. 6(b); positive part is Fig. 4(b)).

    One pending flip-flop per output remembers which copies of the
    current token are still owed; anti-tokens pass backwards through
    the fork only when present on every output channel (the lazy dual
    join), annihilating in-flight copies on the way.
    """
    n = len(outputs)
    pend = [
        nl.add_flop(f"{prefix}.pend{i}_d", q=f"{prefix}.pend{i}", init=1)
        for i in range(n)
    ]

    anti_all = nl.AND(*[ch.vn for ch in outputs]) if n > 1 else nl.BUF(outputs[0].vn)
    # The anti-token wave crosses only at a fresh token boundary (all
    # pending flags set); gating on state rather than on the upstream
    # wires keeps abutted forks free of combinational cycles (Sect. 4)
    # while a colliding token annihilates the wave (kill), preserving
    # Retry- persistence.  See the behavioural EagerFork.
    fresh = nl.AND(*pend, out=f"{prefix}.fresh") if n > 1 else nl.BUF(pend[0])
    vn_in = nl.AND(anti_all, fresh, out=input.vn)
    moved = nl.AND(vn_in, nl.OR(input.vp, nl.NOT(input.sn)),
                   out=f"{prefix}.moved")
    n_moved = nl.NOT(moved)

    done: List[str] = []
    completed: List[str] = []
    for i, ch in enumerate(outputs):
        vp_i = nl.AND(input.vp, pend[i], out=ch.vp)
        comp = nl.AND(vp_i, nl.OR(nl.NOT(ch.sp), ch.vn), out=f"{prefix}.comp{i}")
        completed.append(comp)
        done.append(nl.OR(nl.NOT(pend[i]), comp, out=f"{prefix}.done{i}"))
        nl.AND(n_moved, nl.NOT(vp_i), out=ch.sn)  # I gate
    all_done = nl.AND(*done, out=f"{prefix}.all_done") if n > 1 else nl.BUF(done[0])
    nl.AND(nl.NOT(all_done), nl.NOT(vn_in), out=input.sp)

    consumed = nl.AND(input.vp, all_done, out=f"{prefix}.consumed")
    for i in range(n):
        nl.OR(consumed, nl.AND(pend[i], nl.NOT(completed[i])), out=f"{prefix}.pend{i}_d")


def build_passive(
    nl: Netlist, up: GateChannel, down: GateChannel, prefix: str
) -> None:
    """The passive anti-token interface of Fig. 7(a).

    ``S− = not V+`` (the inverter); a kill downstream appears upstream
    as a plain transfer; the upstream region has no ``V−`` wires.
    """
    nl.BUF(up.vp, out=down.vp)
    nl.NOT(up.vp, out=down.sn)
    nl.const0(out=up.vn)
    nl.AND(down.sp, nl.NOT(down.vn), out=up.sp)


def build_variable_latency(
    nl: Netlist,
    left: GateChannel,
    right: GateChannel,
    prefix: str,
    done_input: str,
) -> Tuple[str, str]:
    """The variable-latency controller of Fig. 7(b).

    The functional unit is abstracted by the ``done_input`` wire (a
    non-deterministic primary input during model checking): it may be
    asserted any cycle while the unit is occupied.  Returns the
    ``(go, ack)`` handshake wires toward the unit.
    """
    occ = nl.add_flop(f"{prefix}.occ_d", q=f"{prefix}.occ", init=0)
    fin = nl.add_flop(f"{prefix}.fin_d", q=f"{prefix}.fin", init=0)
    n_occ = nl.NOT(occ)

    nl.BUF(fin, out=right.vp)
    busy = nl.AND(occ, nl.NOT(fin), out=f"{prefix}.busy")
    # While busy an anti-token is *accepted* -- it preempts the
    # computation in flight (counterflow preemption, refs [1, 2]).
    nl.AND(n_occ, left.sn, nl.NOT(left.vp), out=right.sn)
    vn_in = nl.AND(right.vn, n_occ, out=left.vn)
    abort = nl.AND(busy, right.vn, out=f"{prefix}.abort")

    ack = nl.AND(fin, nl.OR(nl.NOT(right.sp), right.vn), out=f"{prefix}.ack")
    # A new operand is accepted while idle or in the cycle the previous
    # result departs (back-to-back go/ack on the Fig. 7(b) interface).
    nl.AND(occ, nl.NOT(ack), out=left.sp)
    go = nl.AND(left.vp, nl.OR(n_occ, ack), nl.NOT(vn_in), out=f"{prefix}.go")
    nl.AND(
        nl.OR(go, nl.AND(occ, nl.NOT(ack))),
        nl.NOT(abort),
        out=f"{prefix}.occ_d",
    )
    nl.AND(
        nl.OR(fin, nl.AND(busy, done_input)),
        nl.NOT(ack),
        nl.NOT(abort),
        out=f"{prefix}.fin_d",
    )
    return go, ack


def build_nd_source(
    nl: Netlist, output: GateChannel, prefix: str, choice_input: str
) -> None:
    """A protocol-obeying non-deterministic producer.

    ``choice_input`` freely decides whether to offer a token; an FF
    enforces SELF persistence (a retried token stays offered).  The
    source has no anti-token support: ``S− = not V+`` (passive rule).
    """
    pend = nl.add_flop(f"{prefix}.pend_d", q=f"{prefix}.pend", init=0)
    vp = nl.OR(pend, choice_input, out=output.vp)
    nl.NOT(vp, out=output.sn)
    retry = nl.AND(vp, output.sp, nl.NOT(output.vn), out=f"{prefix}.retry")
    nl.BUF(retry, out=f"{prefix}.pend_d")


def build_nd_sink(
    nl: Netlist,
    input: GateChannel,
    prefix: str,
    stall_input: str,
    kill_input: Optional[str] = None,
) -> None:
    """A protocol-obeying non-deterministic consumer.

    Each cycle it stalls (``stall_input``), sends an anti-token
    (``kill_input``, if provided) or accepts.  Anti-token persistence
    (Retry−) is enforced by a flip-flop; the invariant ``not (V− and
    S+)`` is kept by priority of kill over stall.
    """
    if kill_input is not None:
        apend = nl.add_flop(f"{prefix}.apend_d", q=f"{prefix}.apend", init=0)
        vn = nl.OR(apend, kill_input, out=input.vn)
        nl.AND(stall_input, nl.NOT(vn), out=input.sp)
        retry_neg = nl.AND(vn, input.sn, nl.NOT(input.vp), out=f"{prefix}.retryn")
        nl.BUF(retry_neg, out=f"{prefix}.apend_d")
    else:
        nl.const0(out=input.vn)
        nl.BUF(stall_input, out=input.sp)
