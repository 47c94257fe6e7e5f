"""Gate-level data correctness: the Fig. 8(b) set-up, exhaustively.

The behavioural harness in :mod:`repro.verif.datapath` explores random
traces; this module builds the *gate-level* version the paper model
checked: controller netlists with a 1-bit datapath, producers emitting
an alternating 0/1 trace, and consumers that non-deterministically
accept, stall, or kill.  The consumer carries an expected-parity bit
and raises an ``error`` wire whenever a visible value (a transfer or a
kill at its interface) disagrees -- so data correctness becomes the CTL
property ``AG !error`` over the exhaustive (state x input) space.

Components:

* :func:`build_data_buffer` -- a dual EB with two 1-bit data slots
  (head/tail) shifting with the token flow and annihilating with
  kills;
* :func:`build_alternating_source` -- protocol-obeying producer whose
  payload is a parity bit advancing on every consumption (transfer or
  kill) of its token;
* :func:`build_checking_sink` -- non-deterministic consumer with the
  parity checker;
* :func:`build_data_fork` -- an eager fork whose branches carry copies
  of the payload;
* :func:`verify_data_correctness` -- builds the Kripke structure and
  checks ``AG !error``;
* :func:`alternating_pipeline` -- the stock producer -> buffers ->
  checker pipelines, with or without kills, optionally sabotaged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.elastic.gates import (
    GateChannel,
    build_elastic_buffer,
    build_fork,
    build_nd_sink,
    build_nd_source,
)
from repro.rtl.netlist import Netlist
from repro.verif.ctl import AG, AP, ModelChecker, Not
from repro.verif.kripke import KripkeStructure, build_kripke


def build_data_buffer(
    nl: Netlist,
    left: GateChannel,
    right: GateChannel,
    din: str,
    prefix: str,
    initial_tokens: int = 0,
    as_latches: bool = False,
) -> str:
    """A dual elastic buffer with a two-slot 1-bit data FIFO.

    ``din`` is the payload wire bundled with the left channel; the
    returned wire is the payload offered with ``right.V+``.  Data slots
    ``d0`` (head) and ``d1`` shift when the head token leaves (transfer
    or kill); an arriving token writes the tail slot.
    """
    build_elastic_buffer(
        nl, left, right, prefix=prefix,
        initial_tokens=initial_tokens, as_latches=as_latches,
    )
    t0 = f"{prefix}.t0"
    t1 = f"{prefix}.t1"
    in_pos = f"{prefix}.in_pos"
    shift = nl.OR(f"{prefix}.out_pos", f"{prefix}.kill_right",
                  out=f"{prefix}.shift")

    d0 = f"{prefix}.d0"
    d1 = f"{prefix}.d1"
    # head slot: on shift take d1 (two tokens) or the incoming payload
    # (back-to-back); otherwise hold, or capture into an empty buffer.
    no_shift_val = nl.MUX(t0, d0, nl.MUX(in_pos, din, d0))
    shift_val = nl.MUX(t1, d1, din)
    d0_d = nl.MUX(shift, shift_val, no_shift_val, out=f"{prefix}.d0_d")
    # tail slot: capture when a token arrives while one stays resident.
    load1 = nl.AND(in_pos, nl.OR(t1, nl.AND(t0, nl.NOT(shift))),
                   out=f"{prefix}.load1")
    d1_d = nl.MUX(load1, din, d1, out=f"{prefix}.d1_d")
    if as_latches:
        from repro.elastic.gates import ms_flop

        ms_flop(nl, d0_d, q=d0, init=0)
        ms_flop(nl, d1_d, q=d1, init=0)
    else:
        nl.add_flop(d0_d, q=d0, init=0)
        nl.add_flop(d1_d, q=d1, init=0)
    return d0


def build_alternating_source(
    nl: Netlist, output: GateChannel, prefix: str, choice_input: str
) -> str:
    """A non-deterministic producer emitting the 0,1,0,1,... trace.

    Returns the payload wire.  The parity advances whenever the offered
    token is consumed -- by a transfer *or* by a kill on the channel.
    """
    build_nd_source(nl, output, prefix=prefix, choice_input=choice_input)
    parity = f"{prefix}.parity"
    consumed = nl.AND(
        output.vp, nl.OR(nl.NOT(output.sp), output.vn),
        out=f"{prefix}.consumed",
    )
    nl.add_flop(nl.XOR(parity, consumed, out=f"{prefix}.parity_d"),
                q=parity, init=0)
    return parity


def build_checking_sink(
    nl: Netlist,
    input: GateChannel,
    data: str,
    prefix: str,
    stall_input: str,
    kill_input: Optional[str] = None,
) -> str:
    """A non-deterministic consumer with the alternating-parity checker.

    Returns the ``error`` wire: asserted when a visible consumed value
    (transfer or kill at this interface) differs from the expected
    parity.  Anti-tokens sent into the netlist advance the parity
    blindly (they will annihilate exactly the next in-flight token).
    """
    build_nd_sink(nl, input, prefix=prefix, stall_input=stall_input,
                  kill_input=kill_input)
    expected = f"{prefix}.expected"
    visible = nl.OR(
        nl.AND(input.vp, nl.NOT(input.sp), nl.NOT(input.vn)),
        nl.AND(input.vp, input.vn),
        out=f"{prefix}.visible",
    )
    anti_sent = nl.AND(input.vn, nl.NOT(input.sn), nl.NOT(input.vp),
                       out=f"{prefix}.anti_sent")
    consume = nl.OR(visible, anti_sent, out=f"{prefix}.consume")
    nl.add_flop(nl.XOR(expected, consume, out=f"{prefix}.expected_d"),
                q=expected, init=0)
    error = nl.AND(visible, nl.XOR(data, expected), out=f"{prefix}.error")
    return error


def build_data_fork(
    nl: Netlist,
    input: GateChannel,
    outputs: Sequence[GateChannel],
    din: str,
    prefix: str,
) -> List[str]:
    """An eager fork; every branch carries a copy of the payload."""
    build_fork(nl, input, outputs, prefix=prefix)
    return [din for _ in outputs]


def verify_data_correctness(
    netlist: Netlist,
    error_wires: Sequence[str],
    max_states: int = 500_000,
) -> Tuple[bool, KripkeStructure]:
    """Exhaustively check ``AG !error`` for every checker.

    Returns ``(ok, kripke)``; ``ok`` is True iff no reachable
    (state, input) pair raises any error wire.
    """
    observe = list(error_wires) + list(netlist.inputs)
    kripke = build_kripke(netlist, observe=observe, max_states=max_states)
    checker = ModelChecker(kripke)
    ok = all(checker.holds(AG(Not(AP(w)))) for w in error_wires)
    return ok, kripke


def alternating_pipeline(
    n_buffers: int = 2,
    with_kill: bool = True,
    sabotage: bool = False,
) -> Tuple[Netlist, List[str]]:
    """The canonical Fig. 8(b) pipeline at gate level.

    producer -> n data buffers -> checking consumer.  With ``sabotage``
    the first buffer's head slot is fed from the wrong place (the data
    equivalent of a stuck-at fault), which the checker must expose.
    """
    nl = Netlist("fig8b-gate")
    chans = [GateChannel.declare(nl, f"c{i}") for i in range(n_buffers + 1)]
    choice = nl.add_input("src.choice")
    data = build_alternating_source(nl, chans[0], prefix="src",
                                    choice_input=choice)
    for i in range(n_buffers):
        if sabotage and i == 0:
            data = _sabotaged_buffer(nl, chans[i], chans[i + 1], data, f"eb{i}")
        else:
            data = build_data_buffer(nl, chans[i], chans[i + 1], data,
                                     prefix=f"eb{i}")
    stall = nl.add_input("snk.stall")
    kill = nl.add_input("snk.kill") if with_kill else None
    error = build_checking_sink(nl, chans[-1], data, prefix="snk",
                                stall_input=stall, kill_input=kill)
    nl.add_output(error)
    nl.validate()
    return nl, [error]


def _sabotaged_buffer(
    nl: Netlist, left: GateChannel, right: GateChannel, din: str, prefix: str
) -> str:
    """A data buffer whose head slot ignores shifts (a real data bug)."""
    build_elastic_buffer(nl, left, right, prefix=prefix, as_latches=False)
    d0 = f"{prefix}.d0"
    in_pos = f"{prefix}.in_pos"
    # Broken: only ever captures a new head when empty; never shifts.
    t0 = f"{prefix}.t0"
    d0_d = nl.MUX(nl.AND(in_pos, nl.NOT(t0)), din, d0, out=f"{prefix}.d0_d")
    nl.add_flop(d0_d, q=d0, init=0)
    return d0
