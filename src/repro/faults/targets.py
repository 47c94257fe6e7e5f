"""Named fault-campaign targets.

Each target wraps one controller of Figs. 5--7 in a protocol-obeying
non-deterministic environment (the same ``nd_source``/``nd_sink``
stubs the model-checking testbenches use), and records

* which primary inputs are the environment's free choices (driven by
  the campaign's seeded stimulus),
* which nets belong to the device under test (the fault sites -- the
  nets *driven by* the controller builder, collected by snapshotting
  the netlist around the build call),
* which dual channels the online monitors watch, and
* where the EB state bits live (for the conservation/encoding
  monitors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.elastic.gates import (
    GateChannel,
    build_elastic_buffer,
    build_fork,
    build_join,
    build_nd_sink,
    build_nd_source,
    build_passive,
    build_variable_latency,
)
from repro.faults.monitors import EbProbe
from repro.rtl.netlist import Netlist


def build_duplex_source(
    nl: Netlist,
    output: GateChannel,
    prefix: str,
    choice_input: str,
    accept_input: str,
) -> None:
    """A non-deterministic producer that also accepts anti-tokens.

    Like :func:`~repro.elastic.gates.build_nd_source` but with a second
    free choice: when not offering a token it may lower ``S−``
    (``accept_input``), letting the DUT emit an anti-token leftwards.
    Without this the ``out_neg`` path of a dual EB is environment-dead
    and its faults are unexercisable.  ``S− = ¬V+ ∧ ¬accept`` keeps the
    equation (2) invariant ``¬(V+ ∧ S−)`` by construction.
    """
    pend = nl.add_flop(f"{prefix}.pend_d", q=f"{prefix}.pend", init=0)
    vp = nl.OR(pend, choice_input, out=output.vp)
    nl.AND(nl.NOT(vp), nl.NOT(accept_input), out=output.sn)
    retry = nl.AND(vp, output.sp, nl.NOT(output.vn), out=f"{prefix}.retry")
    nl.BUF(retry, out=f"{prefix}.pend_d")


@dataclass
class RtlTarget:
    """A netlist plus everything a fault campaign needs to drive it."""

    name: str
    netlist: Netlist
    channels: List[GateChannel]
    free_inputs: List[str]
    fault_sites: List[str]
    ebs: List[EbProbe] = field(default_factory=list)

    @property
    def observe(self) -> List[str]:
        """Wires compared against the golden run (the channel interface)."""
        wires: List[str] = []
        for ch in self.channels:
            wires.extend(ch.wires())
        for probe in self.ebs:
            wires.extend(probe.state_bits)
        return wires


def _dut_nets(nl: Netlist, before: set) -> List[str]:
    """Nets driven by the cells added since the ``before`` snapshot."""
    added = (set(nl.gates) | set(nl.latches) | set(nl.flops)) - before
    return sorted(added)


def _snapshot(nl: Netlist) -> set:
    return set(nl.gates) | set(nl.latches) | set(nl.flops)


def dual_ehb(
    initial_tokens: int = 0, as_latches: bool = False
) -> RtlTarget:
    """source -> dual EB (Fig. 5) -> killing sink."""
    nl = Netlist("dual_ehb")
    left = GateChannel.declare(nl, "L")
    right = GateChannel.declare(nl, "R")
    choice = nl.add_input("src.choice")
    accept = nl.add_input("src.accept")
    build_duplex_source(nl, left, prefix="src",
                        choice_input=choice, accept_input=accept)
    before = _snapshot(nl)
    build_elastic_buffer(
        nl, left, right, prefix="eb",
        initial_tokens=initial_tokens, as_latches=as_latches,
    )
    sites = _dut_nets(nl, before)
    stall = nl.add_input("snk.stall")
    kill = nl.add_input("snk.kill")
    build_nd_sink(nl, right, prefix="snk", stall_input=stall, kill_input=kill)
    for ch in (left, right):
        for w in ch.wires():
            nl.add_output(w)
    return RtlTarget(
        name="dual_ehb",
        netlist=nl,
        channels=[left, right],
        free_inputs=[choice, accept, stall, kill],
        fault_sites=sites,
        ebs=[EbProbe("eb", left, right)],
    )


def dual_ehb_latches() -> RtlTarget:
    """The Fig. 5 EB with master/slave latch state (the area-true form)."""
    target = dual_ehb(as_latches=True)
    target.name = "dual_ehb_latches"
    target.netlist.name = "dual_ehb_latches"
    return target


def join(n: int = 2, early: bool = False) -> RtlTarget:
    """n sources -> dual (or early 1-of-n) join (Fig. 6(a)/(c)) -> sink."""
    nl = Netlist("early_join" if early else "join")
    ins = [GateChannel.declare(nl, f"I{k}") for k in range(n)]
    out = GateChannel.declare(nl, "Z")
    for k, ch in enumerate(ins):
        choice = nl.add_input(f"src{k}.choice")
        build_nd_source(nl, ch, prefix=f"src{k}", choice_input=choice)
    before = _snapshot(nl)
    ee = (lambda netl, vps, datas: netl.OR(*vps)) if early else None
    build_join(nl, ins, out, prefix="j", ee=ee,
               datas=[()] * n if early else None)
    sites = _dut_nets(nl, before)
    stall = nl.add_input("snk.stall")
    kill = nl.add_input("snk.kill")
    build_nd_sink(nl, out, prefix="snk", stall_input=stall, kill_input=kill)
    channels = [*ins, out]
    for ch in channels:
        for w in ch.wires():
            nl.add_output(w)
    return RtlTarget(
        name=nl.name,
        netlist=nl,
        channels=channels,
        free_inputs=[f"src{k}.choice" for k in range(n)] + [stall, kill],
        fault_sites=sites,
    )


def fork(n: int = 2) -> RtlTarget:
    """source -> dual eager fork (Fig. 6(b)) -> n killing sinks."""
    nl = Netlist("fork")
    inp = GateChannel.declare(nl, "I")
    outs = [GateChannel.declare(nl, f"O{k}") for k in range(n)]
    choice = nl.add_input("src.choice")
    build_nd_source(nl, inp, prefix="src", choice_input=choice)
    before = _snapshot(nl)
    build_fork(nl, inp, outs, prefix="f")
    sites = _dut_nets(nl, before)
    free = [choice]
    for k, ch in enumerate(outs):
        stall = nl.add_input(f"snk{k}.stall")
        kill = nl.add_input(f"snk{k}.kill")
        build_nd_sink(nl, ch, prefix=f"snk{k}", stall_input=stall,
                      kill_input=kill)
        free.extend([stall, kill])
    channels = [inp, *outs]
    for ch in channels:
        for w in ch.wires():
            nl.add_output(w)
    return RtlTarget(
        name="fork", netlist=nl, channels=channels,
        free_inputs=free, fault_sites=sites,
    )


def passive() -> RtlTarget:
    """source -> passive anti-token interface (Fig. 7(a)) -> sink."""
    nl = Netlist("passive")
    up = GateChannel.declare(nl, "U")
    down = GateChannel.declare(nl, "D")
    choice = nl.add_input("src.choice")
    build_nd_source(nl, up, prefix="src", choice_input=choice)
    before = _snapshot(nl)
    build_passive(nl, up, down, prefix="p")
    sites = _dut_nets(nl, before)
    stall = nl.add_input("snk.stall")
    kill = nl.add_input("snk.kill")
    build_nd_sink(nl, down, prefix="snk", stall_input=stall, kill_input=kill)
    for ch in (up, down):
        for w in ch.wires():
            nl.add_output(w)
    return RtlTarget(
        name="passive", netlist=nl, channels=[up, down],
        free_inputs=[choice, stall, kill], fault_sites=sites,
    )


def variable_latency() -> RtlTarget:
    """source -> VL controller (Fig. 7(b)) -> sink; ``done`` is free."""
    nl = Netlist("vl")
    left = GateChannel.declare(nl, "L")
    right = GateChannel.declare(nl, "R")
    choice = nl.add_input("src.choice")
    build_nd_source(nl, left, prefix="src", choice_input=choice)
    done = nl.add_input("vl.done")
    before = _snapshot(nl)
    build_variable_latency(nl, left, right, prefix="vl", done_input=done)
    sites = _dut_nets(nl, before)
    stall = nl.add_input("snk.stall")
    kill = nl.add_input("snk.kill")
    build_nd_sink(nl, right, prefix="snk", stall_input=stall, kill_input=kill)
    for ch in (left, right):
        for w in ch.wires():
            nl.add_output(w)
    return RtlTarget(
        name="vl", netlist=nl, channels=[left, right],
        free_inputs=[choice, done, stall, kill], fault_sites=sites,
    )


#: name -> builder, the ``repro inject --netlist`` registry
TARGETS: Dict[str, Callable[[], RtlTarget]] = {
    "dual_ehb": dual_ehb,
    "dual_ehb_latches": dual_ehb_latches,
    "join": join,
    "early_join": lambda: join(early=True),
    "fork": fork,
    "passive": passive,
    "vl": variable_latency,
}
