"""Elaboration of a :class:`~repro.synthesis.spec.SystemSpec`.

Two backends:

* :func:`to_behavioral` -- instantiate the cycle-accurate controllers
  of :mod:`repro.elastic.behavioral` (the paper's Verilog simulation
  model, including randomised environments and latencies);
* :func:`to_gates` -- emit the gate/latch/FF netlist of
  :mod:`repro.elastic.gates` (the paper's BLIF/SMV models), with
  non-deterministic environment stubs optionally included for model
  checking, or excluded for control-layer area accounting.

:func:`control_layer_area` runs the constant-propagation + pruning +
literal-count pipeline, which automatically removes the ``{V−, S−}``
logic of channels that can never see anti-tokens -- the paper's "this
simplification is performed by simple logic synthesis techniques".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.elastic.behavioral import (
    Controller,
    EagerFork,
    EarlyJoin,
    ElasticBuffer,
    ElasticNetwork,
    Join,
    PassiveAntiToken,
    Pipe,
    Sink,
    Source,
    VariableLatency,
)
from repro.elastic.channel import Channel
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
from repro.rtl.area import AreaReport, synthesize_area
from repro.rtl.netlist import Netlist
from repro.synthesis.spec import BlockSpec, Connection, Endpoint, SystemSpec


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


# ----------------------------------------------------------------------
# Behavioural backend
# ----------------------------------------------------------------------
def to_behavioral(
    spec: SystemSpec,
    seed: int = 0,
    monitor: bool = True,
    check_data: bool = True,
) -> ElasticNetwork:
    """Build the cycle-accurate elastic network for ``spec``."""
    spec.validate()
    net = ElasticNetwork(spec.name)

    # Channels: one per connection; passive connections get an up/down
    # pair glued by the Fig. 7(a) interface.
    src_side: Dict[str, Channel] = {}
    dst_side: Dict[str, Channel] = {}
    for conn in spec.connections:
        if conn.passive:
            up = net.add_channel(f"{conn.name}.up", monitor=monitor, check_data=check_data)
            down = net.add_channel(conn.name, monitor=monitor, check_data=check_data)
            net.add(PassiveAntiToken(f"{conn.name}.passive", up, down))
            src_side[conn.name] = up
            dst_side[conn.name] = down
        else:
            ch = net.add_channel(conn.name, monitor=monitor, check_data=check_data)
            src_side[conn.name] = ch
            dst_side[conn.name] = ch

    def channel_at(endpoint: Endpoint, role: str) -> Channel:
        for conn in spec.connections:
            if role == "src" and conn.src == endpoint:
                return src_side[conn.name]
            if role == "dst" and conn.dst == endpoint:
                return dst_side[conn.name]
        raise KeyError(f"no connection at {endpoint} as {role}")

    for s in spec.sources.values():
        net.add(
            Source(
                s.name,
                channel_at(("source", s.name, "out"), "src"),
                data_fn=s.data_fn,
                p_valid=s.p_valid,
                rng=_rng(seed, f"src.{s.name}"),
            )
        )
    for s in spec.sinks.values():
        net.add(
            Sink(
                s.name,
                channel_at(("sink", s.name, "in"), "dst"),
                p_stop=s.p_stop,
                p_kill=s.p_kill,
                rng=_rng(seed, f"sink.{s.name}"),
            )
        )
    for r in spec.registers.values():
        net.add(
            ElasticBuffer(
                r.name,
                channel_at(("register", r.name, "in"), "dst"),
                channel_at(("register", r.name, "out"), "src"),
                capacity=r.capacity,
                initial_tokens=r.initial_tokens,
                initial_data=r.initial_data,
            )
        )
    for b in spec.blocks.values():
        _behavioral_block(net, spec, b, channel_at, seed)
    return net


def _behavioral_block(
    net: ElasticNetwork,
    spec: SystemSpec,
    b: BlockSpec,
    channel_at,
    seed: int,
) -> None:
    ins = [channel_at(("block", b.name, f"in{i}"), "dst") for i in range(b.n_inputs)]
    outs = [channel_at(("block", b.name, f"out{i}"), "src") for i in range(b.n_outputs)]

    if b.latency is not None:
        net.add(
            VariableLatency(
                b.name,
                ins[0],
                outs[0],
                latency=b.latency,
                func=b.func,
                rng=_rng(seed, f"vl.{b.name}"),
            )
        )
        return

    if b.n_inputs > 1:
        target = outs[0]
        if b.n_outputs > 1:
            target = net.add_channel(f"{b.name}.j2f")
        if b.is_early:
            net.add(EarlyJoin(f"{b.name}.join", ins, target, b.ee))
        else:
            combine = b.func if b.func is not None else tuple
            net.add(Join(f"{b.name}.join", ins, target, combine=combine))
        if b.n_outputs > 1:
            net.add(
                EagerFork(f"{b.name}.fork", target, outs, branch_data=b.branch_data)
            )
    elif b.n_outputs > 1:
        source = ins[0]
        if b.func is not None:
            mid = net.add_channel(f"{b.name}.p2f")
            net.add(Pipe(f"{b.name}.fn", source, mid, func=b.func))
            source = mid
        net.add(EagerFork(f"{b.name}.fork", source, outs, branch_data=b.branch_data))
    else:
        net.add(Pipe(b.name, ins[0], outs[0], func=b.func))


# ----------------------------------------------------------------------
# Gate-level backend
# ----------------------------------------------------------------------
@dataclass
class GateElaboration:
    """Result of :func:`to_gates`."""

    netlist: Netlist
    #: consumer-side channel per connection name (``<name>`` for plain
    #: connections; passive connections also expose ``<name>.up``)
    channels: Dict[str, GateChannel]
    #: data wires per connection name (primary inputs, for EE functions)
    data_wires: Dict[str, List[str]]
    #: environment choice inputs (source offers, sink stalls/kills, VL
    #: done signals) -- useful for fairness constraints
    env_inputs: List[str] = field(default_factory=list)


def to_gates(
    spec: SystemSpec,
    include_env: bool = True,
    as_latches: bool = True,
) -> GateElaboration:
    """Emit the gate-level control layer for ``spec``.

    With ``include_env`` the sources/sinks become protocol-obeying
    non-deterministic stubs (for model checking); without it the
    environment-driven wires become free primary inputs and no
    environment state is added (for area accounting of the control
    layer alone).
    """
    spec.validate()
    nl = Netlist(spec.name)
    channels: Dict[str, GateChannel] = {}
    data_wires: Dict[str, List[str]] = {}
    env_inputs: List[str] = []
    src_side: Dict[str, GateChannel] = {}
    dst_side: Dict[str, GateChannel] = {}

    for conn in spec.connections:
        if conn.passive:
            up = GateChannel.declare(nl, f"{conn.name}.up")
            down = GateChannel.declare(nl, conn.name)
            build_passive(nl, up, down, prefix=f"{conn.name}.pas")
            channels[f"{conn.name}.up"] = up
            channels[conn.name] = down
            src_side[conn.name] = up
            dst_side[conn.name] = down
        else:
            ch = GateChannel.declare(nl, conn.name)
            channels[conn.name] = ch
            src_side[conn.name] = ch
            dst_side[conn.name] = ch
        wires = [nl.add_input(f"{conn.name}.d{i}") for i in range(conn.data_bits)]
        data_wires[conn.name] = wires

    def channel_at(endpoint: Endpoint, role: str) -> Tuple[GateChannel, Connection]:
        for conn in spec.connections:
            if role == "src" and conn.src == endpoint:
                return src_side[conn.name], conn
            if role == "dst" and conn.dst == endpoint:
                return dst_side[conn.name], conn
        raise KeyError(f"no connection at {endpoint} as {role}")

    for s in spec.sources.values():
        ch, _ = channel_at(("source", s.name, "out"), "src")
        if include_env:
            choice = nl.add_input(f"{s.name}.choice")
            env_inputs.append(choice)
            build_nd_source(nl, ch, prefix=s.name, choice_input=choice)
        else:
            nl.add_input(ch.vp)
            nl.NOT(ch.vp, out=ch.sn)

    for s in spec.sinks.values():
        ch, _ = channel_at(("sink", s.name, "in"), "dst")
        if include_env:
            stall = nl.add_input(f"{s.name}.stall")
            env_inputs.append(stall)
            kill = None
            if s.p_kill > 0:
                kill = nl.add_input(f"{s.name}.kill")
                env_inputs.append(kill)
            build_nd_sink(nl, ch, prefix=s.name, stall_input=stall, kill_input=kill)
        else:
            nl.add_input(ch.sp)
            if s.p_kill > 0:
                nl.add_input(ch.vn)
            else:
                nl.const0(out=ch.vn)

    for r in spec.registers.values():
        if r.capacity != 2:
            raise ValueError(
                f"{r.name}: the gate-level backend only emits the dual "
                f"EB of two EHBs (capacity 2), got capacity {r.capacity}"
            )
        left, _ = channel_at(("register", r.name, "in"), "dst")
        right, _ = channel_at(("register", r.name, "out"), "src")
        build_elastic_buffer(
            nl,
            left,
            right,
            prefix=r.name,
            initial_tokens=r.initial_tokens,
            as_latches=as_latches,
        )

    for b in spec.blocks.values():
        _gate_block(nl, spec, b, channel_at, data_wires, env_inputs, include_env)

    for name, ch in channels.items():
        for wire in ch.wires():
            nl.add_output(wire)
    nl.validate()
    return GateElaboration(
        netlist=nl, channels=channels, data_wires=data_wires, env_inputs=env_inputs
    )


def _wire_through(nl: Netlist, left: GateChannel, right: GateChannel) -> None:
    """A 1-in/1-out block's control layer is just wires."""
    nl.BUF(left.vp, out=right.vp)
    nl.BUF(left.sn, out=right.sn)
    nl.BUF(right.sp, out=left.sp)
    nl.BUF(right.vn, out=left.vn)


def _gate_block(
    nl: Netlist,
    spec: SystemSpec,
    b: BlockSpec,
    channel_at,
    data_wires: Dict[str, List[str]],
    env_inputs: List[str],
    include_env: bool,
) -> None:
    ins: List[GateChannel] = []
    in_data: List[List[str]] = []
    for i in range(b.n_inputs):
        ch, conn = channel_at(("block", b.name, f"in{i}"), "dst")
        ins.append(ch)
        in_data.append(data_wires[conn.name])
    outs = [
        channel_at(("block", b.name, f"out{i}"), "src")[0]
        for i in range(b.n_outputs)
    ]

    if b.latency is not None:
        done = nl.add_input(f"{b.name}.done")
        env_inputs.append(done)
        build_variable_latency(nl, ins[0], outs[0], prefix=b.name, done_input=done)
        return

    if b.n_inputs > 1:
        target = outs[0]
        if b.n_outputs > 1:
            target = GateChannel.declare(nl, f"{b.name}.j2f")
        build_join(
            nl,
            ins,
            target,
            prefix=b.name,
            ee=b.gate_ee if b.is_early else None,
            datas=in_data,
            g_inputs=b.g_inputs,
        )
        if b.n_outputs > 1:
            build_fork(nl, target, outs, prefix=f"{b.name}.fork")
    elif b.n_outputs > 1:
        build_fork(nl, ins[0], outs, prefix=b.name)
    else:
        _wire_through(nl, ins[0], outs[0])


def control_layer_area(spec: SystemSpec) -> AreaReport:
    """Area of the elastic control layer (Table 1's last columns).

    Builds the gate netlist without environment stubs, sweeps constants
    (removing the negative wires of channels that never carry
    anti-tokens) and prunes dead logic, then counts literals in
    factored form, transparent latches and flip-flops.
    """
    return synthesize_area(
        to_gates(spec, include_env=False, as_latches=True).netlist
    )
