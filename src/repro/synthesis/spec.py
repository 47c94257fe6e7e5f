"""Declarative description of a synchronous system to be elasticized.

A :class:`SystemSpec` lists sources, sinks, functional blocks and
registers, wired by named point-to-point connections.  Endpoints are
``(kind, name, port)`` tuples created through the helper methods; each
port must be connected exactly once (:meth:`SystemSpec.validate`).

The spec captures the designer-facing choices of Sect. 6:

* which joins evaluate early (``BlockSpec.ee`` / ``gate_ee``);
* which units have variable latency (``BlockSpec.latency``);
* which channels use passive anti-token interfaces
  (``Connection.passive``);
* where buffers (registers) sit and how many initial tokens they hold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.elastic.ee import EarlyEvalFunction
from repro.elastic.gates import GateEE

Endpoint = Tuple[str, str, str]  # (kind, name, port)


@dataclass
class SourceSpec:
    """An environment producer (``{V+, S+}`` interface only)."""

    name: str
    p_valid: float = 1.0
    data_fn: Optional[Callable[[int], object]] = None


@dataclass
class SinkSpec:
    """An environment consumer; may stall or kill for verification runs."""

    name: str
    p_stop: float = 0.0
    p_kill: float = 0.0


@dataclass
class BlockSpec:
    """A functional unit.

    Attributes:
        n_inputs / n_outputs: port counts; a join is emitted for more
            than one input, an eager fork for more than one output.
        func: data function.  For multi-input blocks it receives the
            list of operand payloads; for single-input blocks the
            payload itself.
        ee / gate_ee: early-evaluation function (behavioural and gate
            level); when set, the block's join evaluates early.
        g_inputs: which inputs get anti-token generation (G gates) at
            the gate level; inputs whose validity is implied by the EE
            function (e.g. a mux select) may safely be excluded, which
            is what lets logic synthesis drop their pending flip-flops.
        latency: latency sampler; when set the block is a
            variable-latency unit (must be 1-input, 1-output).
        branch_data: per-output payload selector for forks,
            ``(branch_index, payload) -> payload``.
    """

    name: str
    n_inputs: int = 1
    n_outputs: int = 1
    func: Optional[Callable] = None
    ee: Optional[EarlyEvalFunction] = None
    gate_ee: Optional[GateEE] = None
    g_inputs: Optional[Sequence[bool]] = None
    latency: Optional[Callable[[random.Random], int]] = None
    branch_data: Optional[Callable[[int, object], object]] = None

    def __post_init__(self) -> None:
        if self.latency is not None and (self.n_inputs != 1 or self.n_outputs != 1):
            raise ValueError(
                f"{self.name}: variable-latency blocks must be 1-in/1-out"
            )
        if self.ee is not None and self.ee.arity != self.n_inputs:
            raise ValueError(f"{self.name}: EE arity != n_inputs")

    @property
    def is_early(self) -> bool:
        return self.ee is not None


@dataclass
class RegisterSpec:
    """A datapath register -> one EB controller.

    ``capacity`` is the token capacity of the buffer (2 = the paper's
    dual EB of two EHBs, the only size the gate-level backend emits).
    Undersized buffers are legal to *declare* -- the lint pass and
    :func:`~repro.synthesis.flow.elasticize` reject the configurations
    that deadlock (a full capacity-1 loop has no bubble to move into).
    """

    name: str
    initial_tokens: int = 0
    initial_data: Optional[Sequence[object]] = None
    capacity: int = 2


@dataclass
class Connection:
    """A point-to-point channel between two endpoints."""

    name: str
    src: Endpoint
    dst: Endpoint
    passive: bool = False
    data_bits: int = 0  # gate-level data wires bundled with the channel


class SystemSpec:
    """A system description consumed by the elasticization flow."""

    def __init__(self, name: str):
        self.name = name
        self.sources: Dict[str, SourceSpec] = {}
        self.sinks: Dict[str, SinkSpec] = {}
        self.blocks: Dict[str, BlockSpec] = {}
        self.registers: Dict[str, RegisterSpec] = {}
        self.connections: List[Connection] = []

    # -- declaration helpers --------------------------------------------
    def add_source(self, name: str, **kwargs) -> SourceSpec:
        return self._register(self.sources, SourceSpec(name, **kwargs))

    def add_sink(self, name: str, **kwargs) -> SinkSpec:
        return self._register(self.sinks, SinkSpec(name, **kwargs))

    def add_block(self, name: str, **kwargs) -> BlockSpec:
        return self._register(self.blocks, BlockSpec(name, **kwargs))

    def add_register(self, name: str, **kwargs) -> RegisterSpec:
        return self._register(self.registers, RegisterSpec(name, **kwargs))

    def _register(self, table: Dict[str, object], item):
        # One namespace: the DMG abstraction names nodes by name alone.
        for kind in (self.sources, self.sinks, self.blocks, self.registers):
            if item.name in kind:
                raise ValueError(f"duplicate {type(item).__name__} {item.name!r}: "
                                 f"already a {type(kind[item.name]).__name__}")
        table[item.name] = item
        return item

    # -- endpoints -------------------------------------------------------
    def source(self, name: str) -> Endpoint:
        return ("source", name, "out")

    def sink(self, name: str) -> Endpoint:
        return ("sink", name, "in")

    def block_in(self, name: str, port: int = 0) -> Endpoint:
        return ("block", name, f"in{port}")

    def block_out(self, name: str, port: int = 0) -> Endpoint:
        return ("block", name, f"out{port}")

    def register_in(self, name: str) -> Endpoint:
        return ("register", name, "in")

    def register_out(self, name: str) -> Endpoint:
        return ("register", name, "out")

    def connect(
        self,
        src: Endpoint,
        dst: Endpoint,
        name: Optional[str] = None,
        passive: bool = False,
        data_bits: int = 0,
    ) -> Connection:
        """Wire two endpoints; channel name defaults to ``src->dst``."""
        if name is None:
            name = f"{src[1]}->{dst[1]}"
            existing = {c.name for c in self.connections}
            suffix = 1
            base = name
            while name in existing:
                suffix += 1
                name = f"{base}#{suffix}"
        if name in {c.name for c in self.connections}:
            raise ValueError(f"duplicate connection name {name!r}")
        conn = Connection(name, src, dst, passive=passive, data_bits=data_bits)
        self.connections.append(conn)
        return conn

    def connection(self, name: str) -> Connection:
        for conn in self.connections:
            if conn.name == name:
                return conn
        raise KeyError(name)

    # -- validation --------------------------------------------------------
    def _expected_ports(self) -> Dict[Endpoint, str]:
        ports: Dict[Endpoint, str] = {}
        for s in self.sources.values():
            ports[("source", s.name, "out")] = "src"
        for s in self.sinks.values():
            ports[("sink", s.name, "in")] = "dst"
        for b in self.blocks.values():
            for i in range(b.n_inputs):
                ports[("block", b.name, f"in{i}")] = "dst"
            for i in range(b.n_outputs):
                ports[("block", b.name, f"out{i}")] = "src"
        for r in self.registers.values():
            ports[("register", r.name, "in")] = "dst"
            ports[("register", r.name, "out")] = "src"
        return ports

    def validate(self) -> None:
        """Check every port is connected exactly once with correct roles."""
        ports = self._expected_ports()
        used: Dict[Endpoint, int] = {p: 0 for p in ports}
        for conn in self.connections:
            for endpoint, role in ((conn.src, "src"), (conn.dst, "dst")):
                if endpoint not in ports:
                    raise ValueError(f"{conn.name}: unknown endpoint {endpoint}")
                if ports[endpoint] != role:
                    raise ValueError(
                        f"{conn.name}: endpoint {endpoint} used as {role}, "
                        f"declared as {ports[endpoint]}"
                    )
                used[endpoint] += 1
        unconnected = [p for p, n in used.items() if n == 0]
        duplicated = [p for p, n in used.items() if n > 1]
        if unconnected:
            raise ValueError(f"unconnected ports: {unconnected}")
        if duplicated:
            raise ValueError(f"multiply connected ports: {duplicated}")
