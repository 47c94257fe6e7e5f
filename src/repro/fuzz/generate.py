"""Seeded generation of random *valid* elastic system models.

:func:`generate_model` grows a :class:`~repro.fuzz.model.SpecModel` of
up to thousands of controllers from one ``random.Random``: a forward
DAG of joins/forks/pipes/VL units fed by sources, with registers
sprinkled on edges, early-evaluation joins at a configurable density,
passive interfaces, and loops closed through token-holding registers.

:func:`repair_model` is the validity pass that makes "valid by
construction" a checkable contract: it completes dangling ports with
fresh sources/sinks, clamps out-of-range attributes, and then iterates
the spec-level lint rules (:func:`repro.lint.elastic_rules.lint_spec`),
fixing every deadlock ERROR it reports -- a token into an ELX004
cycle, spare capacity into an ELX005 loop, an annihilating register
into an ELX006 counterflow cycle -- until the model lints clean.  The
same pass re-legalises the mutilated candidates that spec-level
shrinking produces, which is what lets ddmin remove whole blocks
without tracking connectivity itself.  A model the pass cannot fix
raises the typed :class:`SpecRepairError`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.fuzz.model import (
    BlockModel,
    ConnModel,
    EndpointModel,
    RegisterModel,
    SinkModel,
    SourceModel,
    SpecModel,
)

__all__ = ["GeneratorConfig", "SpecRepairError", "generate_model",
           "repair_model"]


class SpecRepairError(ValueError):
    """The repair pass could not produce a lint-clean model."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Densities and bounds for :func:`generate_model`."""

    max_blocks: int = 48
    min_blocks: int = 1
    #: probability a new block is a join (2..max_fanin inputs)
    p_join: float = 0.35
    #: probability a new block is a fork (2..max_fanout outputs)
    p_fork: float = 0.25
    #: probability a join evaluates early (k-of-n threshold EE)
    p_early: float = 0.4
    #: probability a 1-in/1-out block is a variable-latency unit
    p_vl: float = 0.15
    #: probability a block output goes through a fresh register
    p_register: float = 0.35
    #: probability a join defers one input to a feedback loop
    p_loop: float = 0.12
    #: probability a connection gets a passive anti-token interface
    p_passive: float = 0.08
    #: probability a non-feedback register gets a non-gate capacity
    p_odd_capacity: float = 0.0
    max_fanin: int = 3
    max_fanout: int = 3
    source_p_valid: Sequence[float] = (0.5, 0.75, 1.0)
    sink_p_stop: Sequence[float] = (0.0, 0.25, 0.5)
    #: probability a sink is a killing consumer (Fig. 8(b) set-up)
    p_kill_sink: float = 0.2
    sink_p_kill: float = 0.25


def _src_out(name: str) -> EndpointModel:
    return ("source", name, "out")


def _sink_in(name: str) -> EndpointModel:
    return ("sink", name, "in")


def _blk_in(name: str, port: int) -> EndpointModel:
    return ("block", name, f"in{port}")


def _blk_out(name: str, port: int) -> EndpointModel:
    return ("block", name, f"out{port}")


def _reg_in(name: str) -> EndpointModel:
    return ("register", name, "in")


def _reg_out(name: str) -> EndpointModel:
    return ("register", name, "out")


def generate_model(
    rng: random.Random,
    config: GeneratorConfig = GeneratorConfig(),
    name: str = "fuzz",
) -> SpecModel:
    """Grow one random valid model; deterministic given ``rng``'s state.

    The result is passed through :func:`repair_model`, so it elaborates
    and lints clean by construction.
    """
    model = SpecModel(name)
    counters = {"b": 0, "r": 0, "src": 0, "snk": 0}

    def fresh(kind: str) -> str:
        counters[kind] += 1
        return f"{kind}{counters[kind] - 1}"

    def new_source() -> EndpointModel:
        src = SourceModel(fresh("src"),
                          p_valid=rng.choice(list(config.source_p_valid)))
        model.sources.append(src)
        return _src_out(src.name)

    open_outputs: List[EndpointModel] = [new_source()]
    deferred_loops: List[EndpointModel] = []  # join inputs fed later

    def take_output() -> EndpointModel:
        if open_outputs and rng.random() < 0.8:
            return open_outputs.pop(rng.randrange(len(open_outputs)))
        return new_source()

    n_blocks = rng.randint(min(config.min_blocks, config.max_blocks),
                           config.max_blocks)
    for _ in range(n_blocks):
        n_in = (rng.randint(2, config.max_fanin)
                if rng.random() < config.p_join else 1)
        n_out = (rng.randint(2, config.max_fanout)
                 if rng.random() < config.p_fork else 1)
        ee = latency = None
        if n_in > 1 and rng.random() < config.p_early:
            ee = f"thr:{rng.randint(1, n_in)}"
        elif n_in == 1 and n_out == 1 and rng.random() < config.p_vl:
            latency = f"uniform:1:{rng.randint(1, 4)}"
        block = BlockModel(fresh("b"), n_inputs=n_in, n_outputs=n_out,
                           ee=ee, latency=latency)
        model.blocks.append(block)
        for port in range(n_in):
            if n_in > 1 and port > 0 and rng.random() < config.p_loop:
                deferred_loops.append(_blk_in(block.name, port))
                continue
            model.connections.append(
                ConnModel(take_output(), _blk_in(block.name, port))
            )
        for port in range(n_out):
            out = _blk_out(block.name, port)
            if rng.random() < config.p_register:
                cap, tokens = 2, rng.choice([0, 1])
                if rng.random() < config.p_odd_capacity:
                    cap = rng.choice([1, 3])
                    tokens = min(tokens, cap)
                reg = RegisterModel(fresh("r"), capacity=cap,
                                    initial_tokens=tokens)
                model.registers.append(reg)
                model.connections.append(ConnModel(out, _reg_in(reg.name)))
                out = _reg_out(reg.name)
            open_outputs.append(out)

    # Close deferred loop inputs through a token+bubble register (one
    # initial token, capacity 2): any cycle through such a register has
    # both a token to move and a bubble to move into, and its buffer
    # annihilates counterflow -- lint-clean whichever edge it lands on.
    for endpoint in deferred_loops:
        reg = RegisterModel(fresh("r"), capacity=2, initial_tokens=1)
        model.registers.append(reg)
        model.connections.append(ConnModel(take_output(), _reg_in(reg.name)))
        model.connections.append(ConnModel(_reg_out(reg.name), endpoint))

    for out in open_outputs:
        sink = SinkModel(fresh("snk"),
                         p_stop=rng.choice(list(config.sink_p_stop)))
        if rng.random() < config.p_kill_sink:
            sink.p_kill = config.sink_p_kill
        model.sinks.append(sink)
        model.connections.append(ConnModel(out, _sink_in(sink.name)))

    if any(b.ee is not None for b in model.blocks):
        for conn in model.connections:
            if rng.random() < config.p_passive:
                conn.passive = True

    return repair_model(model)


# ----------------------------------------------------------------------
# Validity repair
# ----------------------------------------------------------------------
def _fresh_name(taken: Set[str], prefix: str) -> str:
    i = 0
    while f"{prefix}{i}" in taken:
        i += 1
    taken.add(f"{prefix}{i}")
    return f"{prefix}{i}"


def _expected_ports(model: SpecModel) -> Dict[EndpointModel, str]:
    ports: Dict[EndpointModel, str] = {}
    for s in model.sources:
        ports[_src_out(s.name)] = "src"
    for s in model.sinks:
        ports[_sink_in(s.name)] = "dst"
    for b in model.blocks:
        for i in range(b.n_inputs):
            ports[_blk_in(b.name, i)] = "dst"
        for i in range(b.n_outputs):
            ports[_blk_out(b.name, i)] = "src"
    for r in model.registers:
        ports[_reg_in(r.name)] = "dst"
        ports[_reg_out(r.name)] = "src"
    return ports


def _structural_repair(model: SpecModel) -> None:
    """Port-completeness and attribute clamping (in place)."""
    # Deduplicate component names across kinds, one namespace as in
    # component_names() (first declaration wins).
    seen: Set[str] = set()
    for items in (model.sources, model.sinks, model.blocks, model.registers):
        items[:] = [x for x in items
                    if x.name not in seen and not seen.add(x.name)]
    # Clamp attributes into their palettes.
    for b in model.blocks:
        b.n_inputs = max(1, b.n_inputs)
        b.n_outputs = max(1, b.n_outputs)
        if b.ee is not None:
            if b.n_inputs < 2:
                b.ee = None
            else:
                _, _, arg = b.ee.partition(":")
                try:
                    k = int(arg)
                except ValueError:
                    k = b.n_inputs
                b.ee = f"thr:{min(max(k, 1), b.n_inputs)}"
        if b.latency is not None and (b.n_inputs != 1 or b.n_outputs != 1):
            b.latency = None
        if b.latency is not None and b.ee is not None:
            b.ee = None
    for r in model.registers:
        r.capacity = max(1, r.capacity)
        r.initial_tokens = min(max(0, r.initial_tokens), r.capacity)
    # Keep each port's first connection; drop unknown/duplicate uses.
    ports = _expected_ports(model)
    used: Set[EndpointModel] = set()
    kept: List[ConnModel] = []
    for conn in model.connections:
        src, dst = tuple(conn.src), tuple(conn.dst)
        if ports.get(src) != "src" or ports.get(dst) != "dst":
            continue
        if src in used or dst in used:
            continue
        used.update((src, dst))
        conn.src, conn.dst = src, dst
        kept.append(conn)
    model.connections = kept
    # Stub every dangling port with a fresh source or sink.
    taken = set(model.component_names())
    for port in sorted(p for p in ports if p not in used):
        if ports[port] == "dst":
            src = SourceModel(_fresh_name(taken, "src"))
            model.sources.append(src)
            model.connections.append(ConnModel(_src_out(src.name), port))
        else:
            sink = SinkModel(_fresh_name(taken, "snk"))
            model.sinks.append(sink)
            model.connections.append(ConnModel(port, _sink_in(sink.name)))


def _arc_index(model: SpecModel, path: Sequence[str]) -> Optional[int]:
    """Index of a connection joining two consecutive path components."""
    arcs = set(zip(path, tuple(path[1:]) + (path[0],)))
    for i, conn in enumerate(model.connections):
        if (conn.src[1], conn.dst[1]) in arcs:
            return i
    return None


def _insert_register(model: SpecModel, conn_index: int) -> None:
    """Split one connection through a fresh token+bubble register."""
    taken = set(model.component_names())
    reg = RegisterModel(_fresh_name(taken, "r"), capacity=2,
                        initial_tokens=1)
    model.registers.append(reg)
    conn = model.connections[conn_index]
    model.connections[conn_index] = ConnModel(
        conn.src, _reg_in(reg.name), passive=conn.passive
    )
    model.connections.append(ConnModel(_reg_out(reg.name), conn.dst))


def _fix_deadlock(model: SpecModel, finding) -> bool:
    """Apply one lint-driven fix; True when the model changed."""
    path = tuple(finding.path)
    registers = {r.name: r for r in model.registers}
    on_path = [registers[n] for n in path if n in registers]
    if finding.rule == "ELX004" and on_path:
        # A token-free cycle through existing registers: seed a token
        # (and ensure a bubble stays available).
        reg = on_path[0]
        reg.initial_tokens = max(reg.initial_tokens, 1)
        reg.capacity = max(reg.capacity, 2)
        return True
    if finding.rule == "ELX005" and on_path:
        # Bubble-free loop: free one slot on a register of the cycle.
        reg = on_path[0]
        reg.capacity = max(reg.capacity, 2)
        reg.initial_tokens = min(reg.initial_tokens, reg.capacity - 1, 1)
        reg.initial_tokens = max(reg.initial_tokens, 1)
        return True
    # ELX006 (and register-free ELX004 cycles): break an arc of the
    # cycle with a fresh annihilating token+bubble register.
    index = _arc_index(model, path)
    if index is None:
        return False
    _insert_register(model, index)
    return True


def repair_model(model: SpecModel, max_rounds: int = 12) -> SpecModel:
    """Return a lint-clean copy of ``model`` (see module docstring).

    Raises :class:`SpecRepairError` when the lint loop fails to
    converge, and :class:`~repro.fuzz.model.InvalidSpecModel` when the
    model is structurally beyond repair (e.g. empty).
    """
    from repro.lint.elastic_rules import lint_spec

    model = model.clone()
    _structural_repair(model)
    errors: List = []
    for _ in range(max_rounds):
        spec = model.build()  # raises InvalidSpecModel on empty/bad models
        errors = [f for f in lint_spec(spec)
                  if f.severity.name == "ERROR"]
        if not errors:
            return model
        progressed = False
        for finding in errors:
            progressed |= _fix_deadlock(model, finding)
        if not progressed:
            break
        _structural_repair(model)
    raise SpecRepairError(
        f"{model.name}: repair did not converge after {max_rounds} rounds "
        f"({len(errors)} lint error(s) remain: "
        f"{'; '.join(str(f) for f in errors[:3])})"
    )
