"""Elastic front-end of the static analyzer (the ``ELX0xx`` rules).

Three entry points, one per abstraction level:

* :func:`lint_spec` -- a :class:`~repro.synthesis.spec.SystemSpec`
  before elaboration: connectivity (ELX001), controller shape (ELX003),
  static deadlock analysis (ELX004/ELX005), anti-token balance
  (ELX006) and inert passive interfaces (ELX007);
* :func:`lint_network` -- a hand-built or elaborated
  :class:`~repro.elastic.behavioral.ElasticNetwork`: channel polarity
  (ELX002) plus the same deadlock/counterflow cycle rules over the
  live controller graph;
* :func:`lint_dmg` -- a :class:`~repro.core.dmg.DualMarkedGraph`:
  token-free cycles (ELX004) straight off the marking.

The deadlock rules encode the two-level liveness story of the paper:
ELX004 is the classical Sect. 2.2 criterion (every cycle positively
marked); ELX005 is the refinement the DMG abstraction misses -- its
simultaneous-firing semantics lets a full capacity-1 loop rotate, but
the EB handshake needs a bubble somewhere on the cycle for any token to
advance, so such loops deadlock in the implementation.  ELX006
attributes a deadlock cycle to the counterflow discipline when it runs
behind an early join with no annihilating buffer or passive interface
on it (the anti-tokens the join emits can then never die).

ELX008/ELX009 run a *token-availability* fixpoint on the shared
dataflow engine (:mod:`repro.lint.dataflow`): every element and channel
gets a value from the three-level lattice NEVER < SOMETIMES < ALWAYS
("can a valid token ever / persistently appear here").  ELX008 flags a
threshold-EE arm whose guard is met every cycle by the other,
persistently valid arms alone; ELX009 flags an early-join arm that
receives anti-tokens but whose channel can never carry a token to
annihilate them (refining ELX006 beyond structural cycles).  Both
attach witness chains replayed by :func:`replay_spec_witness`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.elastic.behavioral import (
    Controller,
    EarlyJoin,
    ElasticBuffer,
    ElasticNetwork,
    PassiveAntiToken,
    controller_ports,
)
from repro.elastic.ee import MuxEE, ThresholdEE
from repro.lint.dataflow import fixpoint, spec_graph, spec_in_channels
from repro.lint.findings import Finding
from repro.rtl.toposort import canonical_cycle, order_or_cycle
from repro.synthesis.spec import Connection, SystemSpec

__all__ = [
    "lint_spec",
    "lint_network",
    "lint_dmg",
    "replay_spec_witness",
    "token_availability",
]

#: The token-availability lattice: NEVER < SOMETIMES < ALWAYS.
NEVER, SOMETIMES, ALWAYS = 0, 1, 2


# ----------------------------------------------------------------------
# Cycle hunting over a generic arc list
# ----------------------------------------------------------------------
def _find_cycles(
    arcs: Sequence[Tuple[str, str]], max_cycles: int = 8
) -> List[List[str]]:
    """Up to ``max_cycles`` distinct simple cycles of a digraph.

    Reuses the shared :func:`~repro.rtl.toposort.order_or_cycle` walker:
    find one cycle, cut its closing arc, rescan.  Node order is the
    canonical rotation, in flow order; the hunt runs over the graph
    with sorted keys and predecessors, so *which* cycles are found is
    independent of arc declaration order.
    """
    preds: Dict[str, List[str]] = {}
    for src, dst in arcs:
        preds.setdefault(src, [])
        preds.setdefault(dst, []).append(src)
    graph = {n: tuple(sorted(preds[n])) for n in sorted(preds)}
    cycles: List[List[str]] = []
    seen: Set[Tuple[str, ...]] = set()
    for _ in range(max_cycles):
        _, cycle = order_or_cycle(graph)
        if cycle is None:
            break
        key = tuple(canonical_cycle(list(cycle)))
        if key not in seen:
            seen.add(key)
            cycles.append(list(key))
        first, last = key[0], key[-1]
        graph[first] = tuple(p for p in graph[first] if p != last)
    return cycles


def _loop_text(names: Sequence[str]) -> str:
    return " -> ".join(list(names) + [names[0]])


# ----------------------------------------------------------------------
# Spec-level rules
# ----------------------------------------------------------------------
def _spec_connectivity(spec: SystemSpec) -> List[Finding]:
    """ELX001: the non-raising mirror of ``SystemSpec.validate``."""
    target = spec.name
    ports = spec._expected_ports()
    used: Dict[Tuple[str, str, str], int] = {p: 0 for p in ports}
    findings = []
    for conn in spec.connections:
        for endpoint, role in ((conn.src, "src"), (conn.dst, "dst")):
            if endpoint not in ports:
                findings.append(Finding(
                    "ELX001", target, conn.name,
                    f"unknown endpoint {endpoint}",
                ))
            elif ports[endpoint] != role:
                want = "producer" if role == "src" else "consumer"
                have = "producer" if ports[endpoint] == "src" else "consumer"
                findings.append(Finding(
                    "ELX001", target, conn.name,
                    f"endpoint {endpoint} wired as {want} but declared "
                    f"as {have}: {{V+, S-}} flow forward, {{S+, V-}} "
                    "flow backward",
                ))
            else:
                used[endpoint] += 1
    for endpoint in sorted(p for p, n in used.items() if n == 0):
        findings.append(Finding(
            "ELX001", target, ":".join(endpoint),
            f"port {endpoint} is never connected",
        ))
    for endpoint in sorted(p for p, n in used.items() if n > 1):
        findings.append(Finding(
            "ELX001", target, ":".join(endpoint),
            f"port {endpoint} is connected {used[endpoint]} times",
        ))
    return findings


def _spec_shapes(spec: SystemSpec) -> List[Finding]:
    """ELX003: arity masks and buffer occupancy declarations."""
    target = spec.name
    findings = []
    for b in spec.blocks.values():
        if b.g_inputs is not None and len(b.g_inputs) != b.n_inputs:
            findings.append(Finding(
                "ELX003", target, b.name,
                f"g_inputs mask has {len(b.g_inputs)} entries for "
                f"{b.n_inputs} inputs",
            ))
    for r in spec.registers.values():
        capacity = getattr(r, "capacity", 2)
        if capacity < 1:
            findings.append(Finding(
                "ELX003", target, r.name,
                f"capacity {capacity} < 1: an EB needs at least one EHB",
            ))
        if not 0 <= r.initial_tokens <= max(capacity, 1):
            findings.append(Finding(
                "ELX003", target, r.name,
                f"initial_tokens {r.initial_tokens} does not fit "
                f"capacity {capacity}",
            ))
        if (r.initial_data is not None
                and len(r.initial_data) != r.initial_tokens):
            findings.append(Finding(
                "ELX003", target, r.name,
                f"initial_data has {len(r.initial_data)} payloads for "
                f"{r.initial_tokens} initial tokens",
            ))
    return findings


def _spec_node(endpoint: Tuple[str, str, str]) -> str:
    return f"{endpoint[0]}:{endpoint[1]}"


def _display(nodes: Sequence[str]) -> Tuple[str, ...]:
    return tuple(n.split(":", 1)[1] for n in nodes)


def _spec_deadlocks(spec: SystemSpec) -> List[Finding]:
    """ELX004 / ELX005 / ELX006 over the connection graph."""
    target = spec.name
    findings = []

    def tokens_of(conn: Connection) -> int:
        if conn.src[0] == "register":
            return spec.registers[conn.src[1]].initial_tokens
        return 0

    def spare_of(conn: Connection) -> int:
        if conn.src[0] == "register":
            r = spec.registers[conn.src[1]]
            return max(getattr(r, "capacity", 2) - r.initial_tokens, 0)
        return 0  # a direct channel holds no token between cycles

    early = {b.name for b in spec.blocks.values() if b.is_early}
    registers = set(spec.registers)
    passive_pairs = {
        (_spec_node(c.src), _spec_node(c.dst))
        for c in spec.connections if c.passive
    }

    def classify(cycle: List[str]) -> Tuple[str, str]:
        names = _display(cycle)
        on_register = any(
            node.startswith("register:") for node in cycle
        )
        arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
        on_passive = any(a in passive_pairs for a in arcs)
        if not on_register and not on_passive and early & set(names):
            join = sorted(early & set(names))[0]
            return "ELX006", (
                f"anti-tokens from early join {join!r} circulate the "
                f"cycle {_loop_text(names)} with no annihilating buffer "
                "or passive interface to die in"
            )
        return "ELX004", (
            f"channel cycle {_loop_text(names)} carries no token: "
            "no transfer can ever fire on it"
        )

    zero_token = [
        (_spec_node(c.src), _spec_node(c.dst))
        for c in spec.connections if tokens_of(c) == 0
    ]
    token_free: Set[Tuple[str, ...]] = set()
    for cycle in _find_cycles(zero_token):
        token_free.add(tuple(cycle))
        rule, message = classify(cycle)
        names = _display(cycle)
        findings.append(Finding(rule, target, names[0], message, path=names))

    zero_spare = [
        (_spec_node(c.src), _spec_node(c.dst))
        for c in spec.connections if spare_of(c) == 0
    ]
    for cycle in _find_cycles(zero_spare):
        has_token = any(
            node.startswith("register:")
            and spec.registers[node.split(":", 1)[1]].initial_tokens > 0
            for node in cycle
        )
        if not has_token or tuple(cycle) in token_free:
            continue  # token-free cycles are ELX004's
        names = _display(cycle)
        findings.append(Finding(
            "ELX005", target, names[0],
            f"cycle {_loop_text(names)} has no spare EB capacity: every "
            "buffer is full, so no token can advance (undersized loop; "
            "give one register more capacity or fewer initial tokens)",
            path=names,
        ))
    return findings


def _spec_passive_use(spec: SystemSpec) -> List[Finding]:
    """ELX007: passive interfaces in a system with no early join."""
    if any(b.is_early for b in spec.blocks.values()):
        return []
    return [
        Finding(
            "ELX007", spec.name, conn.name,
            "passive anti-token interface, but no block evaluates "
            "early: no anti-token can ever reach it",
        )
        for conn in spec.connections if conn.passive
    ]


# ----------------------------------------------------------------------
# Token availability (ELX008 / ELX009, on the dataflow engine)
# ----------------------------------------------------------------------
def token_availability(spec: SystemSpec) -> Dict[str, int]:
    """Token availability of every spec node: NEVER/SOMETIMES/ALWAYS.

    An ascending fixpoint (join: max) over :func:`spec_graph`.  A
    source emits ALWAYS when ``p_valid >= 1``, NEVER when ``<= 0``,
    SOMETIMES in between; a register adds SOMETIMES for its initial
    tokens and otherwise forwards its input; a channel carries its
    producer's value.  A lazy join takes the min of its arms, a
    variable-latency block caps at SOMETIMES, a k-of-n threshold join
    takes the k-th largest arm, and a mux join is ALWAYS only when the
    select and every data arm are, NEVER when the select -- or every
    data arm -- is.  All transfers are monotone on the 3-level chain,
    so the fixpoint is the least one and order-independent.
    """
    graph = spec_graph(spec)
    arms = spec_in_channels(spec)

    def arm_values(name: str, get) -> List[int]:
        vals = []
        for ch in arms.get(name, []):
            node = f"channel:{ch}" if ch is not None else None
            vals.append(get(node) if node in graph else NEVER)
        return vals

    def block_avail(name: str, get) -> int:
        b = spec.blocks[name]
        vals = arm_values(name, get)
        if not vals:
            return NEVER
        ee = b.ee
        if isinstance(ee, ThresholdEE):
            ranked = sorted(vals, reverse=True)
            out = ranked[ee.k - 1] if ee.k <= len(ranked) else NEVER
        elif isinstance(ee, MuxEE) and 0 <= ee.select < len(vals):
            sel = vals[ee.select]
            data = [v for i, v in enumerate(vals) if i != ee.select]
            if not data:
                out = sel
            elif sel == ALWAYS and min(data) == ALWAYS:
                out = ALWAYS
            elif sel == NEVER or max(data) == NEVER:
                out = NEVER
            else:
                out = SOMETIMES
        else:
            out = min(vals)  # lazy join / AndEE / single input
        if b.latency is not None:
            out = min(out, SOMETIMES)  # a VL unit answers, but not every cycle
        return out

    def transfer(node: str, get) -> int:
        kind, _, name = node.partition(":")
        if kind == "channel":
            deps = graph[node]
            return get(deps[0]) if deps else NEVER
        if kind == "source":
            p = spec.sources[name].p_valid
            return ALWAYS if p >= 1 else (NEVER if p <= 0 else SOMETIMES)
        if kind == "register":
            r = spec.registers[name]
            ins = [get(c) for c in graph[node]]
            seeded = SOMETIMES if r.initial_tokens > 0 else NEVER
            return max([seeded] + ins)
        if kind == "block":
            return block_avail(name, get)
        return NEVER  # sinks produce nothing

    result = fixpoint(graph, transfer, init=lambda n: NEVER, join=max)
    return result.values  # type: ignore[return-value]


def _avail_chain(
    graph: Dict[str, Tuple[str, ...]],
    avail: Dict[str, int],
    node: str,
    level: int,
) -> List[str]:
    """A witness chain justifying ``node``'s availability ``level``.

    Walks dependency edges backward, always into the sorted-first
    dependency at the same level (every transfer guarantees one exists:
    an ALWAYS block has an ALWAYS arm, a NEVER join a NEVER arm, ...),
    until it reaches a source or closes on itself.  Deterministic by
    construction.
    """
    chain = [node]
    seen = {node}
    cur = node
    while not cur.startswith("source:"):
        nxt = None
        for dep in graph.get(cur, ()):
            if dep not in seen and avail.get(dep, NEVER) == level:
                nxt = dep
                break
        if nxt is None:
            break  # a self-sustaining loop (or a register's own tokens)
        chain.append(nxt)
        seen.add(nxt)
        cur = nxt
    return chain


def _dead_ee_arms(spec: SystemSpec) -> List[Finding]:
    """ELX008: threshold-EE arms that never decide the guard."""
    thresholds = sorted(
        name for name, b in spec.blocks.items() if isinstance(b.ee, ThresholdEE)
    )
    if not thresholds:
        return []
    graph = spec_graph(spec)
    avail = token_availability(spec)
    arms = spec_in_channels(spec)
    findings = []
    for name in thresholds:
        b = spec.blocks[name]
        k = b.ee.k
        chans = arms.get(name, [])
        always = [
            i for i, ch in enumerate(chans)
            if ch is not None and avail.get(f"channel:{ch}", NEVER) == ALWAYS
        ]
        for i, ch in enumerate(chans):
            if ch is None:
                continue
            supporting = [j for j in always if j != i]
            if len(supporting) < k:
                continue
            findings.append(Finding(
                "ELX008", spec.name, f"{name}.in{i}",
                f"threshold {k}-of-{b.ee.arity} at early join {name!r} "
                f"is met every cycle by "
                f"{', '.join(f'in{j}' for j in supporting)} alone: "
                f"arm in{i} ({ch!r}) never decides the guard, so its "
                "G-gate and pending logic are statically irrelevant",
                witness={
                    "kind": "dead-ee-arm",
                    "block": name,
                    "arm": i,
                    "channel": ch,
                    "threshold": k,
                    "supporting_arms": [f"in{j}" for j in supporting],
                    "chains": [
                        _avail_chain(graph, avail, f"channel:{chans[j]}", ALWAYS)
                        for j in supporting
                    ],
                },
            ))
    return findings


def _starved_counterflow(spec: SystemSpec) -> List[Finding]:
    """ELX009: anti-tokens sent into a channel no token ever reaches."""
    early = sorted(name for name, b in spec.blocks.items() if b.is_early)
    if not early:
        return []
    graph = spec_graph(spec)
    avail = token_availability(spec)
    arms = spec_in_channels(spec)
    findings = []
    for name in early:
        b = spec.blocks[name]
        if avail.get(f"block:{name}", NEVER) == NEVER:
            continue  # the join never fires, so it emits no anti-tokens
        for i, ch in enumerate(arms.get(name, [])):
            if ch is None:
                continue
            if b.g_inputs is not None and not b.g_inputs[i]:
                continue  # no G gate: the arm never sees anti-tokens
            if avail.get(f"channel:{ch}", NEVER) != NEVER:
                continue
            findings.append(Finding(
                "ELX009", spec.name, f"{name}.in{i}",
                f"early join {name!r} can fire without arm in{i} and "
                f"emits anti-tokens into {ch!r}, but no token can ever "
                "arrive there: the anti-tokens never annihilate and "
                "accumulate forever",
                witness={
                    "kind": "starved-counterflow",
                    "block": name,
                    "arm": i,
                    "channel": ch,
                    "chain": _avail_chain(graph, avail, f"channel:{ch}", NEVER),
                },
            ))
    return findings


def replay_spec_witness(spec: SystemSpec, finding: Finding) -> bool:
    """Re-derive one availability finding's witness against the spec.

    Machine-checks the ELX008/ELX009 witness vocabulary: the arm and
    channel must match the spec's wiring, the claimed availability
    levels must re-derive from :func:`token_availability`, and every
    chain must walk real dependency edges at the claimed level.
    Returns False for a missing, foreign or inconsistent witness.
    """
    w = finding.witness
    if not w:
        return False
    kind = w.get("kind")
    if kind not in ("dead-ee-arm", "starved-counterflow"):
        return False
    block = spec.blocks.get(w.get("block"))
    if block is None:
        return False
    graph = spec_graph(spec)
    avail = token_availability(spec)
    chans = spec_in_channels(spec).get(block.name, [])
    arm = w.get("arm")
    if not isinstance(arm, int) or not 0 <= arm < len(chans):
        return False
    if chans[arm] != w.get("channel"):
        return False

    def chain_ok(chain: object, level: int) -> bool:
        if not isinstance(chain, list) or not chain:
            return False
        if any(avail.get(n, NEVER) != level for n in chain):
            return False
        return all(b in graph.get(a, ()) for a, b in zip(chain, chain[1:]))

    if kind == "dead-ee-arm":
        if not isinstance(block.ee, ThresholdEE) or w.get("threshold") != block.ee.k:
            return False
        supporting = w.get("supporting_arms")
        chains = w.get("chains")
        if not isinstance(supporting, list) or not isinstance(chains, list):
            return False
        if len(supporting) < block.ee.k or len(chains) != len(supporting):
            return False
        idxs = [int(s[2:]) for s in supporting]
        if arm in idxs or len(set(idxs)) != len(idxs):
            return False
        for j, chain in zip(idxs, chains):
            if not 0 <= j < len(chans) or chans[j] is None:
                return False
            node = f"channel:{chans[j]}"
            if not chain_ok(chain, ALWAYS) or chain[0] != node:
                return False
        return True
    # starved-counterflow
    if not block.is_early:
        return False
    if block.g_inputs is not None and not block.g_inputs[arm]:
        return False
    if avail.get(f"block:{block.name}", NEVER) == NEVER:
        return False
    if avail.get(f"channel:{chans[arm]}", NEVER) != NEVER:
        return False
    chain = w.get("chain")
    return chain_ok(chain, NEVER) and chain[0] == f"channel:{chans[arm]}"


def lint_spec(spec: SystemSpec) -> List[Finding]:
    """Run every spec-level rule.  Connectivity errors suppress the
    graph rules (a mis-wired graph produces nonsense cycles)."""
    findings = _spec_connectivity(spec)
    findings += _spec_shapes(spec)
    if not any(f.rule == "ELX001" for f in findings):
        findings += _spec_deadlocks(spec)
        findings += _spec_passive_use(spec)
        findings += _dead_ee_arms(spec)
        findings += _starved_counterflow(spec)
    return findings


# ----------------------------------------------------------------------
# Network-level rules
# ----------------------------------------------------------------------
def _network_polarity(net: ElasticNetwork) -> List[Finding]:
    """ELX002: one producer and one consumer per channel."""
    target = net.name
    producers: Dict[str, List[str]] = {name: [] for name in net.channels}
    consumers: Dict[str, List[str]] = {name: [] for name in net.channels}
    findings = []
    for ctrl in net.controllers:
        consumed, produced = controller_ports(ctrl)
        for ch in consumed:
            consumers.setdefault(ch.name, []).append(ctrl.name)
        for ch in produced:
            producers.setdefault(ch.name, []).append(ctrl.name)
    for name in sorted(net.channels):
        prods, cons = producers[name], consumers[name]
        if len(prods) == 1 and len(cons) == 1:
            continue
        if not prods and not cons:
            findings.append(Finding(
                "ELX002", target, name,
                "channel is registered but no controller drives it",
            ))
            continue
        if len(prods) != 1:
            what = "no controller" if not prods else ", ".join(sorted(prods))
            findings.append(Finding(
                "ELX002", target, name,
                f"needs exactly one {{V+, S-}} producer, has "
                f"{len(prods)} ({what})",
            ))
        if len(cons) != 1:
            what = "no controller" if not cons else ", ".join(sorted(cons))
            findings.append(Finding(
                "ELX002", target, name,
                f"needs exactly one {{S+, V-}} consumer, has "
                f"{len(cons)} ({what})",
            ))
    return findings


def _network_deadlocks(net: ElasticNetwork) -> List[Finding]:
    """ELX004 / ELX005 / ELX006 over the controller graph."""
    target = net.name
    findings = []
    producers: Dict[str, str] = {}
    consumers: Dict[str, str] = {}
    by_name: Dict[str, Controller] = {}
    for ctrl in net.controllers:
        by_name[ctrl.name] = ctrl
        consumed, produced = controller_ports(ctrl)
        for ch in consumed:
            consumers[ch.name] = ctrl.name
        for ch in produced:
            producers[ch.name] = ctrl.name
    arcs = [
        (producers[name], consumers[name])
        for name in sorted(net.channels)
        if name in producers and name in consumers
    ]

    def is_annihilator(name: str) -> bool:
        return isinstance(by_name[name], (ElasticBuffer, PassiveAntiToken))

    def tokens(name: str) -> int:
        ctrl = by_name[name]
        if isinstance(ctrl, ElasticBuffer):
            return max(ctrl.count, 0)
        return 0

    def spare(name: str) -> int:
        ctrl = by_name[name]
        if isinstance(ctrl, ElasticBuffer):
            return max(ctrl.capacity - max(ctrl.count, 0), 0)
        return 0

    zero_token = [a for a in arcs if tokens(a[0]) == 0]
    token_free: Set[Tuple[str, ...]] = set()
    for cycle in _find_cycles(zero_token):
        token_free.add(tuple(cycle))
        ee = sorted(
            n for n in cycle if isinstance(by_name[n], EarlyJoin)
        )
        if ee and not any(is_annihilator(n) for n in cycle):
            findings.append(Finding(
                "ELX006", target, cycle[0],
                f"anti-tokens from early join {ee[0]!r} circulate the "
                f"cycle {_loop_text(cycle)} with no annihilating buffer "
                "or passive interface to die in",
                path=tuple(cycle),
            ))
        else:
            findings.append(Finding(
                "ELX004", target, cycle[0],
                f"controller cycle {_loop_text(cycle)} holds no token: "
                "no transfer can ever fire on it",
                path=tuple(cycle),
            ))

    zero_spare = [a for a in arcs if spare(a[0]) == 0]
    for cycle in _find_cycles(zero_spare):
        if tuple(cycle) in token_free:
            continue
        if not any(tokens(n) > 0 for n in cycle):
            continue  # token-free variants belong to ELX004
        findings.append(Finding(
            "ELX005", target, cycle[0],
            f"cycle {_loop_text(cycle)} has no spare EB capacity: every "
            "buffer on it is full, so no token can advance",
            path=tuple(cycle),
        ))
    return findings


def lint_network(net: ElasticNetwork) -> List[Finding]:
    """Run every network-level rule.  Polarity errors suppress the
    cycle rules (the controller graph is not well defined then)."""
    findings = _network_polarity(net)
    if not any(f.rule == "ELX002" for f in findings):
        findings += _network_deadlocks(net)
    return findings


# ----------------------------------------------------------------------
# DMG-level rule
# ----------------------------------------------------------------------
def lint_dmg(graph, target: str = "dmg") -> List[Finding]:
    """ELX004 over a (dual) marked graph: non-positive cycle sums.

    Accepts any :class:`~repro.core.mg.MarkedGraph`; by token
    preservation the verdict holds for every reachable marking.
    """
    findings = []
    m0 = graph.initial_marking
    for cycle in graph.simple_cycles():
        total = graph.marking_of(m0, cycle)
        if total <= 0:
            names = tuple(cycle)
            findings.append(Finding(
                "ELX004", target, names[0],
                f"cycle [{', '.join(names)}] sums to {total} tokens: "
                "a non-positive cycle can never fire around",
                path=names,
            ))
    return findings
