"""Netlist front-end of the static analyzer (the ``LNT0xx`` rules).

Checks a :class:`~repro.rtl.netlist.Netlist` *before* any simulator is
built:

========  ==========================================================
LNT001    multiply-driven signal (a name owned by two cell tables)
LNT002    floating signal (referenced as fan-in, never driven)
LNT003    dead cell (outside the declared output cone)
LNT004    two-phase discipline: a transparent latch fed combinationally
          by a latch of the *same* phase races through both in one
          phase (H must feed L and vice versa, Fig. 3)
LNT005    combinational cycle, with the full canonical path -- the
          single producer of the cycle diagnostic shared with both
          simulators via ``CombinationalCycleError.from_finding``
LNT006    constant net, by a ternary constant-propagation fixpoint
          over the sequential abstraction (INFO: elaborated control
          layers intentionally contain constants that synthesis sweeps)
LNT007    state element initialised to X (a structural X source)
LNT008    state bit that can never leave X after reset (value-set
          fixpoint; witness: a shortest X-propagation path)
LNT009    X-initialised register observable at a primary output before
          its first load (backward observability fixpoint; witness:
          the combinational observation path)
========  ==========================================================

LNT006/LNT008/LNT009 run on the generic worklist engine of
:mod:`repro.lint.dataflow` and attach machine-checkable witnesses;
:func:`replay_witness` re-derives each witness against the netlist (the
test suite replays every one).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.lint.dataflow import fixpoint, netlist_graph
from repro.lint.findings import Finding
from repro.rtl.logic import Value, X, is_known, land, lnot, lor, lxor, lmux
from repro.rtl.netlist import Netlist, Phase
from repro.rtl.toposort import (
    canonical_cycle,
    canonical_nodes,
    order_or_cycle,
    phase_nodes,
)

__all__ = [
    "combinational_cycle_finding",
    "constant_values",
    "lint_netlist",
    "replay_witness",
    "value_sets",
]


def combinational_cycle_finding(
    cycle: Sequence[str], target: str = "", phase: Optional[Phase] = None
) -> Finding:
    """The one place the combinational-cycle diagnostic is produced.

    Both simulators raise their
    :class:`~repro.rtl.toposort.CombinationalCycleError` from this
    finding (via ``from_finding``), so the scalar and compiled engines can
    never drift apart on the message format.
    """
    loop = canonical_cycle(list(cycle))
    message = "combinational cycle: " + " -> ".join(loop + [loop[0]])
    if phase is not None:
        message += f" (phase {phase.value})"
    return Finding(
        rule="LNT005",
        target=target,
        subject=loop[0],
        message=message,
        path=tuple(loop),
    )


# ----------------------------------------------------------------------
# Structural rules
# ----------------------------------------------------------------------
def _drivers(nl: Netlist) -> List[Finding]:
    tables = (
        ("input", set(nl.inputs)),
        ("gate", set(nl.gates)),
        ("latch", set(nl.latches)),
        ("flop", set(nl.flops)),
    )
    findings = []
    every: Set[str] = set()
    for _, sigs in tables:
        every |= sigs
    for sig in sorted(every):
        owners = [kind for kind, sigs in tables if sig in sigs]
        if sig in nl.inputs and nl.inputs.count(sig) > 1:
            owners.append("input")
        if len(owners) > 1:
            findings.append(Finding(
                "LNT001", nl.name, sig,
                f"driven {len(owners)} times (as {', '.join(owners)})",
            ))
    return findings


def _floating(nl: Netlist) -> List[Finding]:
    driven = nl.signals()
    findings = [
        Finding("LNT002", nl.name, sig, "referenced as fan-in but never driven")
        for sig in sorted(nl.undriven())
    ]
    findings.extend(
        Finding("LNT002", nl.name, sig, "declared as output but never driven")
        for sig in sorted(set(nl.outputs) - driven)
    )
    return findings


def _dead_cells(nl: Netlist) -> List[Finding]:
    """Cells outside the output cone.  Skipped entirely when the
    netlist declares no outputs (nothing is observable by definition)."""
    if not nl.outputs:
        return []
    live: Set[str] = set()
    stack = [o for o in nl.outputs]
    while stack:
        sig = stack.pop()
        if sig in live:
            continue
        live.add(sig)
        stack.extend(nl.fanin(sig))
    findings = []
    for kind, table in (("gate", nl.gates), ("latch", nl.latches),
                        ("flop", nl.flops)):
        for sig in sorted(set(table) - live):
            findings.append(Finding(
                "LNT003", nl.name, sig,
                f"{kind} is outside the cone of every declared output",
            ))
    return findings


def _same_phase_paths(nl: Netlist) -> List[Finding]:
    """LNT004: latch fed by a same-phase latch through gates only."""
    findings = []
    for q in sorted(nl.latches):
        latch = nl.latches[q]
        # DFS backward from the latch data pin through combinational
        # gates; the first storage element on each path is the driver
        # whose phase must differ.
        stack: List[Tuple[str, Tuple[str, ...]]] = [(latch.d, ())]
        visited: Set[str] = set()
        while stack:
            sig, rev_path = stack.pop()
            if sig in visited:
                continue
            visited.add(sig)
            if sig in nl.latches:
                src = nl.latches[sig]
                if src.phase == latch.phase:
                    path = (sig, *reversed(rev_path), q)
                    findings.append(Finding(
                        "LNT004", nl.name, q,
                        f"transparent in phase {latch.phase.value} but fed "
                        f"by same-phase latch {sig!r} "
                        f"({' -> '.join(path)}): data races through both "
                        "latches in one phase",
                        path=path,
                    ))
                continue  # any latch ends the combinational path
            if sig in nl.gates:
                for i in nl.gates[sig].ins:
                    stack.append((i, rev_path + (sig,)))
            # inputs / flops / undriven end the path
    return findings


def _cycles(nl: Netlist) -> List[Finding]:
    """LNT005: one finding per distinct combinational cycle, both phases.

    The hunt runs over the *canonical* graph (sorted keys, sorted
    fan-in), so which cycles are found -- and in which order -- is a
    function of the netlist's structure, not of its construction order.
    """
    findings = []
    seen: Set[Tuple[str, ...]] = set()
    for phase in (Phase.HIGH, Phase.LOW):
        nodes = canonical_nodes(phase_nodes(nl, phase))
        for _ in range(8):  # cap the per-phase cycle hunt
            _, cycle = order_or_cycle(nodes)
            if cycle is None:
                break
            key = tuple(canonical_cycle(list(cycle)))
            if key not in seen:
                seen.add(key)
                findings.append(combinational_cycle_finding(cycle, nl.name, phase))
            # break the cycle (drop the closing dependency) and rescan
            first, last = key[0], key[-1]
            nodes[first] = tuple(i for i in nodes[first] if i != last)
    return findings


# ----------------------------------------------------------------------
# Ternary constant propagation (LNT006, on the dataflow engine)
# ----------------------------------------------------------------------
def _join(a: Value, b: Value) -> Value:
    if is_known(a) and is_known(b) and a == b:
        return a
    return X


def _eval_op(op: str, ins: Sequence[Value]) -> Value:
    """Ternary evaluation of one gate op over resolved input values.

    Mirrors the scalar simulator's ``_eval_gate`` dispatch exactly (one
    semantics, two drivers); the witness replay below re-runs findings
    through this same table.
    """
    if op == "AND":
        return land(*ins)
    if op == "OR":
        return lor(*ins)
    if op == "NOT":
        return lnot(ins[0])
    if op == "NAND":
        return lnot(land(*ins))
    if op == "NOR":
        return lnot(lor(*ins))
    if op == "XOR":
        return lxor(ins[0], ins[1])
    if op == "MUX":
        return lmux(ins[0], ins[1], ins[2])
    if op == "BUF":
        return ins[0]
    if op == "CONST0":
        return 0
    if op == "CONST1":
        return 1
    raise ValueError(f"unknown gate op {op!r}")


def _state_table(nl: Netlist) -> Dict[str, Value]:
    state: Dict[str, Value] = {q: latch.init for q, latch in nl.latches.items()}
    state.update((q, flop.init) for q, flop in nl.flops.items())
    return state


def _state_d(nl: Netlist, q: str) -> str:
    return nl.latches[q].d if q in nl.latches else nl.flops[q].d


def constant_values(nl: Netlist) -> Dict[str, Value]:
    """Abstract values holding in *every* reachable cycle.

    The engine-based LNT006 analysis: primary inputs are unconstrained
    (X), latches and flops start at their declared init value, and each
    outer round widens the state by joining it with the value its data
    pin can take.  The combinational surface of each round is a Kleene
    descent from top (X) run by :func:`repro.lint.dataflow.fixpoint` --
    the ternary operators are monotone, so the descent reaches the
    greatest fixpoint regardless of evaluation order and the result
    matches the legacy sweep (:func:`_constant_fixpoint`) exactly.
    Latch transparency is abstracted away (the stored value stands in
    for the output in both phases), which only loses precision, never
    soundness.
    """
    graph = netlist_graph(nl, state_edges=False)
    gates = nl.gates
    state = _state_table(nl)
    pinned: Dict[str, Value] = {}

    def transfer(node: str, get) -> Value:
        gate = gates.get(node)
        if gate is None:
            return pinned[node]
        return _eval_op(gate.op, [get(i) if i in graph else X for i in gate.ins])

    vals: Dict[str, Value] = dict(state)
    for _ in range(len(state) + 2):  # state only widens; bounded
        pinned = {s: X for s in nl.inputs}
        pinned.update(state)
        vals = fixpoint(graph, transfer, init=lambda n: pinned.get(n, X)).values
        widened = False
        for q in state:
            new = _join(state[q], vals.get(_state_d(nl, q), X))
            if new is not state[q] and new != state[q]:
                state[q] = new
                widened = True
        if not widened:
            break
    vals.update(state)
    return vals


def _constant_fixpoint(nl: Netlist) -> Dict[str, Value]:
    """Legacy reference implementation of :func:`constant_values`.

    Kept verbatim as the baseline the benchmark suite compares the
    engine-based re-implementation against (and the tests assert both
    agree on every design).
    """
    from repro.rtl.simulator import _eval_gate

    state: Dict[str, Value] = {}
    for q, latch in nl.latches.items():
        state[q] = latch.init
    for q, flop in nl.flops.items():
        state[q] = flop.init

    vals: Dict[str, Value] = {}
    for _ in range(len(state) + 2):  # state only widens; bounded
        vals = {s: X for s in nl.inputs}
        vals.update(state)
        for _ in range(len(nl.gates) + 2):  # combinational fixpoint
            changed = False
            for out, gate in nl.gates.items():
                new = _eval_gate(gate, vals)
                old = vals.get(out, X)
                if new is not old and new != old:
                    vals[out] = new
                    changed = True
            if not changed:
                break
        widened = False
        for q in state:
            d = nl.latches[q].d if q in nl.latches else nl.flops[q].d
            new = _join(state[q], vals.get(d, X))
            if new is not state[q] and new != state[q]:
                state[q] = new
                widened = True
        if not widened:
            break
    vals.update(state)
    return vals


def _wvalue(v: Value) -> object:
    """A ternary value as its JSON-native witness spelling (0, 1, "X")."""
    return int(v) if is_known(v) else "X"


def _rvalue(v: object) -> Value:
    """Inverse of :func:`_wvalue` for witness replay."""
    return X if v == "X" else int(v)  # type: ignore[arg-type]


def _constants(nl: Netlist) -> List[Finding]:
    vals = constant_values(nl)
    findings = []
    for out in sorted(nl.gates):
        gate = nl.gates[out]
        if gate.op in ("CONST0", "CONST1"):
            continue  # constant by declaration, not a finding
        v = vals.get(out, X)
        if is_known(v):
            findings.append(Finding(
                "LNT006", nl.name, out,
                f"{gate.op} gate is constant {v} in every reachable cycle",
                witness={
                    "kind": "constant-cone",
                    "value": int(v),
                    "inputs": {i: _wvalue(vals.get(i, X)) for i in gate.ins},
                },
            ))
    return findings


def _x_state(nl: Netlist) -> List[Finding]:
    findings = []
    for kind, table in (("latch", nl.latches), ("flop", nl.flops)):
        for q in sorted(table):
            if not is_known(table[q].init):
                findings.append(Finding(
                    "LNT007", nl.name, q,
                    f"{kind} initialised to X: a structural X source "
                    "poisoning every cone it feeds",
                ))
    return findings


# ----------------------------------------------------------------------
# Value-set reachability (LNT008) and reset observability (LNT009)
# ----------------------------------------------------------------------
_BOTTOM: FrozenSet[Value] = frozenset()
_ONLY_X: FrozenSet[Value] = frozenset((X,))
_BOTH: FrozenSet[Value] = frozenset((0, 1))


def _set_not(s: FrozenSet[Value]) -> FrozenSet[Value]:
    return frozenset(lnot(v) for v in s)


def _set_op(op: str, ins: Sequence[FrozenSet[Value]]) -> FrozenSet[Value]:
    """Exact value-set transfer of one gate op.

    Equivalent to evaluating :func:`_eval_op` over the full input
    product, but the variadic ops are computed set-wise so wide gates
    stay linear.  Empty (bottom) input sets propagate: a gate fed by an
    unreached signal is itself unreached.
    """
    if op == "CONST0":
        return frozenset((0,))
    if op == "CONST1":
        return frozenset((1,))
    if any(not s for s in ins):
        return _BOTTOM
    if op in ("AND", "NAND"):
        out = set()
        if any(0 in s for s in ins):
            out.add(0)
        if all(1 in s for s in ins):
            out.add(1)
        if any(X in s for s in ins) and all(s & {1, X} for s in ins):
            out.add(X)
        result = frozenset(out)
        return _set_not(result) if op == "NAND" else result
    if op in ("OR", "NOR"):
        out = set()
        if any(1 in s for s in ins):
            out.add(1)
        if all(0 in s for s in ins):
            out.add(0)
        if any(X in s for s in ins) and all(s & {0, X} for s in ins):
            out.add(X)
        result = frozenset(out)
        return _set_not(result) if op == "NOR" else result
    if op == "NOT":
        return _set_not(ins[0])
    if op == "BUF":
        return ins[0]
    if op == "XOR":
        return frozenset(lxor(a, b) for a in ins[0] for b in ins[1])
    if op == "MUX":
        return frozenset(
            lmux(s, a, b) for s in ins[0] for a in ins[1] for b in ins[2]
        )
    raise ValueError(f"unknown gate op {op!r}")


def value_sets(nl: Netlist) -> Dict[str, FrozenSet[Value]]:
    """Every value each signal can take in *some* reachable cycle.

    An ascending fixpoint over the powerset of {0, 1, X} (join: union)
    on the sequential closure of the signal graph: inputs contribute
    {0, 1}, a state bit accumulates its init value plus everything its
    data pin can carry, gates apply the exact set transfer.  A state
    bit whose set stays ``{X}`` can never leave X -- LNT008's predicate.
    """
    graph = netlist_graph(nl)
    gates = nl.gates
    seeds: Dict[str, FrozenSet[Value]] = {s: _BOTH for s in nl.inputs}
    for q, init in _state_table(nl).items():
        seeds[q] = frozenset((init if is_known(init) else X,))

    def transfer(node: str, get) -> FrozenSet[Value]:
        gate = gates.get(node)
        if gate is not None:
            return _set_op(
                gate.op,
                [get(i) if i in graph else _ONLY_X for i in gate.ins],
            )
        seed = seeds[node]
        if node not in nl.latches and node not in nl.flops:
            return seed  # primary input
        d = _state_d(nl, node)
        return seed | (get(d) if d in graph else _ONLY_X)

    result = fixpoint(
        graph, transfer,
        init=lambda n: seeds.get(n, _BOTTOM),
        join=lambda old, new: old | new,  # type: ignore[operator]
    )
    return result.values  # type: ignore[return-value]


def _x_init_state(nl: Netlist) -> List[str]:
    return sorted(q for q, init in _state_table(nl).items() if not is_known(init))


def _x_path_witness(
    nl: Netlist, stuck: Set[str], q: str
) -> Dict[str, object]:
    """A shortest X-propagation chain ending at ``q``'s data pin.

    BFS over the stuck-at-{X} region from the X-initialised sources to
    the data pin, in sorted neighbour order (deterministic), then close
    the chain with ``q`` itself.  Every stuck gate has at least one
    stuck fan-in (the set transfer only emits a pure-X output when some
    input is pure X), so the walk always reaches a source.
    """
    from collections import deque

    d = _state_d(nl, q)
    sources = set(_x_init_state(nl)) & stuck
    if d in sources:
        path = [d]
    else:
        graph = netlist_graph(nl)
        succs: Dict[str, List[str]] = {}
        for node, ins in graph.items():
            if node not in stuck:
                continue
            for i in ins:
                if i in stuck:
                    succs.setdefault(i, []).append(node)
        parent: Dict[str, Optional[str]] = {s: None for s in sorted(sources)}
        queue = deque(sorted(sources))
        path = []
        while queue:
            u = queue.popleft()
            if u == d:
                node: Optional[str] = u
                while node is not None:
                    path.append(node)
                    node = parent[node]
                path.reverse()
                break
            for v in sorted(succs.get(u, ())):
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        if not path:
            path = [d] if d in stuck else []
    path = path + [q]
    return {"kind": "x-propagation", "source": path[0], "path": path}


def _x_stuck(nl: Netlist) -> List[Finding]:
    """LNT008: X-initialised state whose reachable-value set is {X}."""
    x_init = _x_init_state(nl)
    if not x_init:
        return []
    sets = value_sets(nl)
    stuck = {n for n, s in sets.items() if s == _ONLY_X}
    findings = []
    for q in x_init:
        if q in stuck:
            witness = _x_path_witness(nl, stuck, q)
            findings.append(Finding(
                "LNT008", nl.name, q,
                "can never leave X: its reachable-value set after reset "
                "is {X} under every input sequence",
                path=tuple(witness["path"]),
                witness=witness,
            ))
    return findings


def _gate_successors(nl: Netlist) -> Dict[str, List[str]]:
    """Sorted gate-output successors of every signal."""
    succs: Dict[str, List[str]] = {s: [] for s in nl.signals() | set(nl.undriven())}
    for out, gate in nl.gates.items():
        for i in set(gate.ins):
            succs.setdefault(i, []).append(out)
    for lst in succs.values():
        lst.sort()
    return succs


def _observable_path(
    succ_gates: Dict[str, List[str]], outputs: Set[str], q: str
) -> List[str]:
    """Shortest combinational path from ``q`` to a primary output."""
    from collections import deque

    if q in outputs:
        return [q]
    parent: Dict[str, Optional[str]] = {q: None}
    queue = deque([q])
    while queue:
        u = queue.popleft()
        for v in succ_gates.get(u, ()):
            if v in parent:
                continue
            parent[v] = u
            if v in outputs:
                chain: List[str] = []
                node: Optional[str] = v
                while node is not None:
                    chain.append(node)
                    node = parent[node]
                chain.reverse()
                return chain
            queue.append(v)
    return [q]  # unreachable when called on an observable bit; defensive


def _reset_observable(nl: Netlist) -> List[Finding]:
    """LNT009: X-initialised state observable before its first load.

    A backward observability fixpoint on the engine: a signal is
    observable when it is a primary output or feeds a gate whose output
    is observable.  State elements do *not* propagate observability
    backward (a value crossing a register is no longer the reset
    value), so an observable X-init bit reaches an output through
    combinational gates only -- the environment sees X in cycle 0.
    """
    x_init = _x_init_state(nl)
    if not x_init:
        return []
    outputs = set(nl.outputs)
    graph = netlist_graph(nl)
    succ_gates = _gate_successors(nl)

    def transfer(node: str, get) -> bool:
        if node in outputs:
            return True
        return any(get(s) for s in succ_gates.get(node, ()) if s in graph)

    observable = fixpoint(
        graph, transfer,
        init=lambda n: n in outputs,
        direction="backward",
        join=lambda a, b: a or b,
    )
    findings = []
    for q in x_init:
        if observable[q]:
            path = _observable_path(succ_gates, outputs, q)
            findings.append(Finding(
                "LNT009", nl.name, q,
                f"initialised to X and observable at output {path[-1]!r} "
                "through combinational logic: the environment sees X "
                "before the first load",
                path=tuple(path),
                witness={
                    "kind": "observable-before-load",
                    "path": path,
                    "output": path[-1],
                },
            ))
    return findings


# ----------------------------------------------------------------------
# Witness replay
# ----------------------------------------------------------------------
def replay_witness(nl: Netlist, finding: Finding) -> bool:
    """Re-derive one dataflow finding's witness against the netlist.

    Machine-checks the witness vocabulary of the LNT rules:

    * ``constant-cone`` -- re-evaluating the gate op over the recorded
      input values must reproduce the recorded constant;
    * ``x-propagation`` -- the path must start at an X-initialised
      state bit, follow fan-in edges, and end at the subject;
    * ``observable-before-load`` -- the path must start at the subject,
      step through gate outputs only, and end at a primary output.

    Returns False for a missing, foreign or inconsistent witness; the
    test suite replays every witness the rules emit.
    """
    w = finding.witness
    if not w:
        return False
    kind = w.get("kind")
    state = _state_table(nl)
    if kind == "constant-cone":
        gate = nl.gates.get(finding.subject)
        inputs = w.get("inputs")
        if gate is None or not isinstance(inputs, dict):
            return False
        if set(inputs) != set(gate.ins):
            return False
        got = _eval_op(gate.op, [_rvalue(inputs[i]) for i in gate.ins])
        return is_known(got) and got == w.get("value")
    if kind == "x-propagation":
        path = w.get("path")
        if not isinstance(path, list) or not path:
            return False
        if path[-1] != finding.subject or w.get("source") != path[0]:
            return False
        src = path[0]
        if src not in state or is_known(state[src]):
            return False
        return all(u in nl.fanin(v) for u, v in zip(path, path[1:]))
    if kind == "observable-before-load":
        path = w.get("path")
        if not isinstance(path, list) or not path:
            return False
        if path[0] != finding.subject or w.get("output") != path[-1]:
            return False
        if path[-1] not in nl.outputs:
            return False
        if any(v not in nl.gates for v in path[1:]):
            return False
        return all(u in nl.fanin(v) for u, v in zip(path, path[1:]))
    return False


def lint_netlist(nl: Netlist, constants: bool = True) -> List[Finding]:
    """Run every netlist rule; returns the findings unsorted.

    ``constants=False`` skips the LNT006 fixpoint (the only rule with
    super-linear cost) for latency-sensitive callers.  The LNT008/009
    X analyses short-circuit unless the netlist has X-initialised state,
    so they stay on in every mode.
    """
    findings = _drivers(nl)
    findings += _floating(nl)
    findings += _dead_cells(nl)
    findings += _same_phase_paths(nl)
    findings += _cycles(nl)
    if constants:
        findings += _constants(nl)
    findings += _x_state(nl)
    findings += _x_stuck(nl)
    findings += _reset_observable(nl)
    return findings
