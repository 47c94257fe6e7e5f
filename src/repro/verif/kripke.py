"""Explicit-state Kripke structures from gate netlists.

A netlist with ``k`` primary inputs and sequential state ``s`` defines a
transition system: given (s, i) one clock cycle computes the observable
signal values and the successor state s'.  Signal values depend on the
*input* as well as the state, so Kripke states are (state, input)
pairs: every (s', i') with arbitrary i' is a successor of (s, i).
Atomic propositions are then simple signal-value lookups.

The builder steps on the compiled lane-parallel simulator
(:class:`~repro.codegen.sim.CompiledSimulator`) with lanes as the
enumeration axis: a popped sequential state is loaded into all ``2^k``
lanes, each lane gets one input combination, and one cycle yields every
successor and label of that state.  Lanes are read in input order, so
state numbering equals a one-pair-at-a-time exploration.  A netlist
with a combinational cycle cannot compile, and the builder raises
:class:`~repro.rtl.toposort.CombinationalCycleError` naming the cycle.

State spaces of elastic controllers are small (the paper: "the size of
the controllers is small, state-of-the-art model checking techniques
readily apply"); explicit enumeration with a few thousand states checks
the same CTL properties NuSMV did.  For designs that are *not* small
the builder is bounded -- :class:`StateSpaceLimitError` names the last
controller state under expansion instead of exhausting memory -- and
resumable: a ``checkpoint`` directory receives periodic atomic
snapshots of the frontier, and a rerun pointed at the same directory
continues the exploration and produces the identical structure.

Completed explorations are additionally cacheable: pass a
:class:`~repro.codegen.cache.BuildCache` and the (sequential-state,
transition) tables are stored as a content-addressed JSON artifact
keyed on the netlist fingerprint and the observed signals -- the same
mechanism that already caches compiled simulator modules and lint
findings.  A cache hit skips the exploration entirely and folds the
stored tables into the identical :class:`KripkeStructure`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.codegen.cache import BuildCache
from repro.codegen.fingerprint import netlist_fingerprint
from repro.codegen.sim import CompiledSimulator
from repro.resilience.checkpoint import CheckpointStore
from repro.rtl.batchsim import broadcast, truth_table_columns
from repro.rtl.logic import X, is_known
from repro.rtl.netlist import Netlist

StateKey = Tuple[int, ...]

#: Bump when the exploration semantics or the cached-table encoding
#: changes; every cached Kripke artifact is invalidated (key change).
KRIPKE_VERSION = 1


def _kripke_key(netlist: Netlist, observed: Sequence[str]) -> str:
    """The state-space cache key of one netlist + observation set."""
    blob = json.dumps({
        "kind": "kripke-structure",
        "version": KRIPKE_VERSION,
        "netlist": netlist_fingerprint(netlist),
        "observe": list(observed),
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _pack_label(label: Tuple[int, ...]) -> int:
    packed = 0
    for j, bit in enumerate(label):
        if bit:
            packed |= 1 << j
    return packed


def _unpack_label(packed: int, width: int) -> Tuple[int, ...]:
    return tuple((packed >> j) & 1 for j in range(width))


class StateSpaceLimitError(RuntimeError):
    """The exploration hit ``max_states`` before the frontier drained.

    ``last_state`` is the sequential state whose expansion discovered
    one state too many -- the natural place to start understanding why
    the space blew up.
    """

    def __init__(self, max_states: int, last_state: Mapping[str, object]) -> None:
        bits = ", ".join(
            f"{name}={_encode_value(value)}"
            for name, value in sorted(last_state.items())
        )
        super().__init__(
            f"state bound {max_states} exceeded while expanding controller "
            f"state {{{bits}}}; raise max_states, or pass a checkpoint "
            "directory to keep the partial exploration"
        )
        self.max_states = max_states
        self.last_state = dict(last_state)


def _encode_value(value: object) -> object:
    """A latch/flop value as JSON: 0, 1 or the string ``"x"``."""
    return "x" if not is_known(value) else int(value)  # type: ignore[arg-type]


def _decode_value(value: object) -> object:
    return X if value == "x" else value


@dataclass
class KripkeStructure:
    """An explicit Kripke structure over (state, input) pairs."""

    #: names of the labelled signals, in label-vector order
    signals: List[str]
    #: per Kripke-state signal values (0/1), aligned with ``signals``
    labels: List[Tuple[int, ...]]
    #: successor indices per state
    successors: List[List[int]]
    #: initial state indices
    initial: List[int]
    #: primary-input names, aligned with the input part of each state
    input_names: List[str] = field(default_factory=list)
    #: the raw (sequential-state, input) pair per Kripke state
    raw_states: List[Tuple[StateKey, Tuple[int, ...]]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.labels)

    _index: Optional[Dict[str, int]] = None

    def signal_index(self, name: str) -> int:
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.signals)}
        return self._index[name]

    def value(self, state: int, signal: str) -> int:
        """Value of ``signal`` in Kripke state ``state``."""
        return self.labels[state][self.signal_index(signal)]

    def states_where(self, predicate: Callable[[Mapping[str, int]], bool]) -> FrozenSet[int]:
        """All states whose label valuation satisfies ``predicate``."""
        result = set()
        for idx, label in enumerate(self.labels):
            valuation = dict(zip(self.signals, label))
            if predicate(valuation):
                result.add(idx)
        return frozenset(result)

    def predecessors(self) -> List[List[int]]:
        """Reverse transition relation (computed on demand)."""
        preds: List[List[int]] = [[] for _ in self.labels]
        for src, succs in enumerate(self.successors):
            for dst in succs:
                preds[dst].append(src)
        return preds


def build_kripke(
    netlist: Netlist,
    observe: Optional[Sequence[str]] = None,
    max_states: int = 500_000,
    progress: Optional[Callable[[int, int], None]] = None,
    progress_every: int = 1024,
    checkpoint: Optional[str] = None,
    checkpoint_every: int = 2048,
    cache=None,
) -> KripkeStructure:
    """Enumerate the reachable Kripke structure of ``netlist``.

    Args:
        netlist: the controller netlist; its primary inputs are treated
            as fully non-deterministic (all 2^k combinations each
            cycle).
        observe: signal names to expose as atomic propositions
            (defaults to the netlist's declared outputs plus inputs).
        max_states: safety bound on the exploration; exceeding it
            raises :class:`StateSpaceLimitError` (after snapshotting,
            when a checkpoint directory is set, so the partial
            exploration survives).
        progress: optional ``fn(explored_states, frontier_size)`` hook
            (e.g. a :class:`~repro.obs.profile.ProgressReporter`),
            called every ``progress_every`` newly discovered sequential
            states and once more when the frontier drains.
        progress_every: how many new states between progress calls.
        checkpoint: optional directory for periodic atomic snapshots of
            the exploration (frontier + discovered states +
            transitions).  A rerun with the same directory validates
            the workload fingerprint, restores the snapshot and builds
            the identical structure an uninterrupted run would.  The
            bound is *not* part of the fingerprint, so a resume may
            raise (or lift) ``max_states``.
        checkpoint_every: snapshot cadence in newly discovered states.
        cache: optional :class:`~repro.codegen.cache.BuildCache`.  A
            completed exploration of the same netlist fingerprint and
            observation set is loaded instead of re-explored (provided
            it fits ``max_states``); fresh explorations are stored on
            completion, and load the simulator module through it.
            Without one, the module is built in memory and nothing
            touches the disk.

    Returns:
        The reachable :class:`KripkeStructure`.

    Raises:
        CombinationalCycleError: the netlist has a combinational cycle,
            which the compiled simulator refuses.
    """
    netlist.validate()
    inputs = list(netlist.inputs)
    observed = list(observe) if observe is not None else (
        list(netlist.outputs) + inputs
    )
    state_names = sorted([*netlist.latches, *netlist.flops])
    input_combos = [
        dict(zip(inputs, combo))
        for combo in itertools.product((0, 1), repeat=len(inputs))
    ]

    cache_key = _kripke_key(netlist, observed) if cache is not None else None
    if cache is not None:
        payload = cache.load_json(cache_key)
        if (isinstance(payload, dict)
                and len(payload.get("seq_states", ())) <= max_states):
            seq_states = [
                {n: _decode_value(v) for n, v in zip(state_names, values)}
                for values in payload["seq_states"]
            ]
            transition = {
                (int(si), int(ii)): (
                    int(next_si), _unpack_label(int(packed), len(observed))
                )
                for si, ii, next_si, packed in payload["transition"]
            }
            return _fold_structure(
                seq_states, transition, observed, inputs, input_combos,
                state_names,
            )

    sim = CompiledSimulator(
        netlist, 1 << len(inputs), hooks=frozenset(),
        observe=frozenset(observed),
        cache=cache if cache is not None else BuildCache.in_memory(),
    )
    lanes, mask = sim.lanes, sim.mask
    # Lane ii steps input_combos[ii]: in itertools.product order the
    # first input is the most significant bit of ii.
    columns = reversed(truth_table_columns(len(inputs)))
    stimulus = {name: (col, mask) for name, col in zip(inputs, columns)}
    label_slots = [sim.slot(s) for s in observed]
    state_slots = [sim.slot(n) for n in state_names]

    def state_key(state: Mapping[str, int]) -> StateKey:
        return tuple(state[n] for n in state_names)

    # First pass: explore reachable sequential states and memoise the
    # transition/observation of every (state, input) pair.
    seq_index: Dict[StateKey, int] = {}
    seq_states: List[Dict[str, int]] = []
    transition: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]] = {}
    frontier: List[int] = []

    store: Optional[CheckpointStore] = None
    if checkpoint is not None:
        store = CheckpointStore(checkpoint)
        store.ensure_manifest({
            "kind": "kripke",
            "netlist": netlist_fingerprint(netlist),
            "inputs": inputs,
            "state_names": state_names,
            "observe": observed,
        })

    def encode_tables() -> Dict[str, object]:
        return {
            "seq_states": [
                [_encode_value(state[n]) for n in state_names]
                for state in seq_states
            ],
            "transition": sorted(
                [si, ii, next_si, _pack_label(label)]
                for (si, ii), (next_si, label) in transition.items()
            ),
        }

    def save_snapshot() -> None:
        if store is None:
            return
        store.save_snapshot({"frontier": list(frontier), **encode_tables()})

    snapshot = store.load_snapshot() if store is not None else None
    if isinstance(snapshot, dict):
        for values in snapshot["seq_states"]:
            state = {
                n: _decode_value(v) for n, v in zip(state_names, values)
            }
            seq_index[state_key(state)] = len(seq_states)
            seq_states.append(state)
        frontier = [int(si) for si in snapshot["frontier"]]
        for si, ii, next_si, packed in snapshot["transition"]:
            transition[(int(si), int(ii))] = (
                int(next_si), _unpack_label(int(packed), len(observed))
            )
    else:
        initial_state = sim.lane_state(0)
        seq_index[state_key(initial_state)] = 0
        seq_states.append(initial_state)
        frontier = [0]

    unsaved = 0
    while frontier:
        si = frontier.pop()
        state = seq_states[si]
        sim.load_state({n: broadcast(state[n], lanes) for n in state_names})
        sim.cycle(stimulus)
        label_words = [sim.value_planes[slot] for slot in label_slots]
        next_planes = [sim.state[slot] for slot in state_slots]
        for ii in range(lanes):
            label = tuple((v >> ii) & 1 for v in label_words)
            nk = tuple(
                (v >> ii) & 1 if (k >> ii) & 1 else X for v, k in next_planes
            )
            if nk not in seq_index:
                if len(seq_index) >= max_states:
                    # Re-queue the half-expanded state: its transition
                    # entries are recomputed (identically) on resume.
                    frontier.append(si)
                    save_snapshot()
                    raise StateSpaceLimitError(max_states, state)
                seq_index[nk] = len(seq_states)
                seq_states.append(dict(zip(state_names, nk)))
                frontier.append(seq_index[nk])
                unsaved += 1
                if progress is not None and len(seq_states) % progress_every == 0:
                    progress(len(seq_states), len(frontier))
            transition[(si, ii)] = (seq_index[nk], label)
        if unsaved >= checkpoint_every:
            save_snapshot()
            unsaved = 0
    save_snapshot()
    if progress is not None:
        progress(len(seq_states), 0)
    if cache is not None:
        cache.store_json(cache_key, encode_tables(), meta={
            "kind": "kripke-structure",
            "version": KRIPKE_VERSION,
            "netlist": netlist.name,
            "states": len(seq_states),
        })

    return _fold_structure(
        seq_states, transition, observed, inputs, input_combos, state_names
    )


def _fold_structure(
    seq_states: List[Dict[str, object]],
    transition: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]],
    observed: List[str],
    inputs: List[str],
    input_combos: List[Dict[str, int]],
    state_names: List[str],
) -> KripkeStructure:
    """Second pass: fold inputs into Kripke (state, input) pairs."""
    n_inputs = len(input_combos)
    n_kripke = len(seq_states) * n_inputs

    def k_index(si: int, ii: int) -> int:
        return si * n_inputs + ii

    labels: List[Tuple[int, ...]] = [()] * n_kripke
    successors: List[List[int]] = [[] for _ in range(n_kripke)]
    raw: List[Tuple[StateKey, Tuple[int, ...]]] = [((), ())] * n_kripke
    for (si, ii), (next_si, label) in transition.items():
        idx = k_index(si, ii)
        labels[idx] = label
        successors[idx] = [k_index(next_si, jj) for jj in range(n_inputs)]
        raw[idx] = (
            tuple(seq_states[si][n] for n in state_names),
            tuple(input_combos[ii][name] for name in inputs),
        )
    initial = [k_index(0, ii) for ii in range(n_inputs)]
    return KripkeStructure(
        signals=observed,
        labels=labels,
        successors=successors,
        initial=initial,
        input_names=inputs,
        raw_states=raw,
    )
