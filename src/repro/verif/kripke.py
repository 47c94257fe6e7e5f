"""Kripke structures from gate netlists, one row per sequential state.

A netlist with ``k`` primary inputs and sequential state ``s`` defines a
transition system: given (s, i) one clock cycle computes the observable
signal values and the successor state s'.  Signal values depend on the
*input* as well as the state, so Kripke states are (state, input)
pairs, numbered ``s * 2^k + i``: every (s', i') with arbitrary i' is a
successor of (s, i).  Sequential state 0 is the reset state, so Kripke
states ``0 .. 2^k - 1`` are the initial ones.

The pairs are never listed.  :class:`KripkeStructure` keeps one row per
reachable sequential state: ``next_state[s][i]``, the successor under
input vector ``i``, and ``words[s][j]``, observed signal ``j`` as a
``2^k``-bit word whose bit ``i`` is its value under input vector ``i``.
Input vectors count in ``itertools.product`` order: the first input is
the most significant bit of ``i``.  :mod:`repro.verif.ctl` checks
formulas on these rows with one ``2^k``-bit mask per sequential state.

The builder steps on the compiled lane-parallel simulator
(:class:`~repro.codegen.sim.CompiledSimulator`) with lanes as the
enumeration axis: a popped sequential state is loaded into all ``2^k``
lanes, each lane gets one input vector, and one cycle yields the whole
row -- the observed value planes are the words.  Lanes are read in
input order, so state numbering equals a one-pair-at-a-time
exploration.  A netlist with a combinational cycle cannot compile, and
the builder raises :class:`~repro.rtl.toposort.CombinationalCycleError`
naming the cycle.

State spaces of elastic controllers are small (the paper: "the size of
the controllers is small, state-of-the-art model checking techniques
readily apply"); enumerating a few thousand sequential states checks
the same CTL properties NuSMV did.  For designs that are *not* small
the builder is bounded -- :class:`StateSpaceLimitError` names the last
controller state under expansion instead of exhausting memory -- and
resumable: a ``checkpoint`` directory receives periodic atomic
snapshots of the frontier and the rows, and a rerun pointed at the
same directory continues the exploration and produces the identical
structure.

Completed explorations are additionally cacheable: pass a
:class:`~repro.codegen.cache.BuildCache` and the sequential states and
their rows are stored as a content-addressed JSON artifact keyed on
the netlist fingerprint and the observed signals -- the same mechanism
that already caches compiled simulator modules and lint findings.  A
cache hit skips the exploration entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.codegen.cache import BuildCache
from repro.codegen.fingerprint import canonical_digest, netlist_fingerprint
from repro.codegen.sim import CompiledSimulator
from repro.resilience.checkpoint import CheckpointStore
from repro.rtl.batchsim import broadcast, truth_table_columns
from repro.rtl.logic import X, is_known
from repro.rtl.netlist import Netlist

#: Bump when the exploration semantics or the cached-table encoding
#: changes; every cached Kripke artifact is invalidated (key change).
KRIPKE_VERSION = 2


def _kripke_identity(
    netlist: Netlist, observed: Sequence[str]
) -> Dict[str, object]:
    """What one exploration depends on: the checkpoint manifest, and
    the document the cache key digests.  The netlist fingerprint fixes
    the input and state names; the version refuses a resume across a
    :data:`KRIPKE_VERSION` bump."""
    return {
        "kind": "kripke-structure",
        "version": KRIPKE_VERSION,
        "netlist": netlist_fingerprint(netlist),
        "observe": list(observed),
    }


def _kripke_key(netlist: Netlist, observed: Sequence[str]) -> str:
    """The state-space cache key of one netlist + observation set."""
    return canonical_digest(_kripke_identity(netlist, observed))


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


def _decode_tables(
    payload: Mapping[str, object], state_names: List[str]
) -> Tuple[List[Dict[str, object]], List[Optional[List[int]]],
           List[Optional[List[int]]]]:
    """The sequential states and their rows in a stored exploration (a
    cache artifact or a checkpoint snapshot); a state not yet expanded
    has ``None`` rows.  Words are stored as hex strings: CPython will
    not print an integer of more than 4,300 decimal digits."""
    seq_states = [
        {n: _decode_value(v) for n, v in zip(state_names, values)}
        for values in payload["seq_states"]
    ]
    words = [
        None if row is None else [int(w, 16) for w in row]
        for row in payload["words"]
    ]
    return seq_states, list(payload["next_state"]), words


@dataclass
class KripkeStructure:
    """A Kripke structure over (state, input) pairs, one row per
    sequential state (see the module docstring)."""

    #: names of the observed signals, in word order
    signals: List[str]
    #: primary-input names; the first is the most significant input bit
    input_names: List[str]
    #: per sequential state, the successor under each input vector
    next_state: List[List[int]]
    #: per sequential state, one ``2^k``-bit word per observed signal
    words: List[List[int]]

    @property
    def lanes(self) -> int:
        """``2^k``: the input vectors, and Kripke states per row."""
        return 1 << len(self.input_names)

    def __len__(self) -> int:
        return len(self.next_state) << len(self.input_names)


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
        max_states: safety bound on the sequential states explored;
            exceeding it raises :class:`StateSpaceLimitError` (after
            snapshotting, when a checkpoint directory is set, so the
            partial exploration survives).
        progress: optional ``fn(explored_states, frontier_size)`` hook
            (e.g. a :class:`~repro.obs.profile.ProgressReporter`),
            called every ``progress_every`` newly discovered sequential
            states and once more when the frontier drains.
        progress_every: how many new states between progress calls.
        checkpoint: optional directory for periodic atomic snapshots of
            the exploration (frontier, discovered states and their
            rows).  A rerun with the same directory validates the
            workload fingerprint, restores the snapshot and builds the
            identical structure an uninterrupted run would.  The bound
            is *not* part of the fingerprint, so a resume may raise (or
            lift) ``max_states``.
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

    cache_key = _kripke_key(netlist, observed) if cache is not None else None
    if cache is not None:
        payload = cache.load_json(cache_key)
        if (isinstance(payload, dict)
                and len(payload.get("seq_states", ())) <= max_states):
            _, next_state, words = _decode_tables(payload, state_names)
            return KripkeStructure(observed, inputs, next_state, words)

    sim = CompiledSimulator(
        netlist, 1 << len(inputs), hooks=frozenset(),
        observe=frozenset(observed),
        cache=cache if cache is not None else BuildCache.in_memory(),
    )
    lanes, mask = sim.lanes, sim.mask
    width = f"0{lanes}b"
    # Lane ii steps input vector ii: in itertools.product order the
    # first input is the most significant bit of ii.
    columns = reversed(truth_table_columns(len(inputs)))
    stimulus = {name: (col, mask) for name, col in zip(inputs, columns)}
    word_slots = [sim.slot(s) for s in observed]
    state_slots = [sim.slot(n) for n in state_names]

    def state_key(state: Mapping[str, object]) -> str:
        """Each state bit as two characters: its value, then whether
        it is known (X is ``"00"``)."""
        return "".join(("1" if state[n] == 1 else "0")
                       + ("1" if is_known(state[n]) else "0")
                       for n in state_names)

    def key_state(key: str) -> Dict[str, object]:
        return {n: int(key[2 * j]) if key[2 * j + 1] == "1" else X
                for j, n in enumerate(state_names)}

    # One row per discovered sequential state; None until expanded.
    seq_index: Dict[str, int] = {}
    seq_states: List[Dict[str, int]] = []
    next_state: List[Optional[List[int]]] = []
    words: List[Optional[List[int]]] = []
    frontier: List[int] = []

    store: Optional[CheckpointStore] = None
    if checkpoint is not None:
        store = CheckpointStore(checkpoint)
        store.ensure_manifest(_kripke_identity(netlist, observed))

    def encode_tables() -> Dict[str, object]:
        return {
            "seq_states": [
                [_encode_value(state[n]) for n in state_names]
                for state in seq_states
            ],
            "next_state": next_state,
            "words": [
                None if row is None else [format(w, "x") for w in row]
                for row in words
            ],
        }

    def save_snapshot() -> None:
        if store is None:
            return
        store.save_snapshot({"frontier": list(frontier), **encode_tables()})

    snapshot = store.load_snapshot() if store is not None else None
    if isinstance(snapshot, dict):
        seq_states, next_state, words = _decode_tables(snapshot, state_names)
        seq_index = {
            state_key(state): si for si, state in enumerate(seq_states)
        }
        frontier = [int(si) for si in snapshot["frontier"]]
    else:
        initial_state = sim.lane_state(0)
        seq_index[state_key(initial_state)] = 0
        seq_states.append(initial_state)
        next_state.append(None)
        words.append(None)
        frontier = [0]

    unsaved = 0
    while frontier:
        si = frontier.pop()
        state = seq_states[si]
        sim.load_state({n: broadcast(state[n], lanes) for n in state_names})
        sim.cycle(stimulus)
        # Every lane's successor key at once: character ii of a plane
        # printed in binary is lane lanes-1-ii.
        planes = [format(word, width) for slot in state_slots
                  for word in sim.state[slot]]
        keys = list(map("".join, zip(*planes))) or [""] * lanes
        keys.reverse()
        row: List[int] = []
        for nk in keys:
            if nk not in seq_index:
                if len(seq_index) >= max_states:
                    # Re-queue the half-expanded state: its row is
                    # recomputed (identically) on resume.
                    frontier.append(si)
                    save_snapshot()
                    raise StateSpaceLimitError(max_states, state)
                seq_index[nk] = len(seq_states)
                seq_states.append(key_state(nk))
                next_state.append(None)
                words.append(None)
                frontier.append(seq_index[nk])
                unsaved += 1
                if progress is not None and len(seq_states) % progress_every == 0:
                    progress(len(seq_states), len(frontier))
            row.append(seq_index[nk])
        values = sim.value_planes
        next_state[si] = row
        words[si] = [values[slot] for slot in word_slots]
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
    return KripkeStructure(observed, inputs, next_state, words)
