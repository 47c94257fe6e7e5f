"""The lane-parallel simulator: cached generated modules, int planes.

:class:`CompiledSimulator` runs ``lanes`` independent copies of one
:class:`~repro.rtl.netlist.Netlist` at once, lane ``i`` of every signal
in bit ``i`` of a Python int pair (the two-plane encoding of
:mod:`repro.rtl.batchsim`).  The public cadence mirrors the scalar
:class:`~repro.rtl.simulator.TwoPhaseSimulator` -- ``reset()``, then
``cycle()`` once per clock with packed two-plane inputs -- and the
per-cycle work is one call into a generated module loaded from the
:class:`~repro.codegen.cache.BuildCache` (built on first use, then
served from memory or disk).  Observation goes through
``planes``/``lane_value``/``lane_state``; fault injection through
``set_overrides`` with :class:`~repro.rtl.batchsim.LaneOverride` masks.
``load_state`` sets the latch/flop planes directly, so lanes can also
be an enumeration axis: one cycle from many chosen states at once.

Two things keep it fast:

* **restriction** -- ``hooks`` limits override guards to the nets a
  fault campaign actually injects at and ``observe`` limits end-of-cycle
  array writeback to the nets monitors actually read; everything else
  lives purely in locals of the fused cycle function;
* **the known dialect** -- when the module reports ``KNOWN_OK`` (all
  state inits known) and every primary input arrives fully known, the
  value-plane-only ``kcycle`` runs instead, halving the bit-ops.  The
  first X or missing input permanently drops this instance back to the
  two-plane kernel (until ``reset`` or a fully known ``load_state``).
  A frame packed by :meth:`CompiledSimulator.broadcast` has its
  eligibility established once, when the stimulus is packed; any other
  inputs mapping is checked on every cycle it is passed.

Construction compiles the netlist's phase programs, so a netlist with a
combinational cycle raises
:class:`~repro.rtl.toposort.CombinationalCycleError` (with the full
cycle path) here, exactly as the scalar simulator's strict mode does.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.codegen.cache import BuildCache, build_cache
from repro.rtl.batchsim import LaneOverride, Planes, broadcast, unpack_lane
from repro.rtl.logic import Value
from repro.rtl.netlist import Netlist

__all__ = ["CompiledSimulator"]


class CompiledSimulator:
    """Lane-parallel simulator backed by a cached generated module.

    ``hooks``/``observe`` restrict override guards and end-of-cycle
    writeback to the named signals (``None`` means every named signal).
    ``cache`` is a :class:`~repro.codegen.cache.BuildCache`, a cache
    directory path, or ``None`` for the shared default-directory cache.
    """

    def __init__(
        self,
        netlist: Netlist,
        lanes: int = 64,
        *,
        hooks: Optional[Iterable[str]] = None,
        observe: Optional[Iterable[str]] = None,
        cache: Union[BuildCache, str, None] = None,
        metrics=None,
    ) -> None:
        if lanes < 1:
            raise ValueError("need at least one lane")
        self.netlist = netlist
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        hooks = frozenset(hooks) if hooks is not None else None
        observe = frozenset(observe) if observe is not None else None
        if not isinstance(cache, BuildCache):
            cache = build_cache(cache)
        self.cache = cache
        self.module = cache.load_module(netlist, hooks, observe, metrics)
        mod = self.module
        self.key = mod.KEY
        self.fingerprint = mod.FINGERPRINT
        self._slot: Dict[str, int] = mod.SLOT
        self._inputs: Tuple[Tuple[str, int], ...] = mod.INPUTS
        self._state_slots: Tuple[Tuple[str, int], ...] = mod.STATE
        self._state_slot = dict(self._state_slots)
        self._init: Dict[int, Optional[int]] = mod.INIT
        self._hooks = mod.HOOKS
        self._observed: Tuple[int, ...] = mod.OBSERVED
        self._observed_set = frozenset(self._observed)
        self._n_named: int = mod.N_NAMED
        self._known_ok: bool = mod.KNOWN_OK

        n = self._n_named
        self._v: List[int] = [0] * n
        self._k: List[int] = [0] * n
        self._ov: List[Optional[LaneOverride]] = [None] * n
        self._kov: List[Optional[Tuple[int, int, int]]] = [None] * n
        self._any_ov = False
        #: the frames :meth:`broadcast` found known-eligible, by identity
        #: (holding each frame keeps its id unique)
        self._known_frames: Dict[int, Mapping[str, Planes]] = {}
        self.state: Dict[int, Planes] = {}
        self.time = 0
        #: end-of-cycle observers ``fn(time, sim)`` called by
        #: :meth:`cycle` with the index of the cycle just simulated.
        #: Empty by default (one truthiness check per cycle).
        self.observers: List[Callable[[int, "CompiledSimulator"], None]] = []
        self.reset()

    # -- state ---------------------------------------------------------
    def reset(self) -> None:
        """All lanes back to the declared latch/flop init values."""
        mask = self.mask
        self.state = {
            slot: (0, 0) if init is None else (mask if init else 0, mask)
            for slot, init in self._init.items()
        }
        # In-place so observers holding the plane arrays stay attached.
        n = self._n_named
        self._v[:] = [0] * n
        self._k[:] = [0] * n
        self.time = 0
        self._known_active = self._known_ok
        self._k_primed = False

    def load_state(self, state: Mapping[str, Planes]) -> None:
        """Overwrite latch/flop planes by name (the inverse of
        :meth:`lane_state`); state elements not named keep theirs.

        The known dialect is re-armed when every state plane is then
        fully known, as after :meth:`reset`, and dropped otherwise.
        """
        mask = self.mask
        for name, (v, k) in state.items():
            slot = self._state_slot.get(name)
            if slot is None:
                raise ValueError(f"{name!r} is not a latch or flop")
            k &= mask
            self.state[slot] = (v & k, k)
        self._known_active = self._known_ok and all(
            k == mask for _v, k in self.state.values()
        )
        self._k_primed = False

    def set_overrides(self, overrides: Mapping[str, LaneOverride]) -> None:
        """Install per-lane net overrides (replacing any previous set).

        Only nets in the module's hook set are accepted: the generated
        code carries guards nowhere else, so an override on any other
        net would be silently ignored -- rejected loudly instead.
        """
        mask = self.mask
        ov: List[Optional[LaneOverride]] = [None] * self._n_named
        kov: List[Optional[Tuple[int, int, int]]] = [None] * self._n_named
        for name, override in overrides.items():
            slot = self._slot.get(name)
            if slot is None:
                raise ValueError(f"unknown net {name!r}")
            if slot not in self._hooks:
                raise ValueError(
                    f"net {name!r} is not a hook of this compiled module; "
                    "rebuild with it in hooks= to inject there"
                )
            ov[slot] = override
            # The known dialect inlines apply() as three bit ops over
            # pre-masked words: v' = ((v & ~set0) | set1) ^ flip.
            kov[slot] = (
                mask & ~override.set0,
                override.set1 & mask,
                override.flip & mask,
            )
        self._ov = ov
        self._kov = kov
        self._any_ov = bool(overrides)

    # -- execution -----------------------------------------------------
    def _known_eligible(self, inputs: Mapping[str, Planes]) -> bool:
        mask = self.mask
        for name, _slot in self._inputs:
            planes = inputs.get(name)
            if planes is None or (planes[1] & mask) != mask:
                return False
        return True

    def broadcast(
        self, stimulus: Sequence[Mapping[str, Value]]
    ) -> List[Dict[str, Planes]]:
        """One input frame per cycle of ``stimulus`` (input name to 0, 1
        or X), the same value in every lane, ready for :meth:`cycle`.

        Cycles with the same inputs share one frame, and whether a frame
        drives every primary input known is established here, once per
        stimulus, so :meth:`cycle` does not re-check these frames for
        the known dialect.  The frames are read, never written, by
        :meth:`cycle`; callers must not modify them either.
        """
        frames: List[Dict[str, Planes]] = []
        shared: Dict[tuple, Dict[str, Planes]] = {}
        for inputs in stimulus:
            key = tuple(inputs.items())
            frame = shared.get(key)
            if frame is None:
                frame = shared[key] = {
                    name: broadcast(value, self.lanes)
                    for name, value in inputs.items()
                }
                if self._known_eligible(frame):
                    self._known_frames[id(frame)] = frame
            frames.append(frame)
        return frames

    @property
    def known_dialect(self) -> bool:
        """Whether this instance still runs the known dialect; after a
        :meth:`cycle`, whether that cycle ran it (every observed known
        plane then holds the full lane mask)."""
        return self._known_active

    def cycle(self, inputs: Optional[Mapping[str, Planes]] = None) -> None:
        """Advance every lane by one clock cycle.

        ``inputs`` maps input names to canonical plane pairs; missing
        inputs are all-X (which also vetoes the known dialect for this
        and all later cycles).  Afterwards the observed plane words
        expose the end-of-LOW-phase values via :meth:`planes` /
        :meth:`lane_value`.
        """
        inputs = inputs or {}
        mod, mask = self.module, self.mask
        if self._known_active and (
            id(inputs) in self._known_frames or self._known_eligible(inputs)
        ):
            if not self._k_primed:
                # The known dialect never touches the k array; monitors
                # still read it, so pin the observed slots to all-known
                # once per reset.
                for slot in self._observed:
                    self._k[slot] = mask
                self._k_primed = True
            if self._any_ov:
                mod.kcycle(inputs, self.state, self._v, self._kov, mask, 0)
            else:
                mod.kcycle_clean(inputs, self.state, self._v, mask, 0)
        else:
            self._known_active = False
            if self._any_ov:
                mod.cycle(
                    inputs, self.state, self._v, self._k, self._ov, mask, 0
                )
            else:
                mod.cycle_clean(
                    inputs, self.state, self._v, self._k, mask, 0
                )
        if self.observers:
            t = self.time
            for observer in self.observers:
                observer(t, self)
        self.time += 1

    # -- observation ---------------------------------------------------
    def slot(self, sig: str) -> int:
        """The plane-array index of ``sig`` (for hot-loop observers)."""
        return self._slot[sig]

    @property
    def value_planes(self) -> List[int]:
        """The live value-plane array, indexed by :meth:`slot`.

        Only *observed* slots carry end-of-cycle values.
        """
        return self._v

    @property
    def known_planes(self) -> List[int]:
        """The live known-plane array, indexed by :meth:`slot`."""
        return self._k

    def _check_observed(self, sig: str) -> int:
        slot = self._slot[sig]
        if slot not in self._observed_set:
            raise ValueError(
                f"signal {sig!r} is not observed by this compiled module; "
                "rebuild with it in observe= (or observe=None for all)"
            )
        return slot

    def planes(self, sig: str) -> Planes:
        """The end-of-cycle plane pair of one signal across all lanes."""
        slot = self._check_observed(sig)
        return self._v[slot], self._k[slot]

    def lane_value(self, sig: str, lane: int):
        """One lane's ternary value of ``sig`` after the last cycle."""
        return unpack_lane(self.planes(sig), lane)

    def lane_state(self, lane: int):
        """One lane's latch/flop state, matching the scalar ``state``."""
        return {
            name: unpack_lane(self.state[slot], lane)
            for name, slot in self._state_slots
        }

    def check_lane_integrity(self) -> int:
        """Bitmask of lanes whose plane encoding is corrupt.

        The two-plane encoding has one representation invariant: a
        value bit may only be set where the known bit is (``v & ~k ==
        0``), and no bit may live above the lane mask.  The generated
        kernels preserve both by construction, so a violation after a
        cycle means the planes were corrupted from outside (a buggy
        observer poking the live arrays, a bad override mask); the
        differential suite asserts it after every cycle.  Checks
        the observed slots (the only ones written back) plus all state
        words.  Returns 0 when every lane is healthy; a plane bit
        *above* the mask cannot be attributed to one lane, so it taints
        all of them (returns the full mask).
        """
        bad = 0
        mask = self.mask
        v, k = self._v, self._k
        words = [(v[slot], k[slot]) for slot in self._observed]
        words.extend(self.state.values())
        for vw, kw in words:
            if (vw | kw) & ~mask:
                return mask
            bad |= vw & ~kw & mask
        return bad
