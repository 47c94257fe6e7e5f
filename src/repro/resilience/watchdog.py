"""Deadlock/livelock watchdogs for the elastic simulators.

The paper's Theorem 1 guarantees liveness for *correct* controllers in
a *correct* network; a stuck-at fault, a mis-wired elasticization or a
combinational-loop topology can still wedge a simulation into a cycle
of mutually asserted Stop wires -- every producer is retrying, nobody
transfers, and a naive driver spins for the rest of its cycle budget.

A watchdog turns that spin into a diagnosis:

* **no-progress criterion** -- a sliding window of ``window`` cycles in
  which at least one channel is *offering* (a ``retry+``/``retry-``
  back-pressure event, or an asserted-but-stalled wire at RTL) but no
  channel *moves* (no ``transfer+``, ``transfer-`` or ``kill``).  A
  fully idle network is not a stall: with nothing offered there is
  nothing to block.
* **diagnosis** -- collect the blocked wires (``ch.sp`` asserted
  against a pending token, ``ch.sn`` asserted against a pending
  anti-token), build the wait-for graph "this blocked wire waits on
  that blocked wire" from the controller port topology (behavioural)
  or the structural fan-in cones (RTL), and extract one cycle with the
  shared :func:`~repro.rtl.toposort.order_or_cycle` walk -- the same
  routine that names combinational cycles.  An acyclic wait-for graph
  means the stall has a root cause instead of a deadlock ring; the
  diagnosis then reports the chain to that root.
* **report** -- a :class:`StallDiagnosis` carried by a ``stall``
  :class:`~repro.obs.events.TraceEvent` into any attached trace sink,
  and (by default) a :class:`StallError` that aborts the run instead of
  letting it spin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.elastic.protocol import DualChannelEvent
from repro.obs.events import TraceEvent
from repro.rtl.netlist import Netlist
from repro.rtl.toposort import canonical_cycle, order_or_cycle

__all__ = [
    "BatchStallWatchdog",
    "NetworkStallWatchdog",
    "StallDiagnosis",
    "StallError",
]

_PROGRESS = (
    DualChannelEvent.POSITIVE_TRANSFER,
    DualChannelEvent.NEGATIVE_TRANSFER,
    DualChannelEvent.KILL,
)
_PENDING = (
    DualChannelEvent.RETRY_POS,
    DualChannelEvent.RETRY_NEG,
)


@dataclass(frozen=True)
class StallDiagnosis:
    """Why a network stopped making progress.

    ``stop_cycle`` is the canonicalised ring of asserted Stop wires,
    each waiting on the next (empty when the wait-for graph is acyclic
    -- then ``blocked`` ends at the root-cause wire).
    """

    cycle: int
    window: int
    last_progress: int
    stop_cycle: Tuple[str, ...]
    blocked: Tuple[str, ...]
    detail: str
    lane: Optional[int] = None

    def to_event(self) -> TraceEvent:
        extra = {
            "window": self.window,
            "last_progress": self.last_progress,
            "stop_cycle": list(self.stop_cycle),
            "blocked": list(self.blocked),
            "detail": self.detail,
        }
        if self.lane is not None:
            extra["lane"] = self.lane
        return TraceEvent(
            cycle=self.cycle,
            kind="stall",
            subject="watchdog",
            extra=extra,
        )

    def __str__(self) -> str:
        if self.stop_cycle:
            ring = " -> ".join(self.stop_cycle + (self.stop_cycle[0],))
            shape = f"deadlock ring {ring}"
        elif self.blocked:
            shape = f"stalled behind {self.blocked[-1]}"
        else:
            shape = "no blocked wire identified"
        where = f"lane {self.lane}: " if self.lane is not None else ""
        return (
            f"{where}no progress for {self.cycle - self.last_progress} "
            f"cycles (window {self.window}, last progress at cycle "
            f"{self.last_progress}): {shape}"
        )


class StallError(RuntimeError):
    """A watchdog fired; :attr:`diagnosis` has the structured report."""

    def __init__(self, diagnosis: StallDiagnosis) -> None:
        super().__init__(str(diagnosis))
        self.diagnosis = diagnosis


def _diagnose(
    cycle: int,
    window: int,
    last_progress: int,
    blocked: Sequence[str],
    waits_on: Dict[str, Tuple[str, ...]],
    detail: str,
    lane: Optional[int] = None,
) -> StallDiagnosis:
    """Extract the deadlock ring (or root-cause chain) from a wait graph."""
    _, ring = order_or_cycle(waits_on)
    if ring is not None:
        ring = canonical_cycle(ring)
        return StallDiagnosis(
            cycle=cycle, window=window, last_progress=last_progress,
            stop_cycle=tuple(ring), blocked=tuple(sorted(blocked)),
            detail=detail, lane=lane,
        )
    # Acyclic: walk from the smallest blocked wire to the root cause
    # (a blocked wire none of whose waits are themselves blocked).
    chain: List[str] = []
    if blocked:
        node: Optional[str] = min(blocked)
        seen: Set[str] = set()
        while node is not None and node not in seen:
            seen.add(node)
            chain.append(node)
            nexts = waits_on.get(node, ())
            node = min(nexts) if nexts else None
    return StallDiagnosis(
        cycle=cycle, window=window, last_progress=last_progress,
        stop_cycle=(), blocked=tuple(chain), detail=detail, lane=lane,
    )


class NetworkStallWatchdog:
    """No-progress watchdog for the behavioural :class:`ElasticNetwork`.

    Attach with :meth:`attach` (or ``net.add_probe(watchdog)``); the
    watchdog then inspects every settled cycle.  When ``window`` cycles
    pass in which some channel retries but none transfers, it builds
    the wait-for graph over the asserted Stop wires from the attached
    network's controller port topology, emits a ``stall`` event into
    ``sink`` / ``on_stall`` and raises :class:`StallError` (unless
    ``raise_on_stall=False``, in which case the window restarts so the
    run keeps reporting every further stall).
    """

    def __init__(
        self,
        window: int = 32,
        sink: Optional[Callable[[TraceEvent], None]] = None,
        on_stall: Optional[Callable[[StallDiagnosis], None]] = None,
        raise_on_stall: bool = True,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.sink = sink
        self.on_stall = on_stall
        self.raise_on_stall = raise_on_stall
        self.last_progress = -1
        self.diagnoses: List[StallDiagnosis] = []
        self._net = None

    def attach(self, net) -> "NetworkStallWatchdog":
        """Register on ``net`` (an ElasticNetwork); returns self."""
        self._net = net
        net.add_probe(self)
        return self

    def __call__(self, net) -> None:
        cycle = net.cycle
        progress = False
        pending = False
        for ch in net.channels.values():
            if ch.last_event in _PROGRESS:
                progress = True
                break
            if ch.last_event in _PENDING:
                pending = True
        if progress or not pending:
            self.last_progress = cycle
            return
        if cycle - self.last_progress < self.window:
            return
        diagnosis = self._diagnose(net, cycle)
        self.diagnoses.append(diagnosis)
        if self.sink is not None:
            self.sink(diagnosis.to_event())
        if self.on_stall is not None:
            self.on_stall(diagnosis)
        if self.raise_on_stall:
            raise StallError(diagnosis)
        self.last_progress = cycle  # restart the window

    # -- wait-for graph over controller ports --------------------------
    def _diagnose(self, net, cycle: int) -> StallDiagnosis:
        blocked: Set[str] = set()
        for name, ch in net.channels.items():
            # A pending token refused by back-pressure (retry+)...
            if ch.vp == 1 and ch.sp == 1 and ch.vn != 1:
                blocked.add(f"{name}.sp")
            # ...or a pending anti-token refused (retry-).
            if ch.vn == 1 and ch.sn == 1 and ch.vp != 1:
                blocked.add(f"{name}.sn")
        waits_on: Dict[str, Tuple[str, ...]] = {}
        for ctrl in net.controllers:
            ports = _controller_ports(ctrl)
            if ports is None:
                continue
            ins, outs = ports
            # A full controller asserts Stop+ on its inputs because its
            # outputs are stopped: in.sp waits on out.sp.  Symmetrically
            # anti-token back-pressure flows forward: out.sn on in.sn.
            for i in ins:
                src = f"{i.name}.sp"
                if src in blocked:
                    deps = tuple(
                        f"{o.name}.sp" for o in outs
                        if f"{o.name}.sp" in blocked
                    )
                    if deps:
                        waits_on[src] = deps
            for o in outs:
                src = f"{o.name}.sn"
                if src in blocked:
                    deps = tuple(
                        f"{i.name}.sn" for i in ins
                        if f"{i.name}.sn" in blocked
                    )
                    if deps:
                        waits_on[src] = deps
        return _diagnose(
            cycle, self.window, self.last_progress, sorted(blocked),
            waits_on,
            detail=f"behavioural network {net.name!r}",
        )


def _controller_ports(ctrl) -> Optional[Tuple[List, List]]:
    """(input channels, output channels) of a behavioural controller.

    Duck-typed over the port attribute conventions of
    :mod:`repro.elastic.behavioral`: joins expose ``inputs``/``output``,
    forks ``input``/``outputs``, buffers/pipes/VL ``left``/``right``,
    the passive interface ``up``/``down``, sources a bare ``output`` and
    sinks a bare ``input``.
    """
    if hasattr(ctrl, "inputs") and hasattr(ctrl, "output"):
        return list(ctrl.inputs), [ctrl.output]
    if hasattr(ctrl, "input") and hasattr(ctrl, "outputs"):
        return [ctrl.input], list(ctrl.outputs)
    if hasattr(ctrl, "left") and hasattr(ctrl, "right"):
        return [ctrl.left], [ctrl.right]
    if hasattr(ctrl, "up") and hasattr(ctrl, "down"):
        return [ctrl.up], [ctrl.down]
    if hasattr(ctrl, "output"):
        return [], [ctrl.output]
    if hasattr(ctrl, "input"):
        return [ctrl.input], []
    return None


def blocked_wires(channels: Sequence, values: Dict[str, object]) -> Set[str]:
    """Stop wires asserted against a pending token/anti-token."""
    blocked: Set[str] = set()
    for ch in channels:
        vp, sp = values.get(ch.vp), values.get(ch.sp)
        vn, sn = values.get(ch.vn), values.get(ch.sn)
        if vp == 1 and sp == 1 and vn != 1:
            blocked.add(ch.sp)
        if vn == 1 and sn == 1 and vp != 1:
            blocked.add(ch.sn)
    return blocked


def _diagnose_rtl(
    channels: Sequence,
    values: Dict[str, object],
    fanin_comb: Dict[str, Set[str]],
    fanin_seq: Dict[str, Set[str]],
    time: int,
    window: int,
    last_progress: int,
    detail: str,
    lane: Optional[int] = None,
) -> StallDiagnosis:
    """Gate-level wait-for-graph diagnosis over one cycle's values.

    A blocked wire waits on the blocked wires in its combinational
    fan-in cone; designs whose EBs cut every combinational path (all
    channel outputs are state bits) have no such edges, so the walk
    falls back to the cross-cycle cones through latch/flop ``d`` pins
    -- a retry that persists because another retry persisted last
    cycle.
    """
    blocked = blocked_wires(channels, values)
    waits_on: Dict[str, Tuple[str, ...]] = {}
    for fanin in (fanin_comb, fanin_seq):
        for wire in blocked:
            # A wire's own fan-in (its retry state looping through
            # a flop) is "still stalled", not a wait-on edge.
            deps = tuple(
                sorted((fanin.get(wire, set()) & blocked) - {wire})
            )
            if deps:
                waits_on[wire] = deps
        if waits_on:
            break
    return _diagnose(
        time, window, last_progress, sorted(blocked), waits_on, detail,
        lane=lane,
    )


class BatchStallWatchdog:
    """Per-lane no-progress watchdog for the lane-parallel simulator.

    Watches a gate-level design's dual channels on a
    :class:`~repro.codegen.sim.CompiledSimulator` (the watched channel
    wires must be in its module's observed set).  The progress/pending
    criterion is evaluated word-wide -- one strict-bit mask operation
    per channel covers every lane -- and each lane keeps its own
    last-progress cycle.  When a lane's window expires, that lane's
    view of the netlist is extracted (:meth:`lane_values`) and
    diagnosed on the structural wait-for graph (:func:`_diagnose_rtl`):
    at gate level "my Stop is derived from your Stop" *is* the fan-in
    dependency.  The :class:`StallDiagnosis` carries the lane index.
    """

    def __init__(
        self,
        sim,
        channels: Sequence,
        window: int = 32,
        sink: Optional[Callable[[TraceEvent], None]] = None,
        on_stall: Optional[Callable[[StallDiagnosis], None]] = None,
        raise_on_stall: bool = True,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.sim = sim
        self.channels = list(channels)
        self.window = window
        self.sink = sink
        self.on_stall = on_stall
        self.raise_on_stall = raise_on_stall
        self.lanes: int = sim.lanes
        #: per-lane cycle of the most recent progress (or idle) cycle
        self.last_progress: List[int] = [-1] * self.lanes
        self.diagnoses: List[StallDiagnosis] = []
        self._mask = (1 << self.lanes) - 1
        watched = (
            [ch.sp for ch in self.channels] + [ch.sn for ch in self.channels]
        )
        self._fanin_comb = _fanin_cones(sim.netlist, watched, sequential=False)
        self._fanin_seq = _fanin_cones(sim.netlist, watched, sequential=True)
        sim.observers.append(self._observe)

    @classmethod
    def for_target(cls, target, sim, **kwargs) -> "BatchStallWatchdog":
        """Attach to ``sim`` watching an :class:`RtlTarget`'s channels."""
        return cls(sim, target.channels, **kwargs)

    def no_progress_mask(self, time: int) -> int:
        """Bitmask of lanes whose no-progress window has expired."""
        mask = 0
        for lane in range(self.lanes):
            if time - self.last_progress[lane] >= self.window:
                mask |= 1 << lane
        return mask

    def _observe(self, time: int, sim) -> None:
        from repro.rtl.batchsim import strict_planes

        progress = 0
        pending = 0
        for ch in self.channels:
            vp1, _ = strict_planes(sim, ch.vp)
            sp1, sp0 = strict_planes(sim, ch.sp)
            vn1, _ = strict_planes(sim, ch.vn)
            sn1, sn0 = strict_planes(sim, ch.sn)
            progress |= (vp1 & sp0 & ~vn1) | (vn1 & sn0 & ~vp1) | (vp1 & vn1)
            pending |= (vp1 & sp1) | (vn1 & sn1)
        # A lane refreshes its window on progress, or when nothing is
        # even pending (a fully idle lane is not stalled).
        refresh = (progress | ~pending) & self._mask
        lp = self.last_progress
        for lane in range(self.lanes):
            if (refresh >> lane) & 1:
                lp[lane] = time
            elif time - lp[lane] >= self.window:
                diagnosis = _diagnose_rtl(
                    self.channels, sim.lane_values(lane),
                    self._fanin_comb, self._fanin_seq,
                    time, self.window, lp[lane],
                    detail=f"netlist {sim.netlist.name!r}",
                    lane=lane,
                )
                self.diagnoses.append(diagnosis)
                if self.sink is not None:
                    self.sink(diagnosis.to_event())
                if self.on_stall is not None:
                    self.on_stall(diagnosis)
                if self.raise_on_stall:
                    raise StallError(diagnosis)
                lp[lane] = time  # restart this lane's window


def _fanin_cones(
    netlist: Netlist, wires: Sequence[str], sequential: bool = True
) -> Dict[str, Set[str]]:
    """Transitive fan-in of each wire.

    Always traverses gates; with ``sequential`` the walk also crosses
    latch and flop ``q <- d`` arcs (cross-cycle dependencies), otherwise
    state bits terminate the cone.
    """
    driver_ins: Dict[str, Tuple[str, ...]] = {}
    for out, gate in netlist.gates.items():
        driver_ins[out] = gate.ins
    if sequential:
        for q, latch in netlist.latches.items():
            driver_ins[q] = (latch.d,)
        for q, flop in netlist.flops.items():
            driver_ins[q] = (flop.d,)
    cones: Dict[str, Set[str]] = {}
    for wire in wires:
        cone: Set[str] = set()
        stack = [wire]
        while stack:
            sig = stack.pop()
            for dep in driver_ins.get(sig, ()):
                if dep not in cone:
                    cone.add(dep)
                    stack.append(dep)
        cones[wire] = cone
    return cones
