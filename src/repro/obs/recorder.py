"""The TraceRecorder: cycle-stamped events from the simulators.

One recorder serves the behavioural network and the compiled RTL engine:

* :meth:`TraceRecorder.attach_network` hooks a behavioural
  :class:`~repro.elastic.behavioral.ElasticNetwork` through the
  per-channel observer lists -- every settled cycle yields wire edges,
  the channel event (transfer/kill/retry/idle) and, for early joins,
  ``ee-fire`` events naming the inputs left owing anti-tokens;
* :meth:`TraceRecorder.attach_batch` hooks one lane of a lane-parallel
  :class:`~repro.codegen.sim.CompiledSimulator` through its
  end-of-cycle observer list and records edges (and X onsets) on a
  watch list of nets.

Events land in a bounded ring buffer (oldest evicted first) and are
forwarded to pluggable sinks (:class:`JsonlSink`, :class:`~repro.obs.
vcd.VcdSink`, or anything with ``emit``/``close``).  A recorder
constructed with ``enabled=False`` attaches *nothing*: the attach
methods return immediately, so a disabled trace leaves every simulator
on exactly the code path an untraced run takes -- the zero-cost no-op
guarantee the overhead benchmark locks.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Union

from repro.elastic.protocol import CATEGORY, ProtocolViolation, classify_dual
from repro.obs.events import TraceEvent
from repro.obs.metrics import MetricsRegistry
from repro.rtl.logic import X

__all__ = ["JsonlSink", "TraceRecorder", "collect_network_metrics"]

_WIRE_NAMES = ("vp", "sp", "vn", "sn")


class JsonlSink:
    """A trace sink writing one JSON object per event."""

    def __init__(self, target: Union[str, TextIO]):
        if isinstance(target, str):
            self._handle: TextIO = open(target, "w")
            self._owned = True
        else:
            self._handle = target
            self._owned = False
        self.emitted = 0

    def declare_wire(self, subject: str) -> None:  # sink protocol
        pass

    def emit(self, event: TraceEvent) -> None:
        self._handle.write(event.to_json() + "\n")
        self.emitted += 1

    def close(self) -> None:
        if self._owned:
            self._handle.close()


class TraceRecorder:
    """Bounded ring buffer of :class:`TraceEvent` with pluggable sinks."""

    def __init__(
        self,
        capacity: int = 65536,
        sinks: Sequence[object] = (),
        enabled: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.enabled = enabled
        self.capacity = capacity
        self.events: "deque[TraceEvent]" = deque(maxlen=capacity)
        self.sinks = list(sinks)
        self.metrics = metrics
        self.emitted = 0
        self._counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Core emission
    # ------------------------------------------------------------------
    def emit(self, cycle: int, kind: str, subject: str,
             value: object = None,
             extra: Optional[Dict[str, object]] = None) -> None:
        if not self.enabled:
            return
        event = TraceEvent(cycle, kind, subject, value, extra)
        self.events.append(event)
        self.emitted += 1
        self._counts[kind] = self._counts.get(kind, 0) + 1
        for sink in self.sinks:
            sink.emit(event)

    def counts(self) -> Dict[str, int]:
        """Events emitted so far, per kind (incl. ring-evicted ones)."""
        return dict(sorted(self._counts.items()))

    def close(self) -> None:
        """Flush and close every sink."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def _declare(self, subject: str) -> None:
        for sink in self.sinks:
            declare = getattr(sink, "declare_wire", None)
            if declare is not None:
                declare(subject)

    # ------------------------------------------------------------------
    # Behavioural network attachment
    # ------------------------------------------------------------------
    def attach_network(self, net, channels: Optional[Iterable[str]] = None,
                       include_idle: bool = False) -> "TraceRecorder":
        """Hook a behavioural :class:`ElasticNetwork`'s settled cycles.

        Adds one observer per channel (wire edges + channel events) and
        one per early join (``ee-fire``).  With ``enabled=False`` this
        is a no-op: nothing is attached and the network runs untouched.
        """
        if not self.enabled:
            return self
        from repro.elastic.behavioral import EarlyJoin

        names = list(channels) if channels is not None else list(net.channels)
        for name in names:
            for wire in _WIRE_NAMES:
                self._declare(f"{name}.{wire}")
        for name in names:
            net.channels[name].observers.append(
                self._channel_observer(net, net.channels[name], include_idle)
            )
        for ctrl in net.controllers:
            if isinstance(ctrl, EarlyJoin) and ctrl.output.name in net.channels:
                ctrl.output.observers.append(self._ee_observer(net, ctrl))
        return self

    def _channel_observer(self, net, ch, include_idle: bool):
        prev = [X, X, X, X]
        metrics = self.metrics
        fired = (
            metrics.counter("channel_events_total", channel=ch.name, kind="all")
            if metrics is not None else None
        )

        def observe(channel) -> None:
            t = net.cycle
            wires = (ch.vp, ch.sp, ch.vn, ch.sn)
            for i, wire in enumerate(_WIRE_NAMES):
                new = wires[i]
                if new is not prev[i] and new != prev[i]:
                    if new is X:
                        self.emit(t, "x-onset", f"{ch.name}.{wire}")
                    else:
                        self.emit(t, "edge", f"{ch.name}.{wire}", new)
                    prev[i] = new
            try:
                event = classify_dual(ch.vp, ch.sp, ch.vn, ch.sn)
            except ProtocolViolation as exc:
                self.emit(t, "invariant", ch.name, extra={"detail": str(exc)})
                return
            kind = CATEGORY[event]
            if kind == "idle" and not include_idle:
                return
            self.emit(t, kind, ch.name)
            if fired is not None and kind != "idle":
                fired.inc()

        return observe

    def _ee_observer(self, net, ctrl):
        metrics = self.metrics
        fires = early = None
        if metrics is not None:
            fires = metrics.counter("ee_firings_total", join=ctrl.name)
            early = metrics.counter("ee_early_firings_total", join=ctrl.name)

        def observe(channel) -> None:
            owing = ctrl.owing()
            if owing is None:
                return
            missing = [ctrl.inputs[i].name for i in owing]
            if fires is not None:
                fires.inc()
                if missing:
                    early.inc()
            self.emit(
                net.cycle, "ee-fire", ctrl.name,
                extra={"early": bool(missing), "missing": missing},
            )

        return observe

    # ------------------------------------------------------------------
    # RTL attachment (one lane of the lane-parallel engine)
    # ------------------------------------------------------------------
    def attach_batch(self, sim, watch: Sequence[str],
                     lane: int = 0) -> "TraceRecorder":
        """Hook one lane of a compiled simulator on a watch list.

        Every watched net is validated through ``planes()`` at attach
        time, so a net missing from the module's observed set fails
        loudly here instead of silently tracing a stale slot.
        """
        if not self.enabled:
            return self
        watch = list(watch)
        for net in watch:
            self._declare(net)
            sim.planes(net)  # raises for unobserved compiled nets
        slots = [(net, sim.slot(net)) for net in watch]
        bit = 1 << lane
        prev: Dict[str, object] = {}
        v, k = sim.value_planes, sim.known_planes

        def observe(time: int, s) -> None:
            for net, slot in slots:
                nv, nk = v[slot], k[slot]
                if nk & bit:
                    new: object = 1 if nv & bit else 0
                else:
                    new = X
                old = prev.get(net, X)
                if new is not old and new != old:
                    if new is X:
                        self.emit(time, "x-onset", net)
                    else:
                        self.emit(time, "edge", net, new)
                    prev[net] = new

        sim.observers.append(observe)
        return self


def collect_network_metrics(net, registry: MetricsRegistry) -> MetricsRegistry:
    """Fold a finished network's per-channel stats into ``registry``.

    Registers, per channel: event counters (``dir`` label ``+``/``-``/
    ``kill``), a throughput gauge (the paper's Th) and the stall/bubble
    fractions.  Safe to call repeatedly (counters are get-or-create, so
    call it once per run).
    """
    for name in sorted(net.channels):
        stats = net.channels[name].stats
        registry.counter("channel_transfers_total", channel=name,
                         dir="+").inc(stats.positive)
        registry.counter("channel_transfers_total", channel=name,
                         dir="-").inc(stats.negative)
        registry.counter("channel_kills_total", channel=name).inc(stats.kills)
        registry.gauge("channel_throughput", channel=name).set(
            round(stats.throughput, 6)
        )
        cycles = stats.cycles or 1
        registry.gauge("channel_stall_fraction", channel=name).set(
            round((stats.retries_pos + stats.retries_neg) / cycles, 6)
        )
        registry.gauge("channel_idle_fraction", channel=name).set(
            round(stats.idle / cycles, 6)
        )
    return registry
