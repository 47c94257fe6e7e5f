"""Dual elastic channels for the behavioural simulator.

A :class:`Channel` carries the four control wires ``{V+, S+, V−, S−}``
plus a data payload.  Within a simulated cycle all wires start unknown
(``X``) and are *driven* monotonically by the controllers at the two
ends until the network reaches a fixed point:

* the **producer** end drives ``V+`` (and the data payload) and ``S−``
  through :meth:`Channel.drive_producer`;
* the **consumer** end drives ``S+`` and ``V−`` through
  :meth:`Channel.drive_consumer`.

Each drive and :meth:`Channel.put_data` reports whether it changed the
channel; the network re-evaluates a channel's other end only after
such a change.  Wires change at most once per cycle (X to 0 or 1); a
payload may be replaced while the network settles.

Driving a wire twice with conflicting known values raises -- that would
mean two controllers disagree about the same physical signal, i.e. a
bug in a controller's equations.

After the network settles, :meth:`Channel.finish_cycle` reads the
cycle's event (positive/negative transfer, kill, retry, idle) off the
settled-code table :data:`~repro.elastic.protocol.SETTLED_EVENTS`,
updates the channel statistics, and runs the protocol monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.elastic.protocol import (
    CATEGORY,
    EVENTS,
    IDLE,
    KILL,
    MOVED,
    NEGATIVE_TRANSFER,
    POSITIVE_TRANSFER,
    RETRY_NEG,
    RETRY_POS,
    DualChannelEvent,
    ProtocolMonitor,
    ProtocolViolation,
    classify_dual,
)
from repro.rtl.logic import Value, X


@dataclass
class ChannelStats:
    """Per-channel event counters (the Table 1 columns)."""

    cycles: int = 0
    #: cycles counted per event, at the event's position in ``EVENTS``
    tally: List[int] = field(default_factory=lambda: [0] * len(EVENTS))

    def record(self, event: DualChannelEvent) -> None:
        self.cycles += 1
        self.tally[EVENTS.index(event)] += 1

    @property
    def counts(self) -> Dict[DualChannelEvent, int]:
        """Cycles counted per event of the six-event table."""
        return dict(zip(EVENTS, self.tally))

    positive = property(lambda self: self.counts[POSITIVE_TRANSFER])
    negative = property(lambda self: self.counts[NEGATIVE_TRANSFER])
    kills = property(lambda self: self.counts[KILL])
    retries_pos = property(lambda self: self.counts[RETRY_POS])
    retries_neg = property(lambda self: self.counts[RETRY_NEG])
    idle = property(lambda self: self.counts[IDLE])

    @property
    def moved(self) -> int:
        """Cycles in which a token, an anti-token or both moved."""
        counts = self.counts
        return sum(counts[event] for event in MOVED)

    @property
    def throughput(self) -> float:
        """Moved cycles per cycle -- the paper's Th."""
        if self.cycles == 0:
            return 0.0
        return self.moved / self.cycles

    def accounting(self) -> Dict[str, int]:
        """The counts keyed by category name, the report schema that
        behavioural and RTL profiles share."""
        return {CATEGORY[event]: n for event, n in self.counts.items()}

    def rates(self) -> Dict[str, float]:
        """Per-cycle rates of the three moving events."""
        c = self.cycles or 1
        counts = self.counts
        return {event.value: counts[event] / c for event in MOVED}

    def __str__(self) -> str:
        r = self.rates()
        return f"Th={self.throughput:.3f} (+{r['+']:.3f} -{r['-']:.3f} ±{r['±']:.3f})"


class Channel:
    """One dual elastic channel between two controller ports."""

    def __init__(self, name: str, monitor: bool = True, check_data: bool = True):
        self.name = name
        self.stats = ChannelStats()
        self.monitor: Optional[ProtocolMonitor] = (
            ProtocolMonitor(name, check_data=check_data) if monitor else None
        )
        self.vp: Value = X
        self.sp: Value = X
        self.vn: Value = X
        self.sn: Value = X
        self.data: object = None
        self.last_event: Optional[DualChannelEvent] = None
        #: external per-cycle watchers ``fn(channel)`` called on every
        #: settled cycle *before* the raising protocol monitor -- the
        #: attachment point for the non-raising fault-campaign monitors
        #: of :mod:`repro.faults.monitors`.
        self.observers: List[Callable[["Channel"], None]] = []

    # ------------------------------------------------------------------
    # Driving (monotone: X -> known only; conflicting drives raise).
    # Each end drives its two wires at once; X leaves a wire as it is,
    # and any other value drives it to canonical 0/1.  Returns True if
    # either wire changed.
    # ------------------------------------------------------------------
    def _conflict(self, wire: str, value: Value) -> None:
        raise ProtocolViolation(
            f"{self.name}.{wire}: conflicting drives {getattr(self, wire)} vs {value}"
        )

    def drive_producer(self, vp: Value, sn: Value) -> bool:
        """The producer end drives Valid+ (forward data valid) and Stop−
        (anti-token back-pressure)."""
        changed = False
        if vp is not X:
            if self.vp is X:
                self.vp = 1 if vp else 0
                changed = True
            elif (1 if vp else 0) != self.vp:
                self._conflict("vp", vp)
        if sn is not X:
            if self.sn is X:
                self.sn = 1 if sn else 0
                changed = True
            elif (1 if sn else 0) != self.sn:
                self._conflict("sn", sn)
        return changed

    def drive_consumer(self, sp: Value, vn: Value) -> bool:
        """The consumer end drives Stop+ (token back-pressure) and Valid−
        (anti-token travelling backwards)."""
        changed = False
        if sp is not X:
            if self.sp is X:
                self.sp = 1 if sp else 0
                changed = True
            elif (1 if sp else 0) != self.sp:
                self._conflict("sp", sp)
        if vn is not X:
            if self.vn is X:
                self.vn = 1 if vn else 0
                changed = True
            elif (1 if vn else 0) != self.vn:
                self._conflict("vn", vn)
        return changed

    def put_data(self, payload: object) -> bool:
        """Producer attaches the payload accompanying ``V+``.

        Returns True if the payload changed: ``payload`` is neither the
        current payload object nor equal to it.  An equal payload keeps
        the current object, so payloads that are put again share their
        parts and later comparisons stay shallow.  A payload can change
        more than once in a cycle (an early join refining its output
        as late operands arrive), so controllers report the change like
        a wire change and the network re-evaluates the readers.
        """
        if payload is not self.data and payload != self.data:
            self.data = payload
            return True
        return False

    def force(self, wire: str, value: Value) -> None:
        """Fault-injection hook: overwrite a wire after the network settled.

        Unlike :meth:`drive_producer` and :meth:`drive_consumer` this
        bypasses the monotone-drive discipline -- it models a glitch
        corrupting the physical wire between the drivers' fixed point
        and the receivers' sampling edge.  Use only between :meth:`ElasticNetwork` settling and
        ``finish_cycle`` (see ``ElasticNetwork.add_saboteur``).
        """
        if wire not in ("vp", "sp", "vn", "sn"):
            raise ValueError(f"unknown wire {wire!r}")
        setattr(self, wire, value)

    # ------------------------------------------------------------------
    # Settled-cycle queries (used by controller commit phases)
    # ------------------------------------------------------------------
    def settled(self) -> bool:
        """True once all four wires are known."""
        return (
            self.vp is not X and self.sp is not X
            and self.vn is not X and self.sn is not X
        )

    def require_settled(self) -> None:
        if not self.settled():
            raise ProtocolViolation(
                f"{self.name}: wires did not settle "
                f"(V+={self.vp} S+={self.sp} V-={self.vn} S-={self.sn})"
            )

    @property
    def pos_transfer(self) -> bool:
        """Token moves forward this cycle."""
        return self.vp == 1 and self.sp == 0 and self.vn == 0

    @property
    def neg_transfer(self) -> bool:
        """Anti-token moves backward this cycle."""
        return self.vn == 1 and self.sn == 0 and self.vp == 0

    @property
    def kill(self) -> bool:
        """Token and anti-token annihilate on the channel this cycle."""
        return self.vp == 1 and self.vn == 1

    # ------------------------------------------------------------------
    # Cycle lifecycle
    # ------------------------------------------------------------------
    def begin_cycle(self) -> None:
        """Reset all wires to unknown at the start of a cycle."""
        self.vp = X
        self.sp = X
        self.vn = X
        self.sn = X
        self.data = None

    def finish_cycle(self) -> DualChannelEvent:
        """Classify and record the settled cycle."""
        vp, sp, vn, sn = self.vp, self.sp, self.vn, self.sn
        if vp is X or sp is X or vn is X or sn is X:
            self.require_settled()
        for observer in self.observers:
            observer(self)
        if self.monitor is not None:
            event = self.monitor.observe(vp, sp, vn, sn, self.data)
        else:
            event = classify_dual(vp, sp, vn, sn)
        self.stats.record(event)
        self.last_event = event
        return event

    def __repr__(self) -> str:
        return f"Channel({self.name!r}, {self.stats})"
