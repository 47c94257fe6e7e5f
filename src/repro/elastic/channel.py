"""Dual elastic channels for the behavioural simulator.

A :class:`Channel` carries the four control wires ``{V+, S+, V−, S−}``
plus a data payload.  Within a simulated cycle all wires start unknown
(``X``) and are *driven* monotonically by the controllers at the two
ends until the network reaches a fixed point:

* the **producer** end drives ``V+`` (and the data payload) and ``S−``;
* the **consumer** end drives ``S+`` and ``V−``.

Every ``drive_*`` call and :meth:`Channel.put_data` reports whether it
changed the channel; the network re-evaluates a channel's other end
only after such a change.  Wires change at most once per cycle (X to
0 or 1); a payload may be replaced while the network settles.

Driving a wire twice with conflicting known values raises -- that would
mean two controllers disagree about the same physical signal, i.e. a
bug in a controller's equations.

After the network settles, :meth:`Channel.finish_cycle` classifies the
cycle (positive/negative transfer, kill, retry, idle), updates the
channel statistics, and runs the protocol monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.elastic.protocol import (
    CATEGORY,
    MOVED,
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
    #: cycles counted per event of the six-event table
    counts: Dict[DualChannelEvent, int] = field(
        default_factory=lambda: dict.fromkeys(DualChannelEvent, 0)
    )

    def record(self, event: DualChannelEvent) -> None:
        self.cycles += 1
        self.counts[event] += 1

    positive = property(lambda self: self.counts[DualChannelEvent.POSITIVE_TRANSFER])
    negative = property(lambda self: self.counts[DualChannelEvent.NEGATIVE_TRANSFER])
    kills = property(lambda self: self.counts[DualChannelEvent.KILL])
    retries_pos = property(lambda self: self.counts[DualChannelEvent.RETRY_POS])
    retries_neg = property(lambda self: self.counts[DualChannelEvent.RETRY_NEG])
    idle = property(lambda self: self.counts[DualChannelEvent.IDLE])

    @property
    def moved(self) -> int:
        """Cycles in which a token, an anti-token or both moved."""
        return sum(self.counts[event] for event in MOVED)

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
        return {event.value: self.counts[event] / c for event in MOVED}

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
    # Each drive returns True if the wire value changed.
    # ------------------------------------------------------------------
    def _conflict(self, wire: str, value: Value) -> None:
        raise ProtocolViolation(
            f"{self.name}.{wire}: conflicting drives {getattr(self, wire)} vs {value}"
        )

    def drive_vp(self, value: Value) -> bool:
        """Producer drives Valid+ (forward data valid)."""
        if value is X:
            return False
        if self.vp is X:
            self.vp = 1 if value else 0
            return True
        if (1 if value else 0) != self.vp:
            self._conflict("vp", value)
        return False

    def drive_sp(self, value: Value) -> bool:
        """Consumer drives Stop+ (token back-pressure)."""
        if value is X:
            return False
        if self.sp is X:
            self.sp = 1 if value else 0
            return True
        if (1 if value else 0) != self.sp:
            self._conflict("sp", value)
        return False

    def drive_vn(self, value: Value) -> bool:
        """Consumer drives Valid− (anti-token travelling backwards)."""
        if value is X:
            return False
        if self.vn is X:
            self.vn = 1 if value else 0
            return True
        if (1 if value else 0) != self.vn:
            self._conflict("vn", value)
        return False

    def drive_sn(self, value: Value) -> bool:
        """Producer drives Stop− (anti-token back-pressure)."""
        if value is X:
            return False
        if self.sn is X:
            self.sn = 1 if value else 0
            return True
        if (1 if value else 0) != self.sn:
            self._conflict("sn", value)
        return False

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

        Unlike the ``drive_*`` methods this bypasses the monotone-drive
        discipline -- it models a glitch corrupting the physical wire
        between the drivers' fixed point and the receivers' sampling
        edge.  Use only between :meth:`ElasticNetwork` settling and
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
        self.require_settled()
        for observer in self.observers:
            observer(self)
        if self.monitor is not None:
            event = self.monitor.observe(self.vp, self.sp, self.vn, self.sn, self.data)
        else:
            event = classify_dual(self.vp, self.sp, self.vn, self.sn)
        self.stats.record(event)
        self.last_event = event
        return event

    def __repr__(self) -> str:
        return f"Channel({self.name!r}, {self.stats})"
