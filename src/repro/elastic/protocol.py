"""The SELF protocol and its dual (anti-token) extension.

Section 3 of the paper: a channel carries ``Valid`` (V) and ``Stop`` (S)
and is, each cycle, in one of three states:

* **Transfer (T)**: ``V and not S`` -- data moves.
* **Idle (I)**: ``not V`` -- no data offered.
* **Retry (R)**: ``V and S`` -- data offered but not accepted; the
  sender must hold it (persistence), so the observable language of a
  channel is ``(I* R* T)*``.

Section 4 adds the symmetric negative flow: a *dual* channel carries
``{V+, S+, V−, S−}``.  Events:

* **positive transfer**: ``V+ and not S+ and not V−``
* **negative transfer**: ``V− and not S− and not V+``
* **kill**: ``V+ and V−`` -- token and anti-token annihilate.

and the channel invariants of equation (2)::

    not (V− and S+)      -- cannot kill a token and stop it
    not (V+ and S−)      -- dual for anti-tokens

The throughput of a channel is the sum of the three event rates, which
by the repetitive behaviour of SCDMGs is identical on every channel of a
strongly connected system.

Every other cycle is a **retry+** (``V+ and S+``), a **retry−** (``V−
and S−``) or **idle**.  :func:`event_of` is the one six-event table;
:data:`CATEGORY`, :data:`MOVED` and :data:`RETRYING` name and group
its events for every counter, monitor, profiler and watchdog.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict


class ChannelState(enum.Enum):
    """State of a (positive) SELF channel in one cycle."""

    TRANSFER = "T"
    IDLE = "I"
    RETRY = "R"


class DualChannelEvent(enum.Enum):
    """Event observed on a dual channel in one cycle."""

    POSITIVE_TRANSFER = "+"
    NEGATIVE_TRANSFER = "-"
    KILL = "±"
    RETRY_POS = "R+"
    RETRY_NEG = "R-"
    IDLE = "I"


def classify(valid: int, stop: int) -> ChannelState:
    """Classify a positive-only channel cycle (Fig. 2)."""
    if not valid:
        return ChannelState.IDLE
    return ChannelState.RETRY if stop else ChannelState.TRANSFER


def invariant_holds(vp: int, sp: int, vn: int, sn: int) -> bool:
    """The equation (2) invariants of a dual channel."""
    return not (vn and sp) and not (vp and sn)


#: each event's name in reports and traces, in table order
CATEGORY: Dict[DualChannelEvent, str] = dict(zip(DualChannelEvent, (
    "transfer+", "transfer-", "kill", "retry+", "retry-", "idle",
)))

#: the events in which something moves: the paper's throughput counts
#: them, and a no-progress watchdog waits for one
MOVED = (
    DualChannelEvent.POSITIVE_TRANSFER,
    DualChannelEvent.NEGATIVE_TRANSFER,
    DualChannelEvent.KILL,
)

#: the events in which an offer is refused, each with the Stop wire
#: asserted against it (a blocked Stop wire *is* a retry)
RETRYING: Dict[DualChannelEvent, str] = {
    DualChannelEvent.RETRY_POS: "sp",
    DualChannelEvent.RETRY_NEG: "sn",
}


def event_of(vp, sp, vn, sn) -> DualChannelEvent:
    """Classify one channel-cycle from its four wire values.

    The six-event table of Sects. 3--4.  It never raises: a wire that
    is unknown (``X``) or absent (``None``) matches no test, so a cycle
    whose deciding wire is unknown reads as idle -- safe on reset
    transients and fault-corrupted runs.  :func:`classify_dual` is the
    raising form for settled wires.
    """
    if vp == 1:
        if vn == 1:
            return DualChannelEvent.KILL
        if sp == 0:
            return DualChannelEvent.POSITIVE_TRANSFER
        if sp == 1:
            return DualChannelEvent.RETRY_POS
    elif vn == 1:
        if sn == 0:
            return DualChannelEvent.NEGATIVE_TRANSFER
        if sn == 1:
            return DualChannelEvent.RETRY_NEG
    return DualChannelEvent.IDLE


def classify_dual(vp: int, sp: int, vn: int, sn: int) -> DualChannelEvent:
    """Classify one cycle of a dual channel.

    Raises ``ProtocolViolation`` if the invariants of equation (2) are
    broken: classification would be ambiguous otherwise.
    """
    if not invariant_holds(vp, sp, vn, sn):
        raise ProtocolViolation(
            f"invariant (2) violated: V+={vp} S+={sp} V-={vn} S-={sn}"
        )
    return event_of(vp, sp, vn, sn)


class ProtocolViolation(AssertionError):
    """A SELF protocol rule was broken on a channel."""


@dataclass
class ProtocolMonitor:
    """Runtime monitor for one dual channel.

    Checks, cycle by cycle:

    * the invariants of equation (2);
    * **persistence** of the positive flow: after Retry+ the sender must
      keep ``V+`` asserted with the *same data* until transfer or kill
      (this is exactly the ``(I*R*T)*`` language of Fig. 2);
    * **persistence** of the negative flow (Retry− keeps ``V−``).

    Attach one monitor per channel and feed it each settled cycle.
    """

    name: str = "channel"
    check_data: bool = True
    _pending_pos: bool = field(default=False, repr=False)
    _pending_data: object = field(default=None, repr=False)
    _pending_neg: bool = field(default=False, repr=False)

    def observe(
        self, vp: int, sp: int, vn: int, sn: int, data: object = None
    ) -> DualChannelEvent:
        """Check one cycle; returns its classification."""
        event = classify_dual(vp, sp, vn, sn)

        if self._pending_pos and not vp:
            raise ProtocolViolation(
                f"{self.name}: V+ dropped during Retry+ (persistence broken)"
            )
        if (
            self._pending_pos
            and vp
            and self.check_data
            and data != self._pending_data
        ):
            raise ProtocolViolation(
                f"{self.name}: data changed during Retry+ "
                f"({self._pending_data!r} -> {data!r})"
            )
        if self._pending_neg and not vn:
            raise ProtocolViolation(
                f"{self.name}: V- dropped during Retry- (persistence broken)"
            )

        self._pending_pos = event is DualChannelEvent.RETRY_POS
        self._pending_data = data if self._pending_pos else None
        self._pending_neg = event is DualChannelEvent.RETRY_NEG
        return event
