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
its events for every counter, monitor and profiler, and
:data:`SETTLED_EVENTS` is the same table read off once per settled
wire code for the per-cycle paths.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


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


#: the events in table order; an event's position here indexes the
#: per-event counters of :class:`~repro.elastic.channel.ChannelStats`
EVENTS: Tuple[DualChannelEvent, ...] = tuple(DualChannelEvent)
#: the events as module constants: reading a member off the enum class
#: goes through its metaclass, which the per-cycle paths cannot afford
POSITIVE_TRANSFER, NEGATIVE_TRANSFER, KILL, RETRY_POS, RETRY_NEG, IDLE = EVENTS


def classify(valid: int, stop: int) -> ChannelState:
    """Classify a positive-only channel cycle (Fig. 2)."""
    if not valid:
        return ChannelState.IDLE
    return ChannelState.RETRY if stop else ChannelState.TRANSFER


def invariant_holds(vp: int, sp: int, vn: int, sn: int) -> bool:
    """The equation (2) invariants of a dual channel."""
    return not (vn and sp) and not (vp and sn)


#: each event's name in reports and traces, in table order
CATEGORY: Dict[DualChannelEvent, str] = dict(zip(EVENTS, (
    "transfer+", "transfer-", "kill", "retry+", "retry-", "idle",
)))

#: the events in which something moves: the paper's throughput counts
#: them, and the profilers' no-progress rule waits for one
MOVED = (POSITIVE_TRANSFER, NEGATIVE_TRANSFER, KILL)

#: the events in which an offer is refused, each with the Stop wire
#: asserted against it (a blocked Stop wire *is* a retry)
RETRYING: Dict[DualChannelEvent, str] = {RETRY_POS: "sp", RETRY_NEG: "sn"}


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
            return KILL
        if sp == 0:
            return POSITIVE_TRANSFER
        if sp == 1:
            return RETRY_POS
    elif vn == 1:
        if sn == 0:
            return NEGATIVE_TRANSFER
        if sn == 1:
            return RETRY_NEG
    return IDLE


#: The event of every settled wire code ``V+ S+ V− S−`` (four bits, V+
#: the highest), or None where equation (2) is broken.  Read off
#: :func:`event_of` and :func:`invariant_holds` once, so the six-event
#: table keeps one definition.
SETTLED_EVENTS: Tuple[Optional[DualChannelEvent], ...] = tuple(
    event_of(*wires) if invariant_holds(*wires) else None
    for wires in itertools.product((0, 1), repeat=4)
)


def classify_dual(vp: int, sp: int, vn: int, sn: int) -> DualChannelEvent:
    """Classify one cycle of a dual channel from its settled wires.

    Raises ``ProtocolViolation`` if the invariants of equation (2) are
    broken: classification would be ambiguous otherwise.
    """
    event = SETTLED_EVENTS[vp << 3 | sp << 2 | vn << 1 | sn]
    if event is None:
        raise _broken(vp, sp, vn, sn)
    return event


def _broken(vp: int, sp: int, vn: int, sn: int) -> "ProtocolViolation":
    return ProtocolViolation(
        f"invariant (2) violated: V+={vp} S+={sp} V-={vn} S-={sn}"
    )


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
    #: the retry event of the last cycle, or None: what this cycle
    #: must persist
    _pending: Optional[DualChannelEvent] = field(default=None, repr=False)
    _pending_data: object = field(default=None, repr=False)

    def observe(
        self, vp: int, sp: int, vn: int, sn: int, data: object = None
    ) -> DualChannelEvent:
        """Check one cycle of settled wires; returns its classification."""
        # classify_dual, read inline: this runs on every channel, every
        # cycle
        event = SETTLED_EVENTS[vp << 3 | sp << 2 | vn << 1 | sn]
        if event is None:
            raise _broken(vp, sp, vn, sn)
        if self._pending is not None:
            self._check_persistence(vp, vn, data)
        if event is RETRY_POS or event is RETRY_NEG:
            self._pending = event
            self._pending_data = data if event is RETRY_POS else None
        else:
            self._pending = None
            self._pending_data = None
        return event

    def _check_persistence(self, vp: int, vn: int, data: object) -> None:
        if self._pending is RETRY_POS:
            if not vp:
                raise ProtocolViolation(
                    f"{self.name}: V+ dropped during Retry+ "
                    f"(persistence broken)"
                )
            if self.check_data and data != self._pending_data:
                raise ProtocolViolation(
                    f"{self.name}: data changed during Retry+ "
                    f"({self._pending_data!r} -> {data!r})"
                )
        elif not vn:
            raise ProtocolViolation(
                f"{self.name}: V- dropped during Retry- (persistence broken)"
            )
