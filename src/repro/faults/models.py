"""Fault models for both abstraction layers.

Two families, mirroring the two controller implementations:

* **RTL faults** (:class:`Injection`) -- stuck-at-0/1 and transient
  bit-flips on named nets of a :class:`~repro.rtl.netlist.Netlist`,
  applied as :class:`~repro.rtl.batchsim.LaneOverride` masks at the
  fault-site hooks of the compiled simulator by
  :class:`~repro.faults.batch.BatchCampaignHarness`;
* **behavioural faults** -- wire glitches on settled
  :class:`~repro.elastic.channel.Channel` wires (token drop, spurious
  token/anti-token, handshake glitches on any of ``{V+, S+, V−, S−}``,
  :class:`ChannelFault` + :class:`WireSaboteur`) and state upsets
  inside :class:`~repro.elastic.behavioral.ElasticBuffer` instances
  (token duplication/loss, :class:`BufferFault` + :class:`StateSaboteur`).

Every fault is a frozen, ordered record so that campaign sweeps and
JSON reports are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional

from repro.elastic.behavioral import ElasticBuffer
from repro.elastic.channel import Channel
from repro.rtl.logic import lnot

#: RTL fault kinds: permanent stuck-ats and the transient bit-flip.
RTL_FAULT_KINDS = ("stuck0", "stuck1", "flip")

#: Behavioural wire-glitch kinds.  ``token_drop`` and ``spurious_anti``
#: are the protocol-meaningful aliases of the raw glitches on V+ / V−.
CHANNEL_FAULT_KINDS = (
    "token_drop",      # V+ 1 -> 0: an offered token vanishes
    "spurious_token",  # V+ 0 -> 1: a token appears out of thin air
    "spurious_anti",   # V- 0 -> 1: an anti-token appears out of thin air
    "anti_drop",       # V- 1 -> 0: an offered anti-token vanishes
    "glitch_sp",       # S+ inverted: handshake glitch on the stop wire
    "glitch_sn",       # S- inverted: dual handshake glitch
)

#: Buffer state-upset kinds.
BUFFER_FAULT_KINDS = (
    "token_dup",   # the head token is silently duplicated
    "token_loss",  # a stored token is silently discarded
)


@dataclass(frozen=True, order=True)
class Injection:
    """One RTL fault: a net, a kind, and an activity window.

    ``stuck0``/``stuck1`` force the net to a constant; ``flip`` inverts
    the fault-free value.  The fault is active from ``cycle`` for
    ``duration`` cycles (``None`` = until the end of the run, the usual
    choice for stuck-ats; flips default to single-cycle transients via
    :func:`transient_flip`).
    """

    net: str
    kind: str
    cycle: int = 0
    duration: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in RTL_FAULT_KINDS:
            raise ValueError(f"unknown RTL fault kind {self.kind!r}")
        if self.cycle < 0:
            raise ValueError("injection cycle must be >= 0")
        if self.duration is not None and self.duration < 1:
            raise ValueError("duration must be >= 1 (or None for permanent)")

    def active(self, time: int) -> bool:
        """Whether the fault corrupts the net during cycle ``time``."""
        if time < self.cycle:
            return False
        return self.duration is None or time < self.cycle + self.duration

    def label(self) -> str:
        window = "" if self.duration is None else f"+{self.duration}"
        return f"{self.kind}({self.net})@{self.cycle}{window}"


def transient_flip(net: str, cycle: int, duration: int = 1) -> Injection:
    """A single-event upset: invert ``net`` for ``duration`` cycles."""
    return Injection(net, "flip", cycle, duration)


# ----------------------------------------------------------------------
# Behavioural-layer faults
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class ChannelFault:
    """A wire glitch on one behavioural channel (see CHANNEL_FAULT_KINDS)."""

    channel: str
    kind: str
    cycle: int
    duration: int = 1

    def __post_init__(self) -> None:
        if self.kind not in CHANNEL_FAULT_KINDS:
            raise ValueError(f"unknown channel fault kind {self.kind!r}")
        if self.cycle < 0 or self.duration < 1:
            raise ValueError("need cycle >= 0 and duration >= 1")

    def active(self, time: int) -> bool:
        return self.cycle <= time < self.cycle + self.duration

    def label(self) -> str:
        return f"{self.kind}({self.channel})@{self.cycle}+{self.duration}"

    def apply(self, ch: Channel) -> bool:
        """Corrupt the settled wires; returns True if anything changed."""
        if self.kind == "token_drop":
            if ch.vp != 1:
                return False
            ch.force("vp", 0)
            ch.data = None
            return True
        if self.kind == "spurious_token":
            if ch.vp != 0:
                return False
            ch.force("vp", 1)
            return True
        if self.kind == "spurious_anti":
            if ch.vn != 0:
                return False
            ch.force("vn", 1)
            return True
        if self.kind == "anti_drop":
            if ch.vn != 1:
                return False
            ch.force("vn", 0)
            return True
        wire = self.kind.removeprefix("glitch_")
        current = getattr(ch, wire)
        flipped = lnot(current)
        ch.force(wire, flipped)
        return flipped != current


@dataclass(frozen=True, order=True)
class BufferFault:
    """A state upset inside a named behavioural elastic buffer."""

    buffer: str
    kind: str
    cycle: int

    def __post_init__(self) -> None:
        if self.kind not in BUFFER_FAULT_KINDS:
            raise ValueError(f"unknown buffer fault kind {self.kind!r}")

    def label(self) -> str:
        return f"{self.kind}({self.buffer})@{self.cycle}"

    def apply(self, buf: ElasticBuffer) -> bool:
        """Mutate the buffer state; returns True if anything changed.

        Either kind needs a stored token to act on.  A duplication that
        overflows the capacity is still injected -- the buffer's own
        occupancy-range check (the behavioural encoding monitor) is
        then expected to flag it.
        """
        if buf.count <= 0:
            return False
        if self.kind == "token_dup":
            buf.count += 1
            buf.data.append(buf.data[-1])
        else:  # token_loss
            buf.count -= 1
            buf.data.pop()
        return True


class WireSaboteur:
    """An :meth:`ElasticNetwork.add_saboteur` hook applying ChannelFaults."""

    def __init__(self, faults: Iterable[ChannelFault]) -> None:
        self.faults = sorted(faults)
        self.applied: List[ChannelFault] = []

    def __call__(self, cycle: int, channels: Mapping[str, Channel]) -> None:
        for fault in self.faults:
            if fault.active(cycle) and fault.apply(channels[fault.channel]):
                self.applied.append(fault)


class StateSaboteur:
    """An :meth:`ElasticNetwork.add_saboteur` hook applying BufferFaults.

    Runs post-settle (the wires already reflect the pre-fault state) and
    pre-commit, so the commit arithmetic applies this cycle's events on
    top of the upset state -- the cycle-level picture of an SEU in the
    occupancy latches.
    """

    def __init__(
        self, faults: Iterable[BufferFault], buffers: Mapping[str, ElasticBuffer]
    ) -> None:
        self.faults = sorted(faults)
        self.buffers = dict(buffers)
        self.applied: List[BufferFault] = []
        unknown = {f.buffer for f in self.faults} - set(self.buffers)
        if unknown:
            raise ValueError(f"unknown buffers: {sorted(unknown)}")

    def __call__(self, cycle: int, channels: Mapping[str, Channel]) -> None:
        for fault in self.faults:
            if fault.cycle == cycle and fault.apply(self.buffers[fault.buffer]):
                self.applied.append(fault)
