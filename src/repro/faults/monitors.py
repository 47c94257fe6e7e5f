"""What the online SELF monitors report, and where they look.

The fault-campaign monitors themselves are word-wide, in
:mod:`repro.faults.batch`: each checks one rule for every lane of the
compiled simulator at once.  Unlike
:class:`~repro.elastic.protocol.ProtocolMonitor` (which raises,
aborting the run), they *report*: each firing is a :class:`Violation`
naming the rule, where it broke and the cycle, so a campaign can record
which checker caught a fault and keep sweeping.  The rules:

* per dual channel ``{V+, S+, V−, S−}``: equation (2), ``V+ → ¬S−`` and
  ``V− → ¬S+`` every cycle, and Retry persistence (Retry+ keeps ``V+``
  asserted, Retry− keeps ``V−``: the ``(I*R*T)*`` language of Fig. 2
  and its dual);
* per dual elastic buffer (the Fig. 5 EB, located by an
  :class:`EbProbe`): the thermometer state encoding (``t1 ≤ t0``,
  ``a1 ≤ a0``), token/anti-token exclusion (``¬(t0 ∧ a0)``) and token
  conservation (the signed occupancy changes exactly by the previous
  cycle's boundary transfers and kills);
* against the fault-free run, which the campaign simulates as the top
  lane beside the faulty ones: every observed wire matches that golden
  lane cycle by cycle.

:func:`_bit` is the strict-bit reading every rule uses (X counts as
0); :meth:`EbProbe.occupancy` decodes the signed occupancy with it,
which is also how the performance profiler checks conservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.elastic.gates import GateChannel
from repro.rtl.logic import Value


@dataclass(frozen=True)
class Violation:
    """One monitor firing: which rule broke, where, and when."""

    cycle: int
    monitor: str
    detail: str

    def __str__(self) -> str:
        return f"cycle {self.cycle}: {self.monitor}: {self.detail}"


def _bit(values: Mapping[str, Value], sig: str) -> int:
    """Read a wire as a strict bit (X counts as 0)."""
    return 1 if values.get(sig) == 1 else 0


@dataclass(frozen=True)
class EbProbe:
    """Where to find one gate-level dual EB: state bits and boundaries."""

    prefix: str
    left: GateChannel
    right: GateChannel

    @property
    def state_bits(self) -> Sequence[str]:
        p = self.prefix
        return (f"{p}.t0", f"{p}.t1", f"{p}.a0", f"{p}.a1")

    def occupancy(self, values: Mapping[str, Value]) -> int:
        """Signed occupancy decoded from the thermometer state bits."""
        t0, t1, a0, a1 = (_bit(values, s) for s in self.state_bits)
        return (t0 + t1) - (a0 + a1)
