"""Deliberately broken controllers: seeded bugs the oracle must catch.

Each mutation patches an elaborated behavioural network in place and
returns how many controllers it broke.  Mutations are registered by
name in :data:`MUTATIONS` so corpus entries can record which bug they
reproduce and replay it later.

:func:`break_early_join` plants the classic early-join arbiter bug:
the I gate of Fig. 6(c) drives ``S+ = not fire and not V-`` on every
input channel -- the ``not V-`` term is exactly what keeps invariant
(2) (``never V- and S+``) when a pending anti-token waits on an input.
The broken arbiter drops that term, so the first early firing with a
missing operand leaves an anti-token whose ``V-`` collides with the
(now unconditional) stall -- which the channel's raising
:class:`~repro.elastic.protocol.ProtocolMonitor` reports the next
cycle.  The oracle flags it in the **behavioral** stage, and spec-level
shrinking reduces any large host network to essentially the one early
join plus its environment.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.elastic.behavioral import _NO_HELD_DATA, EarlyJoin, ElasticNetwork
from repro.rtl.logic import land2, landn2, lnot, lor2

__all__ = ["MUTATIONS", "BrokenEarlyJoin", "break_early_join"]


class BrokenEarlyJoin(EarlyJoin):
    """An early join whose I gate forgets the pending-anti-token guard."""

    def evaluate(self) -> bool:
        out = self.output
        full = 1 if max(self.apend, default=0) >= self.anti_capacity else 0

        valids, datas = self._ee_inputs()
        vp_out = 0 if full else land2(self.ee.evaluate(valids, datas), 1)
        changed = out.drive_producer(vp_out, full)
        if vp_out == 1:
            if self._held_data is not _NO_HELD_DATA:
                changed |= out.put_data(self._held_data)
            else:
                changed |= out.put_data(self.ee.output_data(valids, datas))

        fire = landn2(vp_out, out.sp)
        forked = 0 if full else landn2(out.vn, vp_out)
        for ch, pend, valid in zip(self.inputs, self.apend, valids):
            vn_i = 1 if pend else lor2(landn2(fire, valid), forked)
            # BUG: the correct I gate is ``not fire and not vn_i``; the
            # missing guard asserts S+ while V- is pending.
            changed |= ch.drive_consumer(lnot(fire), vn_i)
        return changed


def break_early_join(net: ElasticNetwork) -> int:
    """Swap every :class:`EarlyJoin` for the broken arbiter variant."""
    broken = 0
    for ctrl in net.controllers:
        if type(ctrl) is EarlyJoin:
            ctrl.__class__ = BrokenEarlyJoin
            broken += 1
    return broken


#: Registered mutations, by the name corpus entries record.
MUTATIONS: Dict[str, Callable[[ElasticNetwork], int]] = {
    "broken-early-join": break_early_join,
}
