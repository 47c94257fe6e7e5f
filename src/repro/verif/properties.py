"""The paper's CTL channel properties (Sect. 5).

For every channel with wires ``{V+, S+, V−, S−}`` the paper checks::

    AG ((V+ & S+) -> AX V+)                  (Retry+)
    AG ((V- & S-) -> AX V-)                  (Retry-)
    AG (!(V- & S+) & !(V+ & S-))             (Invariant (2))
    AG AF ((V+ & !S+) | (V- & !S-))          (Liveness)

The first two enforce persistence -- any violation would allow a trace
outside ``(I* R* T)*``; the third is the dual-channel invariant; the
fourth states that every channel eventually sees a token or anti-token
move.  Liveness is checked under fairness constraints on the
environment (stalling consumers must eventually accept), mirroring
NuSMV ``FAIRNESS`` declarations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.elastic.gates import GateChannel
from repro.rtl.netlist import Netlist
from repro.verif.ctl import AF, AG, AP, AX, And, Formula, Implies, ModelChecker, Not, Or
from repro.verif.kripke import KripkeStructure, build_kripke


def observed_signals(
    netlist: Netlist, channels: Sequence[GateChannel]
) -> List[str]:
    """The signals a gate-level channel check observes, in word order.

    Every channel's wires, channel by channel, then the netlist inputs
    (fairness constraints range over environment choices), then the
    declared outputs; a repeated signal keeps its first place.  The
    order fixes the Kripke words and the Kripke cache key.
    """
    wires = [w for ch in channels for w in ch.wires()]
    return list(dict.fromkeys([*wires, *netlist.inputs, *netlist.outputs]))


def channel_properties(ch: GateChannel) -> Dict[str, Formula]:
    """The four CTL properties for one channel."""
    vp, sp, vn, sn = AP(ch.vp), AP(ch.sp), AP(ch.vn), AP(ch.sn)
    return {
        "retry_pos": AG(Implies(And(vp, sp), AX(vp))),
        "retry_neg": AG(Implies(And(vn, sn), AX(vn))),
        "invariant": AG(And(Not(And(vn, sp)), Not(And(vp, sn)))),
        "liveness": AG(AF(Or(And(vp, Not(sp)), And(vn, Not(sn))))),
    }


@dataclass
class VerificationResult:
    """Outcome of checking the four properties on every channel."""

    states: int
    results: Dict[Tuple[str, str], bool]

    @property
    def ok(self) -> bool:
        return all(self.results.values())

    def failures(self) -> List[Tuple[str, str]]:
        return [key for key, holds in self.results.items() if not holds]

    def __str__(self) -> str:
        status = "PASS" if self.ok else f"FAIL {self.failures()}"
        return f"{len(self.results)} properties over {self.states} states: {status}"


def verify_channel_properties(
    kripke: KripkeStructure,
    channels: Sequence[GateChannel],
    fairness: Sequence[Formula] = (),
    include_liveness: bool = True,
) -> VerificationResult:
    """Check the four paper properties on each channel of ``kripke``."""
    checker = ModelChecker(kripke, fairness)
    results: Dict[Tuple[str, str], bool] = {}
    for ch in channels:
        for prop_name, formula in channel_properties(ch).items():
            if prop_name == "liveness" and not include_liveness:
                continue
            results[(ch.name, prop_name)] = checker.holds(formula)
    return VerificationResult(states=len(kripke), results=results)


def verify_netlist(
    netlist: Netlist,
    channels: Sequence[GateChannel],
    fairness: Sequence[Formula] = (),
    include_liveness: bool = True,
    max_states: int = 500_000,
    checkpoint: Optional[str] = None,
    cache=None,
) -> VerificationResult:
    """Build the Kripke structure of ``netlist`` and verify its channels.

    The structure observes :func:`observed_signals`.  ``checkpoint``
    and ``cache`` are forwarded to
    :func:`~repro.verif.kripke.build_kripke`: the former makes an
    interrupted state-space build resumable, the latter serves repeat
    explorations from the content-addressed build cache.
    """
    kripke = build_kripke(
        netlist, observe=observed_signals(netlist, channels),
        max_states=max_states, checkpoint=checkpoint, cache=cache,
    )
    return verify_channel_properties(
        kripke, channels, fairness=fairness, include_liveness=include_liveness
    )
