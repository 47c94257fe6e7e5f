"""Data-correctness verification: the Fig. 8(b) set-up.

Producers inject an alternating trace of 0's and 1's into an acyclic
netlist of elastic controllers; consumers non-deterministically accept
the incoming data or emit anti-tokens that cancel data inside the
netlist.  Because every node of a (D)MG fires the same number of times
over a repetitive run, the k-th token on *every* channel carries the
value ``k mod 2``; a consumer therefore checks that its k-th
consumption event -- a transfer, a kill at its interface, or an
anti-token it sent into the netlist -- is consistent with that parity.

Joins additionally act as the paper's non-deterministic merges: they
verify that all simultaneously consumed operands carry equal values
(the behavioural analogue of "the merge produces a non-deterministic
value on mismatch", which the alternating check would then catch).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.elastic.behavioral import (
    EagerFork,
    EarlyJoin,
    ElasticBuffer,
    ElasticNetwork,
    Join,
    Sink,
    Source,
)
from repro.elastic.channel import Channel
from repro.elastic.ee import ThresholdEE


class DataMismatch(AssertionError):
    """A consumer observed a value inconsistent with the alternating trace."""


def merge_equal(values: Sequence[object]) -> object:
    """Join combine function: all operands must agree (Fig. 8(b) merge)."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    first = present[0]
    for v in present[1:]:
        if v != first:
            raise DataMismatch(f"merge saw disagreeing operands {present}")
    return first


class _MergeEE(ThresholdEE):
    """Threshold EE whose output data is the (checked) merged value."""

    def output_data(self, valids, datas):  # noqa: D102 - see base class
        return merge_equal([d for v, d in zip(valids, datas) if v == 1])


class AlternatingChecker(Sink):
    """A killing consumer that verifies the alternating 0/1 invariant.

    Each consumption event advances the expected parity:

    * positive transfer -- the received value must equal the parity;
    * kill at the interface -- the annihilated value is visible and
      checked too;
    * negative transfer (anti-token sent into the netlist) -- it will
      annihilate exactly the next in-flight token, whose value is not
      observable; the parity still advances.
    """

    def __init__(
        self,
        name: str,
        input: Channel,
        p_stop: float = 0.2,
        p_kill: float = 0.2,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(name, input, p_stop=p_stop, p_kill=p_kill, rng=rng)
        self.events = 0
        self.checked = 0

    def commit(self) -> None:
        ch = self.input
        expected = self.events % 2
        if ch.pos_transfer or ch.kill:
            value = ch.data
            if value is not None and value != expected:
                raise DataMismatch(
                    f"{self.name}: event {self.events} saw {value}, "
                    f"expected {expected}"
                )
            self.checked += 1
            self.events += 1
        elif ch.neg_transfer:
            self.events += 1
        super().commit()


def alternating_source(name: str, output: Channel, **kwargs) -> Source:
    """A producer emitting 0, 1, 0, 1, ..."""
    return Source(name, output, data_fn=lambda n: n % 2, **kwargs)


@dataclass
class HarnessReport:
    """Outcome of a data-correctness run."""

    cycles: int
    consumed: int
    checked: int
    kills: int

    def __str__(self) -> str:
        return (
            f"{self.cycles} cycles, {self.consumed} consumption events "
            f"({self.checked} value-checked), {self.kills} anti-tokens sent"
        )


class DataCorrectnessHarness:
    """Run a network with alternating producers and checking consumers."""

    def __init__(self, network: ElasticNetwork):
        self.network = network
        self.checkers = [
            c for c in network.controllers if isinstance(c, AlternatingChecker)
        ]
        if not self.checkers:
            raise ValueError("network has no AlternatingChecker consumers")

    def run(self, cycles: int) -> HarnessReport:
        """Simulate; raises :class:`DataMismatch` on any violation."""
        self.network.run(cycles)
        return HarnessReport(
            cycles=cycles,
            consumed=sum(c.events for c in self.checkers),
            checked=sum(c.checked for c in self.checkers),
            kills=sum(c.kills_sent for c in self.checkers),
        )


def random_acyclic_network(
    seed: int,
    n_sources: int = 2,
    n_layers: int = 3,
    p_stop: float = 0.2,
    p_kill: float = 0.25,
    early_joins: bool = True,
) -> ElasticNetwork:
    """Generate a random acyclic netlist in the style of Fig. 8(b).

    Starting from ``n_sources`` alternating producers, each layer
    randomly buffers channels, forks one channel, or joins two channels
    (with a lazy join or, when ``early_joins``, an early join acting as
    a merge).  Every surviving channel ends in an
    :class:`AlternatingChecker` consumer.  The netlist is acyclic and
    initially holds no valid data, as in the paper's set-up.
    """
    rng = random.Random(seed)
    net = ElasticNetwork(f"fig8b[{seed}]")
    counter = [0]

    def fresh(kind: str) -> Channel:
        counter[0] += 1
        return net.add_channel(f"{kind}{counter[0]}")

    live: List[Channel] = []
    for i in range(n_sources):
        ch = fresh("src")
        net.add(alternating_source(f"P{i}", ch, rng=random.Random(seed * 31 + i)))
        live.append(ch)

    for layer in range(n_layers):
        action = rng.choice(["buffer", "fork", "join", "buffer"])
        if action == "join" and len(live) >= 2:
            a = live.pop(rng.randrange(len(live)))
            b = live.pop(rng.randrange(len(live)))
            out = fresh("j")
            if early_joins and rng.random() < 0.5:
                ee = _MergeEE(k=1, arity=2)
                net.add(EarlyJoin(f"EJ{layer}", [a, b], out, ee))
            else:
                net.add(Join(f"J{layer}", [a, b], out, combine=merge_equal))
            live.append(out)
        elif action == "fork":
            src = live.pop(rng.randrange(len(live)))
            outs = [fresh("f"), fresh("f")]
            net.add(EagerFork(f"F{layer}", src, outs))
            live.extend(outs)
        else:
            idx = rng.randrange(len(live))
            src = live[idx]
            out = fresh("b")
            net.add(ElasticBuffer(f"B{layer}", src, out))
            live[idx] = out

    for i, ch in enumerate(live):
        # A buffer in front of each consumer decouples its kills.
        out = fresh("sink")
        net.add(ElasticBuffer(f"BS{i}", ch, out))
        net.add(
            AlternatingChecker(
                f"C{i}",
                out,
                p_stop=p_stop,
                p_kill=p_kill,
                rng=random.Random(seed * 77 + i),
            )
        )
    return net
