"""Cross-checking the gate-level and behavioural controller layers.

The gate netlists of :mod:`repro.elastic.gates` are meant to be exact
transcriptions of the behavioural controllers.  This module drives both
implementations of one controller with an *identical*, randomly chosen
but protocol-legal environment and compares every controller-driven
channel wire cycle by cycle.

The environment respects the SELF rules on each channel side it plays:

* producer side (drives ``V+``/``S−``): persistence of a retried token,
  and the invariant ``V+ -> not S−``;
* consumer side (drives ``S+``/``V−``): persistence of a retried
  anti-token, and the invariant ``V− -> not S+``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.elastic.behavioral import Controller, ElasticNetwork
from repro.elastic.channel import Channel
from repro.elastic.gates import GateChannel
from repro.rtl.netlist import Netlist
from repro.rtl.simulator import TwoPhaseSimulator


class ScriptedEnd(Controller):
    """Drives one side of a channel with externally provided values."""

    def __init__(self, name: str, channel: Channel, side: str):
        super().__init__(name)
        if side not in ("producer", "consumer"):
            raise ValueError("side must be 'producer' or 'consumer'")
        self.channel = channel
        self.side = side
        self.values: Tuple[int, int] = (0, 0)
        self.data: object = None

    def channels(self) -> Sequence[Channel]:
        return (self.channel,)

    def set(self, a: int, b: int, data: object = None) -> None:
        """Producer: (vp, sn).  Consumer: (sp, vn)."""
        self.values = (a, b)
        self.data = data

    def evaluate(self) -> bool:
        ch = self.channel
        a, b = self.values
        if self.side == "producer":
            changed = ch.drive_vp(a)
            if a:
                ch.put_data(self.data)
            changed |= ch.drive_sn(b)
        else:
            changed = ch.drive_sp(a)
            changed |= ch.drive_vn(b)
        return changed


@dataclass
class _EnvSide:
    """Protocol-legal random wire generator for one channel side."""

    side: str  # which side the *environment* plays
    rng: random.Random
    p_valid: float = 0.6
    p_stop: float = 0.3
    p_kill: float = 0.25
    pend_pos: bool = False
    pend_neg: bool = False

    def choose(self) -> Tuple[int, int]:
        """Values for this cycle: producer (vp, sn) / consumer (sp, vn)."""
        if self.side == "producer":
            vp = 1 if (self.pend_pos or self.rng.random() < self.p_valid) else 0
            sn = 0 if vp else (1 if self.rng.random() < self.p_stop else 0)
            return vp, sn
        vn = 1 if (self.pend_neg or self.rng.random() < self.p_kill) else 0
        sp = 0 if vn else (1 if self.rng.random() < self.p_stop else 0)
        return sp, vn

    def observe(self, vp: int, sp: int, vn: int, sn: int) -> None:
        """Update persistence obligations from the settled channel."""
        if self.side == "producer":
            self.pend_pos = bool(vp and sp and not vn)
        else:
            self.pend_neg = bool(vn and sn and not vp)


@dataclass
class CrossCheckMismatch(AssertionError):
    """The two layers disagreed on a wire value.

    Carries the run's ``seed`` so any reported mismatch can be replayed
    verbatim: the same seed regenerates the same environment choices.
    """

    cycle: int
    wire: str
    behavioral: int
    gate: object
    seed: int = 0

    def __str__(self) -> str:
        return (
            f"cycle {self.cycle}: wire {self.wire} behavioral="
            f"{self.behavioral} gate={self.gate!r} (replay with seed="
            f"{self.seed})"
        )


class ControllerCrossCheck:
    """Drive a behavioural controller and its gate twin in lock-step.

    Args:
        controller: the behavioural controller under test; its channels
            must all belong to ``channels``.
        channels: behavioural channels, each paired with the gate-level
            channel of the same index and a role: which *two* wires of
            that channel the controller drives (``"producer"``,
            ``"consumer"`` or ``"both"`` for internal use).
        netlist: the gate netlist containing the twin; environment-side
            wires of every channel must be primary inputs.
    """

    def __init__(
        self,
        controller: Controller,
        channels: Sequence[Tuple[Channel, GateChannel, str]],
        netlist: Netlist,
        seed: int = 0,
        p_kill: float = 0.25,
    ):
        self.controller = controller
        self.netlist = netlist
        #: The seed reproducing this exact run (quoted in mismatches).
        self.seed = seed
        self.sim = TwoPhaseSimulator(netlist)
        self.net = ElasticNetwork("crosscheck")
        self.triples = list(channels)
        self.envs: List[_EnvSide] = []
        self.ends: List[ScriptedEnd] = []

        for ch, gch, ctrl_role in self.triples:
            if self.net.channels.get(ch.name) is not ch:
                self.net.channels[ch.name] = ch
            env_role = "consumer" if ctrl_role == "producer" else "producer"
            # Derive each channel's stream from (seed, channel name), so
            # a given channel sees identical stimulus regardless of how
            # many other channels the harness happens to wrap.
            env = _EnvSide(side=env_role,
                           rng=random.Random(f"{seed}:{ch.name}"))
            if env_role == "consumer":
                env.p_kill = p_kill
            end = ScriptedEnd(f"env.{ch.name}", ch, env_role)
            self.envs.append(env)
            self.ends.append(end)
            self.net.add(end)
        self.net.add(controller)
        self.cycle = 0

    def _gate_inputs(self, choices: List[Tuple[int, int]]) -> Dict[str, int]:
        inputs: Dict[str, int] = {}
        for (ch, gch, ctrl_role), (a, b) in zip(self.triples, choices):
            if ctrl_role == "producer":  # env is consumer: drives sp, vn
                inputs[gch.sp] = a
                inputs[gch.vn] = b
            else:  # env is producer: drives vp, sn
                inputs[gch.vp] = a
                inputs[gch.sn] = b
        return inputs

    def step(self) -> None:
        """One lock-step cycle; raises on any wire disagreement."""
        choices = [env.choose() for env in self.envs]
        for end, choice in zip(self.ends, choices):
            end.set(*choice)
        self.net.step()
        gate_values = self.sim.cycle(self._gate_inputs(choices))

        for ch, gch, ctrl_role in self.triples:
            if ctrl_role == "producer":
                pairs = [(ch.vp, gch.vp), (ch.sn, gch.sn)]
            else:
                pairs = [(ch.sp, gch.sp), (ch.vn, gch.vn)]
            for want, wire in pairs:
                got = gate_values.get(wire)
                if got != want:
                    raise CrossCheckMismatch(
                        self.cycle, wire, want, got, seed=self.seed
                    )
        for env, (ch, _, _) in zip(self.envs, self.triples):
            env.observe(ch.vp, ch.sp, ch.vn, ch.sn)
        self.cycle += 1

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()
