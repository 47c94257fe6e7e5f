"""Batched gate-vs-behavioural cross-checking, one seed per lane.

``BatchedCrossCheck`` runs 64 seeded ``ControllerCrossCheck`` harnesses
against one lane-parallel gate twin, so a 64-seed check costs about a
tenth of 64 scalar runs.  It must be a pure accelerator of the scalar
harness: a clean controller passes every seed, and a planted divergence
raises a mismatch that replays *verbatim* -- same cycle, wire, values
and seed -- on the scalar harness.
"""

from typing import Dict, List, Sequence, Tuple

import pytest

from repro.codegen.sim import CompiledSimulator
from repro.elastic.behavioral import EarlyJoin, ElasticBuffer
from repro.elastic.channel import Channel
from repro.elastic.crosscheck import ControllerCrossCheck, CrossCheckMismatch
from repro.elastic.ee import ThresholdEE
from repro.elastic.gates import (
    GateChannel,
    build_elastic_buffer,
    build_join,
)
from repro.rtl.netlist import Netlist

CYCLES = 300


class BatchedCrossCheck:
    """Many seeded cross-checks against one bit-parallel gate twin.

    ``factory(seed)`` must build a fresh :class:`ControllerCrossCheck`
    (its own behavioural network and environments); each one becomes a
    lane of a shared ``CompiledSimulator`` restricted to the compared
    wires, so the gate netlist is evaluated word-parallel across every
    seed while the behavioural replicas advance scalar, in lock-step.
    Because lane environments draw from
    ``random.Random(f"{seed}:{channel}")`` exactly like the scalar
    harness, any mismatch -- reported with the offending lane's seed --
    replays verbatim on a plain ``factory(seed).run(...)``.
    """

    def __init__(self, factory, seeds: Sequence[int]):
        seeds = list(seeds)
        if not 1 <= len(seeds) <= 64:
            raise ValueError("need between 1 and 64 seeds per batch")
        self.seeds = seeds
        #: One scalar harness per lane; only its behavioural half runs.
        self.harnesses: List[ControllerCrossCheck] = [
            factory(seed) for seed in seeds
        ]
        self.netlist = self.harnesses[0].netlist
        # Comparison plan per lane: the controller-driven gate wires and
        # the behavioural channel each must be read from, pre-resolved
        # to plane-array slots once the simulator exists.
        plans: List[List[Tuple[Channel, str, str]]] = []
        for harness in self.harnesses:
            plan: List[Tuple[Channel, str, str]] = []
            for ch, gch, ctrl_role in harness.triples:
                if ctrl_role == "producer":
                    wires = (("vp", gch.vp), ("sn", gch.sn))
                else:
                    wires = (("sp", gch.sp), ("vn", gch.vn))
                plan.extend((ch, attr, wire) for attr, wire in wires)
            plans.append(plan)
        self.sim = CompiledSimulator(
            self.netlist, lanes=len(seeds), hooks=frozenset(),
            observe=frozenset(w for plan in plans for _, _, w in plan),
        )
        self._compare: List[List[Tuple[Channel, str, str, int]]] = [
            [(ch, attr, wire, self.sim.slot(wire)) for ch, attr, wire in plan]
            for plan in plans
        ]
        self.cycle = 0

    def step(self) -> None:
        """One lock-step cycle of every lane; raises on disagreement."""
        packed: Dict[str, List[int]] = {}
        for lane, harness in enumerate(self.harnesses):
            choices = [env.choose() for env in harness.envs]
            for end, choice in zip(harness.ends, choices):
                end.set(*choice)
            harness.net.step()
            bit = 1 << lane
            for name, value in harness._gate_inputs(choices).items():
                vk = packed.setdefault(name, [0, 0])
                vk[1] |= bit
                if value:
                    vk[0] |= bit
        self.sim.cycle({name: (vk[0], vk[1]) for name, vk in packed.items()})

        v, k = self.sim.value_planes, self.sim.known_planes
        for lane, (harness, plan) in enumerate(
            zip(self.harnesses, self._compare)
        ):
            bit = 1 << lane
            for ch, attr, wire, slot in plan:
                want = getattr(ch, attr)
                got = (1 if v[slot] & bit else 0) if k[slot] & bit else None
                if got != want:
                    raise CrossCheckMismatch(
                        self.cycle, wire, want,
                        self.sim.lane_value(wire, lane),
                        seed=harness.seed,
                    )
            for env, (ch, _, _) in zip(harness.envs, harness.triples):
                env.observe(ch.vp, ch.sp, ch.vn, ch.sn)
            harness.cycle += 1
        self.cycle += 1

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()


def declare_env_channel(nl: Netlist, name: str, env_side: str) -> GateChannel:
    g = GateChannel.declare(nl, name)
    if env_side == "producer":
        nl.add_input(g.vp)
        nl.add_input(g.sn)
    else:
        nl.add_input(g.sp)
        nl.add_input(g.vn)
    return g


def buffer_factory(tokens_gate, tokens_behavioral):
    def factory(seed):
        nl = Netlist("eb")
        gl = declare_env_channel(nl, "L", "producer")
        gr = declare_env_channel(nl, "R", "consumer")
        build_elastic_buffer(nl, gl, gr, prefix="eb",
                             initial_tokens=tokens_gate)
        nl.validate()
        L, R = Channel("L", monitor=False), Channel("R", monitor=False)
        eb = ElasticBuffer("eb", L, R, initial_tokens=tokens_behavioral)
        return ControllerCrossCheck(
            eb, [(L, gl, "consumer"), (R, gr, "producer")], nl, seed=seed
        )

    return factory


@pytest.mark.parametrize("tokens", [0, 1, 2])
def test_elastic_buffer_64_seeds(tokens):
    BatchedCrossCheck(buffer_factory(tokens, tokens), range(64)).run(CYCLES)


def test_early_join_64_seeds():
    def factory(seed):
        nl = Netlist("ej")
        gins = [declare_env_channel(nl, f"I{k}", "producer") for k in range(2)]
        gz = declare_env_channel(nl, "Z", "consumer")
        build_join(nl, gins, gz, prefix="ej",
                   ee=lambda nl, vps, datas: nl.OR(*vps), datas=[(), ()])
        ins = [Channel(f"I{k}", monitor=False) for k in range(2)]
        z = Channel("Z", monitor=False)
        join = EarlyJoin("ej", ins, z, ThresholdEE(1, 2))
        triples = [(ch, g, "consumer") for ch, g in zip(ins, gins)]
        triples.append((z, gz, "producer"))
        return ControllerCrossCheck(join, triples, nl, seed=seed)

    BatchedCrossCheck(factory, range(64)).run(CYCLES)


def test_mismatch_replays_on_scalar_harness():
    # gate twin seeded with a token the behavioural model doesn't have
    factory = buffer_factory(0, 1)
    with pytest.raises(CrossCheckMismatch) as batched:
        BatchedCrossCheck(factory, range(64)).run(CYCLES)
    e = batched.value
    with pytest.raises(CrossCheckMismatch) as scalar:
        factory(e.seed).run(CYCLES)
    s = scalar.value
    assert (e.cycle, e.wire, e.behavioral, e.gate, e.seed) == (
        s.cycle, s.wire, s.behavioral, s.gate, s.seed
    )


def test_seed_count_bounds():
    factory = buffer_factory(1, 1)
    with pytest.raises(ValueError):
        BatchedCrossCheck(factory, [])
    with pytest.raises(ValueError):
        BatchedCrossCheck(factory, range(65))
