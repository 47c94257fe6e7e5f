"""Tests for the elasticization flow (behavioural and gate backends)."""

import random

import pytest

from repro.core.performance import fixed_latency
from repro.elastic.behavioral import (
    EagerFork,
    EarlyJoin,
    ElasticBuffer,
    Join,
    PassiveAntiToken,
    Pipe,
    Sink,
    Source,
    VariableLatency,
)
from repro.elastic.ee import MuxEE, ThresholdEE
from repro.rtl.area import constant_propagate, count_area, prune_dead
from repro.synthesis.elaborate import (
    control_layer_area,
    to_behavioral,
    to_gates,
)
from repro.synthesis.spec import SystemSpec
from repro.verif.ctl import AP
from repro.verif.properties import verify_netlist


def diamond_spec(early=False, passive=None, vl=False):
    spec = SystemSpec("dia")
    spec.add_source("P")
    spec.add_sink("C", p_stop=0.2)
    spec.add_block("FK", n_inputs=1, n_outputs=2)
    ee = ThresholdEE(1, 2) if early else None
    spec.add_block("JN", n_inputs=2, n_outputs=1, ee=ee,
                   gate_ee=(lambda nl, vps, datas: nl.OR(*vps)) if early else None)
    spec.add_register("RA")
    if vl:
        spec.add_block("VLU", latency=fixed_latency(2))
    spec.add_register("RB")
    spec.connect(spec.source("P"), spec.block_in("FK"))
    spec.connect(spec.block_out("FK", 0), spec.register_in("RA"))
    if vl:
        spec.connect(spec.block_out("FK", 1), spec.block_in("VLU"))
        spec.connect(spec.block_out("VLU"), spec.register_in("RB"))
    else:
        spec.connect(spec.block_out("FK", 1), spec.register_in("RB"))
    spec.connect(
        spec.register_out("RA"), spec.block_in("JN", 0),
        name="a", passive=(passive == "a"),
    )
    spec.connect(spec.register_out("RB"), spec.block_in("JN", 1), name="b")
    spec.connect(spec.block_out("JN"), spec.sink("C"), name="z")
    spec.validate()
    return spec


def fair_runs(elab):
    """The elaboration's fairness constraints as CTL atoms."""
    return [AP(sig, value) for sig, value in elab.fairness.items()]


class TestBehavioralBackend:
    def test_controller_kinds(self):
        net = to_behavioral(diamond_spec(early=True, vl=True))
        kinds = {type(c) for c in net.controllers}
        assert {Source, Sink, EagerFork, EarlyJoin, ElasticBuffer,
                VariableLatency} <= kinds

    def test_lazy_join_used_without_ee(self):
        net = to_behavioral(diamond_spec(early=False))
        assert any(isinstance(c, Join) for c in net.controllers)
        assert not any(isinstance(c, EarlyJoin) for c in net.controllers)

    def test_passive_connection_splits_channel(self):
        net = to_behavioral(diamond_spec(passive="a"))
        assert "a.up" in net.channels and "a" in net.channels
        assert any(isinstance(c, PassiveAntiToken) for c in net.controllers)

    def test_simulation_runs_protocol_clean(self):
        net = to_behavioral(diamond_spec(early=True), seed=3)
        net.run(300)  # monitors raise on any protocol violation
        ths = [c.stats.throughput for c in net.channels.values()]
        assert max(ths) - min(ths) < 0.05

    def test_single_in_single_out_block_is_pipe(self):
        spec = SystemSpec("p")
        spec.add_source("P")
        spec.add_sink("C")
        spec.add_block("F", func=lambda x: x + 1)
        spec.connect(spec.source("P"), spec.block_in("F"))
        spec.connect(spec.block_out("F"), spec.sink("C"))
        net = to_behavioral(spec)
        assert any(isinstance(c, Pipe) for c in net.controllers)

    def test_multi_in_multi_out_block_gets_join_and_fork(self):
        spec = SystemSpec("jf")
        spec.add_source("P1")
        spec.add_source("P2")
        spec.add_sink("C1")
        spec.add_sink("C2")
        spec.add_block("B", n_inputs=2, n_outputs=2)
        spec.connect(spec.source("P1"), spec.block_in("B", 0))
        spec.connect(spec.source("P2"), spec.block_in("B", 1))
        spec.connect(spec.block_out("B", 0), spec.sink("C1"))
        spec.connect(spec.block_out("B", 1), spec.sink("C2"))
        net = to_behavioral(spec)
        assert "B.j2f" in net.channels
        net.run(50)
        assert net.throughput("B.j2f") > 0.8

    def test_deterministic_given_seed(self):
        n1 = to_behavioral(diamond_spec(vl=True), seed=7)
        n2 = to_behavioral(diamond_spec(vl=True), seed=7)
        n1.run(200)
        n2.run(200)
        for name in n1.channels:
            assert (
                n1.channels[name].stats.positive
                == n2.channels[name].stats.positive
            )


class TestGateBackend:
    def test_netlist_validates(self):
        elab = to_gates(diamond_spec(early=True, vl=True))
        elab.netlist.validate()
        assert elab.fairness == {"P.choice": 1, "C.stall": 0, "VLU.done": 1}

    def test_area_mode_has_no_env_state(self):
        elab = to_gates(diamond_spec(), include_env=False)
        names = list(elab.netlist.flops) + list(elab.netlist.latches)
        assert not any(n.startswith(("P.", "C.")) for n in names)

    def test_model_checking_diamond(self):
        elab = to_gates(diamond_spec(), as_latches=False)
        res = verify_netlist(
            elab.netlist,
            list(elab.channels.values()),
            fairness=fair_runs(elab),
        )
        assert res.ok, res.failures()

    def test_fairness_polarity_decides_liveness(self):
        """Liveness holds under ``fairness`` (the test above), but a sink
        that may stall forever starves every channel: under the all-high
        fairness the SMV export used to write, it fails on all six."""
        elab = to_gates(diamond_spec(), as_latches=False)
        channels = list(elab.channels.values())
        all_high = [AP(sig, 1) for sig in elab.fairness]
        res = verify_netlist(elab.netlist, channels, fairness=all_high)
        assert len(channels) == 6
        assert res.failures() == [(ch.name, "liveness") for ch in channels]

    def test_model_checking_early_diamond_with_vl(self):
        elab = to_gates(diamond_spec(early=True, vl=True), as_latches=False)
        res = verify_netlist(
            elab.netlist,
            list(elab.channels.values()),
            fairness=fair_runs(elab),
            max_states=800_000,
        )
        assert res.ok, res.failures()

    def test_passive_interface_emitted(self):
        elab = to_gates(diamond_spec(passive="a"))
        assert "a.up" in elab.channels

    def test_data_wires_created(self):
        spec = diamond_spec()
        spec.connection("z").data_bits = 2
        elab = to_gates(spec)
        assert elab.data_wires["z"] == ["z.d0", "z.d1"]


class TestAreaPipeline:
    def test_lazy_diamond_has_no_negative_logic(self):
        report = control_layer_area(diamond_spec(early=False))
        # 2 EBs x 4 latches (no antis anywhere: sink never kills)
        assert report.latches == 8
        assert report.flops == 2  # fork pends only; join apends pruned

    def test_early_diamond_keeps_negative_logic(self):
        report = control_layer_area(diamond_spec(early=True))
        assert report.latches == 16  # both EBs dual
        assert report.flops == 4  # fork pends + EJ apends

    def test_passive_prunes_one_side(self):
        report = control_layer_area(diamond_spec(early=True, passive="a"))
        assert report.latches == 12  # RA single, RB dual

    def test_literal_ordering(self):
        lazy = control_layer_area(diamond_spec(early=False)).literals
        passive = control_layer_area(diamond_spec(early=True, passive="a")).literals
        active = control_layer_area(diamond_spec(early=True)).literals
        assert lazy < passive < active
