"""Fault models: RTL injections, channel glitches, buffer upsets."""

import random

import pytest

from repro.elastic.behavioral import (
    ElasticBuffer,
    ElasticNetwork,
    Sink,
    Source,
)
from repro.elastic.channel import Channel
from repro.elastic.protocol import ProtocolViolation
from repro.faults.models import (
    BufferFault,
    ChannelFault,
    Injection,
    StateSaboteur,
    WireSaboteur,
    transient_flip,
)
from repro.rtl.netlist import Netlist
from repro.rtl.simulator import TwoPhaseSimulator
from tests.faults.scalar_reference import RtlFaultInjector, fault_override


def tiny_netlist():
    """a -> flop -> y, one cycle of latency."""
    nl = Netlist("tiny")
    a = nl.add_input("a")
    q = nl.add_flop("q_d", q="q", init=0)
    nl.BUF(a, out="q_d")
    nl.BUF(q, out="y")
    nl.add_output("y")
    return nl


class TestInjection:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Injection("n", "bridge")

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            Injection("n", "stuck0", cycle=-1)
        with pytest.raises(ValueError):
            Injection("n", "flip", cycle=0, duration=0)

    def test_permanent_window(self):
        inj = Injection("n", "stuck1", cycle=3)
        assert not inj.active(2)
        assert inj.active(3)
        assert inj.active(1000)

    def test_transient_window(self):
        inj = transient_flip("n", cycle=5, duration=2)
        assert [t for t in range(10) if inj.active(t)] == [5, 6]

    def test_overrides(self):
        # The scalar reference's net overrides.
        assert fault_override(Injection("n", "stuck0")) == 0
        assert fault_override(Injection("n", "stuck1")) == 1
        flip = fault_override(Injection("n", "flip", duration=1))
        assert callable(flip) and flip(0) == 1 and flip(1) == 0

    def test_labels_are_unique_per_fault(self):
        labels = {
            Injection("n", k, c).label()
            for k in ("stuck0", "stuck1")
            for c in (0, 1)
        }
        assert len(labels) == 4


class TestRtlFaultInjector:
    """The scalar reference injector of ``tests/faults/scalar_reference``."""

    def test_rejects_unknown_net(self):
        sim = TwoPhaseSimulator(tiny_netlist())
        with pytest.raises(ValueError):
            RtlFaultInjector(sim, [Injection("nope", "stuck0")])

    def test_fault_free_passthrough(self):
        inj = RtlFaultInjector(TwoPhaseSimulator(tiny_netlist()))
        assert inj.cycle({"a": 1})["y"] == 0
        assert inj.cycle({"a": 0})["y"] == 1
        assert inj.cycle({"a": 0})["y"] == 0

    def test_stuck_at_forces_net(self):
        inj = RtlFaultInjector(
            TwoPhaseSimulator(tiny_netlist()), [Injection("y", "stuck1")]
        )
        assert all(inj.cycle({"a": 0})["y"] == 1 for _ in range(4))

    def test_flop_recovers_after_transient(self):
        # Flip the flop's visible q for one cycle: the sampled d is
        # unaffected, so the output must recover the cycle after.
        inj = RtlFaultInjector(
            TwoPhaseSimulator(tiny_netlist()), [transient_flip("q", cycle=2)]
        )
        outs = [inj.cycle({"a": 1})["y"] for _ in range(5)]
        assert outs == [0, 1, 0, 1, 1]

    def test_reset_replaces_schedule(self):
        injector = RtlFaultInjector(
            TwoPhaseSimulator(tiny_netlist()), [Injection("y", "stuck1")]
        )
        injector.cycle({"a": 0})
        injector.reset([])
        assert injector.sim.time == 0
        assert injector.cycle({"a": 0})["y"] == 0


class TestChannelFault:
    def settled_channel(self, vp=0, sp=0, vn=0, sn=0, data=None):
        ch = Channel("c", monitor=False)
        ch.drive_producer(vp, sn)
        ch.drive_consumer(sp, vn)
        if data is not None:
            ch.put_data(data)
        return ch

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ChannelFault("c", "emp", 0)

    def test_token_drop_needs_a_token(self):
        fault = ChannelFault("c", "token_drop", 0)
        assert not fault.apply(self.settled_channel(vp=0))
        ch = self.settled_channel(vp=1, data=7)
        assert fault.apply(ch)
        assert ch.vp == 0 and ch.data is None

    def test_spurious_token_and_anti(self):
        ch = self.settled_channel()
        assert ChannelFault("c", "spurious_token", 0).apply(ch)
        assert ch.vp == 1
        assert ChannelFault("c", "spurious_anti", 0).apply(ch)
        assert ch.vn == 1

    def test_handshake_glitches_invert(self):
        ch = self.settled_channel(sp=1, sn=0)
        assert ChannelFault("c", "glitch_sp", 0).apply(ch)
        assert ch.sp == 0
        assert ChannelFault("c", "glitch_sn", 0).apply(ch)
        assert ch.sn == 1


class TestBufferFault:
    def buffered(self, tokens):
        left, right = Channel("l", monitor=False), Channel("r", monitor=False)
        return ElasticBuffer(
            "b", left, right, capacity=2, initial_tokens=tokens,
            initial_data=list(range(tokens)),
        )

    def test_dup_and_loss(self):
        buf = self.buffered(1)
        assert BufferFault("b", "token_dup", 0).apply(buf)
        assert buf.count == 2 and buf.data == [0, 0]
        assert BufferFault("b", "token_loss", 0).apply(buf)
        assert buf.count == 1

    def test_empty_buffer_does_not_arm(self):
        buf = self.buffered(0)
        assert not BufferFault("b", "token_dup", 0).apply(buf)
        assert not BufferFault("b", "token_loss", 0).apply(buf)


def source_sink_network(seed=3, p_stop=0.0):
    net = ElasticNetwork("n")
    a, b = net.add_channel("a"), net.add_channel("b")
    net.add(Source("src", a, rng=random.Random(seed)))
    net.add(ElasticBuffer("eb", a, b))
    sink = Sink("snk", b, p_stop=p_stop, rng=random.Random(seed + 1))
    net.add(sink)
    return net, sink


class TestSaboteurs:
    def test_wire_saboteur_delays_the_stream(self):
        golden_net, golden_sink = source_sink_network()
        golden_net.run(40)
        net, sink = source_sink_network()
        saboteur = WireSaboteur([ChannelFault("b", "token_drop", 10)])
        net.add_saboteur(saboteur)
        net.run(40)
        assert saboteur.applied
        assert len(sink.received) < len(golden_sink.received)
        # No data corruption, only delay: the received prefix matches.
        assert golden_sink.received[: len(sink.received)] == sink.received

    def test_state_saboteur_overflow_is_flagged(self):
        # Stall the sink so the EB is full, then duplicate: the
        # buffer's own occupancy-range check must trip.
        net, _ = source_sink_network(p_stop=1.0)
        saboteur = StateSaboteur(
            [BufferFault("eb", "token_dup", 20)], {"eb": net.controllers[1]}
        )
        net.add_saboteur(saboteur)
        with pytest.raises(ProtocolViolation):
            net.run(40)
        assert saboteur.applied

    def test_state_saboteur_rejects_unknown_buffer(self):
        with pytest.raises(ValueError):
            StateSaboteur([BufferFault("ghost", "token_loss", 0)], {})
