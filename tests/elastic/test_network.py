"""Integration tests for the elastic network simulator."""

import random

import pytest

from repro.casestudy.fig9 import Config, build_fig9_spec
from repro.elastic.behavioral import (
    Controller,
    EagerFork,
    ElasticBuffer,
    ElasticNetwork,
    Join,
    Sink,
    Source,
)
from repro.elastic.protocol import ProtocolViolation
from repro.synthesis.elaborate import to_behavioral


def pipeline(stages, p_stop=0.0, p_kill=0.0, seed=0):
    net = ElasticNetwork("pipe")
    chans = [net.add_channel(f"c{i}") for i in range(stages + 1)]
    net.add(Source("src", chans[0], rng=random.Random(seed)))
    for i in range(stages):
        net.add(ElasticBuffer(f"eb{i}", chans[i], chans[i + 1],
                              initial_tokens=1 if i == 0 else 0, initial_data=[-1] if i == 0 else None))
    sink = Sink("sink", chans[-1], p_stop=p_stop, p_kill=p_kill,
                rng=random.Random(seed + 1))
    net.add(sink)
    return net, sink


class TestRegistration:
    def test_duplicate_channel_rejected(self):
        net = ElasticNetwork()
        net.add_channel("c")
        with pytest.raises(ValueError):
            net.add_channel("c")

    def test_unregistered_channel_rejected(self):
        net = ElasticNetwork()
        other = ElasticNetwork()
        ch = other.add_channel("c")
        with pytest.raises(ValueError):
            net.add(Source("s", ch))


class TestPipelines:
    def test_full_throughput_free_flow(self):
        net, sink = pipeline(3)
        net.run(100)
        assert net.throughput("c0") > 0.95

    def test_data_arrives_in_order(self):
        net, sink = pipeline(4, p_stop=0.3, seed=2)
        net.run(300)
        values = [v for v in sink.received if v != -1]
        assert values == sorted(values)
        assert len(values) > 50

    def test_no_data_lost_without_kills(self):
        net, sink = pipeline(3, p_stop=0.4, seed=3)
        net.run(200)
        src = next(c for c in net.controllers if isinstance(c, Source))
        in_flight = sum(
            c.tokens for c in net.controllers if isinstance(c, ElasticBuffer)
        )
        assert src.sent + 1 == len(sink.received) + in_flight  # +1 initial token

    def test_killing_consumer_throughput_equalises(self):
        net, sink = pipeline(3, p_stop=0.2, p_kill=0.3, seed=4)
        net.run(500)
        ths = [ch.stats.throughput for ch in net.channels.values()]
        assert max(ths) - min(ths) < 0.03

    def test_kills_counted(self):
        net, sink = pipeline(2, p_kill=0.5, seed=5)
        net.run(300)
        total_kills = sum(ch.stats.kills for ch in net.channels.values())
        assert total_kills > 0
        assert sink.kills_sent > 0


class TestDiamond:
    def test_fork_join_pairs_match(self):
        net = ElasticNetwork("diamond")
        cin, c0 = net.add_channel("cin"), net.add_channel("c0")
        fa, fb = net.add_channel("fa"), net.add_channel("fb")
        a1, b1 = net.add_channel("a1"), net.add_channel("b1")
        j = net.add_channel("j")
        net.add(Source("src", cin, data_fn=lambda n: n))
        net.add(ElasticBuffer("ebi", cin, c0, initial_tokens=1, initial_data=[-1]))
        net.add(EagerFork("fork", c0, [fa, fb]))
        net.add(ElasticBuffer("eba", fa, a1))
        net.add(ElasticBuffer("ebb", fb, b1))
        net.add(Join("join", [a1, b1], j))
        seen = []
        net.add(Sink("sink", j, on_data=seen.append, p_stop=0.2,
                     rng=random.Random(9)))
        net.run(300)
        assert len(seen) > 100
        assert all(x == y for x, y in seen)

    def test_repetitive_behavior_equal_throughput(self):
        net = ElasticNetwork("ring")
        # closed ring: 3 EBs, one token
        chans = [net.add_channel(f"r{i}") for i in range(3)]
        net.add(ElasticBuffer("e0", chans[0], chans[1], initial_tokens=1))
        net.add(ElasticBuffer("e1", chans[1], chans[2]))
        net.add(ElasticBuffer("e2", chans[2], chans[0]))
        net.run(120)
        ths = {round(ch.stats.throughput, 2) for ch in net.channels.values()}
        assert len(ths) == 1


class TestFixedPoint:
    def test_unsettled_network_detected(self):
        class Lazy(Controller):
            """Never drives its wires -- the fixed point can't settle."""

            def __init__(self, ch):
                super().__init__("lazy")
                self.ch = ch

            def channels(self):
                return (self.ch,)

            def evaluate(self):
                return False

        net = ElasticNetwork()
        ch = net.add_channel("c")
        net.add(Lazy(ch))
        with pytest.raises(ProtocolViolation):
            net.step()

    def test_plan_follows_the_controller_list(self):
        net = to_behavioral(build_fig9_spec(Config.ACTIVE))
        net.run(20)
        before = net._fanout()
        net.controllers.reverse()  # in place, after the plan was built
        twin = to_behavioral(build_fig9_spec(Config.ACTIVE))
        twin.controllers.reverse()
        assert net._fanout() == twin._fanout() != before
        net.run(20)

        class ReadingBuffer(ElasticBuffer):
            state_only = False

        i, eb = next(
            (i, c) for i, c in enumerate(net.controllers)
            if type(c) is ElasticBuffer
        )
        assert not any(i in targets for targets in net._fanout())
        eb.__class__ = ReadingBuffer  # a swapped class is planned again
        assert any(i in targets for targets in net._fanout())
        net.run(20)

    def test_report_lists_channels(self):
        net, _ = pipeline(2)
        net.run(10)
        text = net.report()
        assert "c0" in text and "Th=" in text


class TestSourceSink:
    def test_source_probability_thins_stream(self):
        net = ElasticNetwork()
        c = net.add_channel("c")
        src = Source("s", c, p_valid=0.3, rng=random.Random(0))
        net.add(src)
        net.add(Sink("k", c))
        net.run(1000)
        assert 0.2 < net.throughput("c") < 0.4

    def test_source_persistence_under_stalls(self):
        net = ElasticNetwork()
        c = net.add_channel("c")  # monitored: would raise on violation
        net.add(Source("s", c, p_valid=0.5, rng=random.Random(1)))
        net.add(Sink("k", c, p_stop=0.6, rng=random.Random(2)))
        net.run(500)
        assert c.stats.retries_pos > 0  # stalls actually happened

    def test_sink_invalid_probabilities(self):
        net = ElasticNetwork()
        c = net.add_channel("c")
        with pytest.raises(ValueError):
            Sink("k", c, p_stop=0.8, p_kill=0.5)

    def test_killed_source_tokens_counted(self):
        net = ElasticNetwork()
        c = net.add_channel("c")
        src = Source("s", c, rng=random.Random(3))
        net.add(src)
        net.add(Sink("k", c, p_kill=1.0, rng=random.Random(4)))
        net.run(50)
        assert src.killed == 50 and src.sent == 0
