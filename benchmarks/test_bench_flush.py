"""Extension bench (Sect. 7): pipeline flush by anti-token injection.

"The mechanism for anti-token counter-flow can also be used for
handling exceptions inside elastic pipelines.  For example, flushing a
pipeline on branch mispredictions can be done by injecting
anti-tokens."  This bench measures the cost of a flush: how many cycles
a window of anti-tokens needs to drain a deep pipeline, as a function
of pipeline depth.
"""

import random

import pytest

from repro.elastic import ElasticBuffer, ElasticNetwork, Sink, Source


class FlushingSink(Sink):
    """Accepts tokens, but injects a burst of anti-tokens on command."""

    def __init__(self, name, channel, rng):
        super().__init__(name, channel, rng=rng)
        self.burst = 0
        self.drained_at = None
        self.clock = 0

    def flush(self, count):
        self.burst = count

    def evaluate(self):
        ch = self.input
        if self._action is None:
            self._action = "kill" if (self.burst > 0 or self.pending_anti) else "accept"
        action = self._action
        return ch.drive_consumer(0, 1 if action == "kill" else 0)

    def commit(self):
        ch = self.input
        if self._action == "kill" and (ch.kill or ch.neg_transfer):
            self.burst -= 1
            if self.burst == 0:
                self.drained_at = self.clock
        self.clock += 1
        super().commit()


def flush_latency(depth: int, window: int, seed=0) -> int:
    """Cycles for `window` anti-tokens to be fully absorbed."""
    net = ElasticNetwork(f"flush{depth}")
    chans = [net.add_channel(f"c{i}") for i in range(depth + 1)]
    net.add(Source("fetch", chans[0], rng=random.Random(seed)))
    for i in range(depth):
        net.add(ElasticBuffer(f"s{i}", chans[i], chans[i + 1]))
    sink = FlushingSink("commit", chans[-1], rng=random.Random(seed + 1))
    net.add(sink)
    net.run(depth + 5)  # fill the pipeline
    start = sink.clock
    sink.flush(window)
    net.run(4 * (depth + window) + 20)
    assert sink.drained_at is not None, "flush never completed"
    return sink.drained_at - start


def test_reproduce_flush_latency_series():
    print("\n=== flush latency vs pipeline depth (window = depth) ===")
    print(f"{'depth':>5} {'cycles':>6}")
    prev = 0
    for depth in (2, 4, 8, 16):
        cycles = flush_latency(depth, window=depth)
        print(f"{depth:5d} {cycles:6d}")
        assert cycles >= prev  # deeper pipelines take longer to flush
        prev = cycles
    # the flush is pipelined: cost grows linearly, not quadratically
    assert flush_latency(16, 16) < 8 * flush_latency(2, 2) + 8


def test_flush_preserves_order_after_refill():
    net = ElasticNetwork("refill")
    chans = [net.add_channel(f"c{i}") for i in range(4)]
    net.add(Source("fetch", chans[0], data_fn=lambda n: n))
    for i in range(3):
        net.add(ElasticBuffer(f"s{i}", chans[i], chans[i + 1]))
    sink = FlushingSink("commit", chans[-1], rng=random.Random(3))
    net.add(sink)
    net.run(10)
    sink.flush(5)
    net.run(50)
    data = [v for v in sink.received if isinstance(v, int)]
    assert data == sorted(data)


def test_bench_flush(benchmark):
    result = benchmark(flush_latency, 8, 8)
    assert result > 0
