"""Fig. 2: the SELF protocol states and the (I*R*T)* language.

Generates random protocol-legal traces, classifies every cycle into
Transfer / Idle / Retry (and the dual anti-token events), checks the
language property, and times the monitor on long traces.
"""

import random

from repro.elastic.protocol import (
    ProtocolMonitor,
    classify,
)


def legal_trace(length, seed):
    """Random (V, S) trace obeying sender persistence."""
    rng = random.Random(seed)
    trace = []
    pending = False
    for _ in range(length):
        v = 1 if (pending or rng.random() < 0.6) else 0
        s = 1 if rng.random() < 0.3 else 0
        trace.append((v, s))
        pending = bool(v and s)
    return trace


def test_reproduce_fig2():
    trace = legal_trace(40, seed=1)
    states = [classify(v, s).value for v, s in trace]
    print("\n=== Fig. 2: channel trace ===")
    print("".join(states))
    # language (I*R*T)*: every R-run ends in T; observe() raises on a
    # Retry followed by Idle
    mon = ProtocolMonitor("demo")
    for v, s in trace:
        mon.observe(v, s, 0, 0, data="d" if v else None)
    counts = {st: states.count(st) for st in "TIR"}
    print("state counts:", counts)
    assert counts["T"] > 0


def test_bench_monitor(benchmark):
    trace = legal_trace(20_000, seed=2)

    def run():
        # observe() raises on a Retry followed by Idle: the run checks
        # the (I*R*T)* language as it goes.
        mon = ProtocolMonitor("bench", check_data=False)
        return [mon.observe(v, s, 0, 0) for v, s in trace]

    events = benchmark(run)
    assert len(events) == len(trace)
