"""Observability overhead: disabled tracing must cost (almost) nothing.

The zero-cost claim of :mod:`repro.obs` -- a recorder constructed with
``enabled=False`` attaches nothing, leaving every simulator on the
untraced code path -- is locked here by timing the lane-parallel fault
campaign twice: bare, and with a disabled recorder "attached" to the
kernel.  Min-of-N with alternating order cancels warm-up and cache
drift; the gate is a 5% ceiling on the relative slowdown.

Enabled tracing is also timed (informationally, no gate): it buys the
full event stream, so it is allowed to cost real time.
"""

from time import perf_counter

from repro.faults.batch import BatchCampaignHarness
from repro.faults.campaign import (
    CampaignConfig,
    enumerate_injections,
    resolve_target,
)
from repro.obs import TraceRecorder

CONFIG = CampaignConfig(cycles=250, seed=2007, untestable_analysis=False)
LANES = 64
ROUNDS = 7


def _chunks(target, config, lanes):
    injections = enumerate_injections(target, config)
    return [injections[i:i + lanes] for i in range(0, len(injections), lanes)]


def _run(harness, chunks):
    outcomes = []
    for chunk in chunks:
        outcomes.extend(harness.run_chunk(chunk))
    return outcomes


def test_disabled_tracing_overhead_under_5_percent():
    target = resolve_target("dual_ehb")
    chunks = _chunks(target, CONFIG, LANES)

    bare = BatchCampaignHarness(target, CONFIG, LANES)
    traced = BatchCampaignHarness(target, CONFIG, LANES)
    recorder = TraceRecorder(enabled=False)
    recorder.attach_batch(traced.sim, target.observe)
    assert not traced.sim.observers  # nothing was attached

    # Both harnesses classify identically before any timing.
    assert _run(bare, chunks) == _run(traced, chunks)

    base_times, off_times = [], []
    for round_index in range(ROUNDS):
        pairs = [(bare, base_times), (traced, off_times)]
        if round_index % 2:
            pairs.reverse()
        for harness, times in pairs:
            t0 = perf_counter()
            _run(harness, chunks)
            times.append(perf_counter() - t0)

    base, off = min(base_times), min(off_times)
    overhead = off / base - 1.0
    print(f"\n=== disabled-tracing overhead ===\n"
          f"bare     : {base * 1e3:8.2f} ms\n"
          f"disabled : {off * 1e3:8.2f} ms\n"
          f"overhead : {100.0 * overhead:+.2f}% (gate: +5%)")
    assert overhead < 0.05, (
        f"disabled tracing costs {100.0 * overhead:.1f}% (>5%)"
    )


def test_disabled_profilers_attach_nothing():
    """The profile layer honours the same zero-cost no-op contract.

    A disabled :class:`RtlChannelProfiler` must leave the lane-parallel
    simulator observer-free, and a disabled :class:`NetworkProfiler`
    must add neither probes nor channel observers -- so a run that does
    not ask for a performance report stays on the untouched code path
    the timing gate above locks.
    """
    from repro.obs import NetworkProfiler, RtlChannelProfiler
    from repro.obs.analyze import _pipeline_network
    from repro.codegen.sim import CompiledSimulator

    target = resolve_target("dual_ehb")
    batch = CompiledSimulator(target.netlist, 4)
    RtlChannelProfiler(target, enabled=False).attach_lane(batch, 0)
    assert not batch.observers

    net = _pipeline_network(seed=2007)
    probes = len(net.probes)
    observers = sum(len(c.observers) for c in net.channels.values())
    NetworkProfiler(enabled=False).attach(net)
    assert len(net.probes) == probes
    assert sum(len(c.observers) for c in net.channels.values()) == observers


def test_enabled_tracing_cost_is_reported():
    target = resolve_target("dual_ehb")
    chunks = _chunks(target, CONFIG, LANES)

    bare = BatchCampaignHarness(target, CONFIG, LANES)
    traced = BatchCampaignHarness(target, CONFIG, LANES)
    recorder = TraceRecorder(capacity=1 << 16)
    recorder.attach_batch(traced.sim, target.observe)

    t0 = perf_counter()
    _run(bare, chunks)
    base = perf_counter() - t0
    t0 = perf_counter()
    _run(traced, chunks)
    on = perf_counter() - t0
    print(f"\n=== enabled-tracing cost (informational) ===\n"
          f"bare    : {base * 1e3:8.2f} ms\n"
          f"enabled : {on * 1e3:8.2f} ms "
          f"({recorder.emitted} events recorded)")
    assert recorder.emitted > 0
