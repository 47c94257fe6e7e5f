"""Tests for the no-progress stall rule (the stall watchdog).

``TestNetworkWatchdog`` runs the rule where it lives, in the profiler of
``repro profile`` (:class:`repro.obs.analyze.NetworkProfiler`), with its
fixed window of ``_WINDOW`` cycles.  ``TestRtlWatchdog`` checks the
scalar reference watchdog of ``tests/obs/scalar_reference.py``, which
the lane profilers of ``test_batch_watchdog.py`` are compared against.
"""

import random

import pytest

from repro.elastic.behavioral import (
    EagerFork,
    ElasticBuffer,
    ElasticNetwork,
    EarlyJoin,
    Sink,
    Source,
)
from repro.elastic.ee import AndEE
from repro.faults.targets import TARGETS
from repro.obs.analyze import _WINDOW, NetworkProfiler
from repro.rtl.simulator import TwoPhaseSimulator
from tests.obs.scalar_reference import RtlStallWatchdog, cycle


def full_eb_ring(n=3):
    """A ring of full capacity-1 EBs: the canonical token deadlock."""
    net = ElasticNetwork("ring")
    chans = [net.add_channel(f"c{i}", monitor=False) for i in range(n)]
    for i in range(n):
        net.add(ElasticBuffer(
            f"eb{i}", chans[i], chans[(i + 1) % n],
            capacity=1, initial_tokens=1, initial_data=[i],
        ))
    return net


def ee_join_loop(capacity):
    """Fig. 7 shape: EE join fed by a source and its own feedback loop."""
    net = ElasticNetwork("eej")
    a = net.add_channel("a", monitor=False)
    z = net.add_channel("z", monitor=False)
    out = net.add_channel("out", monitor=False)
    fbp = net.add_channel("fbp", monitor=False)
    fb = net.add_channel("fb", monitor=False)
    net.add(Source("src", a, rng=random.Random(1)))
    net.add(EarlyJoin("ej", [a, fb], z, AndEE(2)))
    net.add(EagerFork("fk", z, [out, fbp]))
    net.add(ElasticBuffer(
        "eb", fbp, fb, capacity=capacity, initial_tokens=1, initial_data=[0]
    ))
    sink = Sink("snk", out, p_stop=0.0, rng=random.Random(2))
    net.add(sink)
    return net, sink


class TestNetworkWatchdog:
    def test_deadlock_ring_names_the_stop_cycle(self):
        net = full_eb_ring()
        profiler = NetworkProfiler().attach(net)
        net.run(_WINDOW + 10)
        [d] = profiler.diagnoses
        assert d.stop_cycle == ("c0.sp", "c2.sp", "c1.sp")
        assert d.blocked == ("c0.sp", "c1.sp", "c2.sp")
        # Wedged from the first cycle: the window expires at its end.
        assert (d.last_progress, d.cycle) == (-1, _WINDOW - 1)
        assert d.window == _WINDOW

    def test_stuck_stall_on_ee_join_network_fires_within_window(self):
        net, sink = ee_join_loop(capacity=2)
        profiler = NetworkProfiler().attach(net)
        net.run(40)  # healthy: tokens circulate, no stall
        assert profiler.diagnoses == []
        sink.p_stop = 1.0  # the sink's stall control sticks at 1
        net.run(_WINDOW + 1)  # fires within one window of the fault
        [d] = profiler.diagnoses
        assert (d.last_progress, d.cycle) == (40, 40 + _WINDOW)
        # Acyclic wait graph: the chain walks join -> fork -> stuck sink.
        assert d.stop_cycle == ()
        assert d.blocked == ("a.sp", "z.sp", "out.sp")

    def test_wedged_ee_feedback_loop_is_a_ring(self):
        # A capacity-1 loop buffer cannot drain and refill in one cycle,
        # so the feedback ring wedges against itself.
        net, _ = ee_join_loop(capacity=1)
        profiler = NetworkProfiler().attach(net)
        net.run(_WINDOW + 10)
        [d] = profiler.diagnoses
        assert d.stop_cycle == ("fb.sp", "fbp.sp", "z.sp")
        assert d.blocked == ("a.sp", "fb.sp", "fbp.sp", "z.sp")
        assert (d.last_progress, d.cycle) == (0, _WINDOW)

    def test_healthy_network_never_fires(self):
        net = ElasticNetwork("ok")
        c0 = net.add_channel("c0", monitor=False)
        c1 = net.add_channel("c1", monitor=False)
        net.add(Source("s", c0, rng=random.Random(7)))
        net.add(ElasticBuffer("eb", c0, c1))
        net.add(Sink("k", c1, p_stop=0.3, rng=random.Random(8)))
        profiler = NetworkProfiler().attach(net)
        net.run(5 * _WINDOW)
        assert profiler.lost  # back-pressure, but never a stall
        assert profiler.diagnoses == []

    def test_idle_network_is_not_a_stall(self):
        # Nothing offered -> nothing blocked, however long it idles.
        net = ElasticNetwork("idle")
        c0 = net.add_channel("c0", monitor=False)
        c1 = net.add_channel("c1", monitor=False)
        net.add(Source("s", c0, p_valid=0.0, rng=random.Random(1)))
        net.add(ElasticBuffer("eb", c0, c1))
        net.add(Sink("k", c1, p_stop=1.0, rng=random.Random(2)))
        profiler = NetworkProfiler().attach(net)
        net.run(3 * _WINDOW)
        assert profiler.diagnoses == []

    def test_non_raising_mode_reports_and_continues(self):
        # Each expired window is one diagnosis, and the window restarts.
        net = full_eb_ring()
        profiler = NetworkProfiler().attach(net)
        net.run(3 * _WINDOW + 10)
        ends = [_WINDOW - 1, 2 * _WINDOW - 1, 3 * _WINDOW - 1]
        assert [d.cycle for d in profiler.diagnoses] == ends
        assert [d.last_progress for d in profiler.diagnoses] == \
            [-1] + ends[:-1]
        stalls = profiler.attribution_section()["stalls"]
        assert stalls == [d.to_dict() for d in profiler.diagnoses]
        assert stalls[0]["stop_cycle"] == ["c0.sp", "c2.sp", "c1.sp"]


class TestRtlWatchdog:
    def _stalled_dual_ehb(self, window=8):
        target = TARGETS["dual_ehb"]()
        sim = TwoPhaseSimulator(target.netlist)
        wd = RtlStallWatchdog.for_target(target, window=window)
        inputs = {
            "src.choice": 1, "src.accept": 0, "snk.stall": 1, "snk.kill": 0,
        }
        return sim, wd, inputs

    def test_stalled_sink_fires_within_window(self):
        sim, wd, inputs = self._stalled_dual_ehb(window=8)
        for _ in range(8 + 3):
            cycle(sim, inputs, [wd.observe])
        [d] = wd.diagnoses  # fired within the window
        # The EB cuts every combinational path, so the wait edges come
        # from the sequential fallback: the two retrying channels wait
        # on each other across cycles.
        assert d.blocked == ("L.sp", "R.sp")
        assert d.stop_cycle == ("L.sp", "R.sp")
        assert d.window == 8

    def test_healthy_rtl_run_never_fires(self):
        target = TARGETS["dual_ehb"]()
        sim = TwoPhaseSimulator(target.netlist)
        wd = RtlStallWatchdog.for_target(target, window=8)
        rng = random.Random(5)
        for _ in range(200):
            cycle(sim, {
                "src.choice": rng.getrandbits(1), "src.accept": 0,
                "snk.stall": rng.getrandbits(1), "snk.kill": 0,
            }, [wd.observe])
        assert wd.diagnoses == []

    def test_non_raising_mode_accumulates(self):
        sim, wd, inputs = self._stalled_dual_ehb(window=5)
        for _ in range(30):
            cycle(sim, inputs, [wd.observe])
        assert len(wd.diagnoses) >= 2

    def test_window_validated(self):
        target = TARGETS["dual_ehb"]()
        with pytest.raises(ValueError):
            RtlStallWatchdog.for_target(target, window=0)
