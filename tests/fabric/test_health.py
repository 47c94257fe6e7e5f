"""Health-machine tests on a fake clock: zero sleeps, every deadline."""

import pytest

from repro.fabric.health import (
    WorkerHealth,
    WorkerState,
    backoff_for,
    state_census,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience.clock import FakeClock


def machine(metrics=None, **kwargs):
    clock = FakeClock()
    kwargs.setdefault("degraded_after", 2.0)
    kwargs.setdefault("dead_after", 6.0)
    return WorkerHealth("w0", clock=clock, metrics=metrics, **kwargs), clock


class TestLadder:
    def test_starts_connecting(self):
        health, _ = machine()
        assert health.state == WorkerState.CONNECTING

    def test_connect_makes_healthy(self):
        health, _ = machine()
        health.on_connected()
        assert health.state == WorkerState.HEALTHY

    def test_silence_degrades_then_kills(self):
        health, clock = machine()
        health.on_connected()
        clock.advance(1.9)
        assert health.check() == WorkerState.HEALTHY
        clock.advance(0.2)  # 2.1s silent
        assert health.check() == WorkerState.DEGRADED
        clock.advance(4.0)  # 6.1s silent
        assert health.check() == WorkerState.DEAD

    def test_one_long_gap_walks_both_steps(self):
        health, clock = machine()
        health.on_connected()
        clock.advance(100.0)
        assert health.check() == WorkerState.DEAD

    def test_frame_recovers_degraded(self):
        health, clock = machine()
        health.on_connected()
        clock.advance(3.0)
        assert health.check() == WorkerState.DEGRADED
        health.on_frame()
        assert health.state == WorkerState.HEALTHY
        # and the deadline is re-armed from the frame
        clock.advance(1.0)
        assert health.check() == WorkerState.HEALTHY

    def test_deadlines_idle_while_connecting_or_dead(self):
        health, clock = machine()
        clock.advance(1000.0)
        assert health.check() == WorkerState.CONNECTING
        health.on_connected()
        health.on_disconnect()
        clock.advance(1000.0)
        assert health.check() == WorkerState.DEAD

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            WorkerHealth("w", degraded_after=5.0, dead_after=2.0)


class TestReconnectBackoff:
    def test_backoff_schedule_is_capped_exponential(self):
        health, clock = machine(backoff_base=0.25, backoff_cap=2.0)
        waits = []
        for _ in range(5):
            health.on_reconnecting()
            before = clock()
            health.on_disconnect()
            waits.append(health.reconnect_at - before)
        assert waits == [0.25, 0.5, 1.0, 2.0, 2.0]

    def test_may_reconnect_waits_for_backoff(self):
        health, clock = machine(backoff_base=1.0, backoff_cap=8.0)
        health.on_disconnect()
        assert not health.may_reconnect()
        clock.advance(0.99)
        assert not health.may_reconnect()
        clock.advance(0.02)
        assert health.may_reconnect()

    def test_successful_connect_resets_the_schedule(self):
        health, clock = machine(backoff_base=0.25, backoff_cap=8.0)
        for _ in range(4):
            health.on_disconnect()
        health.on_connected()
        before = clock()
        health.on_disconnect()
        assert health.reconnect_at - before == 0.25  # round 1 again

    def test_max_rounds_pins_terminal(self):
        health, clock = machine(max_rounds=2)
        health.on_disconnect()
        health.on_disconnect()
        assert not health.terminal
        health.on_disconnect()
        assert health.terminal
        clock.advance(1e9)
        assert not health.may_reconnect()

    def test_max_rounds_zero_is_terminal_on_first_loss(self):
        # The local-worker setting: a dead forked worker is not replaced.
        health, _ = machine(max_rounds=0)
        health.on_connected()
        health.on_disconnect()
        assert health.terminal

    def test_backoff_for_honours_cap_at_huge_attempts(self):
        assert backoff_for(1, 0.25, 8.0) == 0.25
        assert backoff_for(6, 0.25, 8.0) == 8.0
        assert backoff_for(10_000, 0.25, 8.0) == 8.0  # no overflow
        assert backoff_for(3, 8.0, 2.0) == 2.0  # base above cap
        with pytest.raises(ValueError):
            backoff_for(0, 0.25, 8.0)

    def test_rejection_is_terminal_immediately(self):
        health, clock = machine()
        health.on_disconnect(terminal=True)
        assert health.terminal
        clock.advance(1e9)
        assert not health.may_reconnect()


class TestMetrics:
    def test_transitions_are_counted_by_edge(self):
        metrics = MetricsRegistry()
        health, clock = machine(metrics=metrics)
        health.on_connected()
        clock.advance(3.0)
        health.check()  # -> DEGRADED
        health.on_frame()  # -> HEALTHY
        clock.advance(100.0)
        health.check()  # -> DEAD

        def edges():
            return {
                (dict(m.labels)["from"], dict(m.labels)["to"]): m.value
                for m in metrics.series("fabric_worker_transitions_total")
            }

        assert edges() == {
            ("CONNECTING", "HEALTHY"): 1,
            ("HEALTHY", "DEGRADED"): 1,
            ("DEGRADED", "HEALTHY"): 1,
            ("HEALTHY", "DEAD"): 1,
        }

    def test_state_gauge_tracks_current_state(self):
        metrics = MetricsRegistry()
        health, _ = machine(metrics=metrics)
        health.on_connected()
        gauge = metrics.gauge("fabric_worker_state", worker="w0")
        assert gauge.last == int(WorkerState.HEALTHY)
        health.on_disconnect()
        assert gauge.last == int(WorkerState.DEAD)

    def test_state_census_gauges(self):
        metrics = MetricsRegistry()
        a, _ = machine(metrics=metrics)
        b, _ = machine(metrics=metrics)
        a.on_connected()
        state_census([a, b], metrics)
        by_state = {
            dict(m.labels)["state"]: m.last
            for m in metrics.series("fabric_workers")
        }
        assert by_state == {
            "CONNECTING": 1, "HEALTHY": 1, "DEGRADED": 0, "DEAD": 0,
        }
