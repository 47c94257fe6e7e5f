"""Tests for ``jobs=N`` supervision: local fabric workers.

:func:`repro.fabric.local_workers` forks the workers and a
:class:`~repro.fabric.FabricCoordinator` drives them with
``max_rounds=0``, exactly as ``run_campaign(jobs=N)`` does.  The test
job kinds are registered at import time, so the forked workers inherit
them.  Flaky units coordinate through marker files in a temp directory:
a first attempt leaves its marker and then crashes/hangs/raises, the
retry finds the marker and succeeds -- so every scenario converges to
the results a healthy pool would produce.  Every test must end with no
live child process.
"""

import functools
import multiprocessing as mp
import os
import signal
import time
from pathlib import Path

import pytest

from repro.fabric import (
    FabricConfig,
    FabricCoordinator,
    FabricError,
    JobKind,
    ShardFailure,
    local_workers,
    register_job,
)
from repro.obs.metrics import MetricsRegistry


def _first_attempt(marker_dir, payload):
    """True exactly once per (marker_dir, payload)."""
    marker = Path(marker_dir) / f"seen-{payload}"
    if marker.exists():
        return False
    marker.write_text("")
    return True


def _square(params, payload):
    return payload * payload


def _crash_once(params, payload):
    if payload == 2 and _first_attempt(params["markers"], payload):
        os._exit(3)
    return payload * 10


def _hang_once(params, payload):
    if payload == 1 and _first_attempt(params["markers"], payload):
        time.sleep(120)
    return payload + 100


def _raise_once(params, payload):
    if payload == 0 and _first_attempt(params["markers"], payload):
        raise ValueError("transient classifier wobble")
    return -payload


def _always_fail(params, payload):
    raise RuntimeError(f"shard {payload} is cursed")


def _poison(params, payload):
    if payload == "poison":
        os._exit(5)
    return payload


def _slow(params, payload):
    time.sleep(0.2)
    return payload


def _register(unit):
    """Job kind ``local_<unit>``: runs ``unit(params, payload)``."""
    name = "local" + unit.__name__
    register_job(JobKind(
        name=name,
        build=lambda params: functools.partial(unit, params),
        fingerprint=lambda params: {"kind": name},
    ))


for _unit in (_square, _crash_once, _hang_once, _raise_once, _always_fail,
              _poison, _slow):
    _register(_unit)

#: Tight deadlines so crashes and hangs surface in tens of milliseconds;
#: ``max_rounds=0`` as for every local run: a dead worker stays dead.
FAST = dict(heartbeat_interval=0.05, degraded_after=0.4, dead_after=1.0,
            max_rounds=0)


def run_local(unit, units, jobs=2, params=None, metrics=None,
              on_result=None, **config):
    with local_workers(jobs) as addresses:
        return FabricCoordinator(
            "local" + unit.__name__, params or {}, units, addresses,
            config=FabricConfig(**{**FAST, **config}),
            metrics=metrics, on_result=on_result,
        ).run()


def retries(metrics):
    """``{(reason, attempt): count}`` of the requeue counters."""
    return {
        (dict(m.labels)["reason"], dict(m.labels)["attempt"]): m.value
        for m in metrics.series("campaign_shard_retries_total")
    }


@pytest.fixture(autouse=True)
def no_live_children():
    yield
    assert mp.active_children() == []


class TestHappyPath:
    def test_all_shards_complete(self):
        assert run_local(_square, [(i, i) for i in range(6)]) == {
            i: i * i for i in range(6)
        }

    def test_single_job_pool(self):
        assert run_local(_square, [(i, i) for i in range(3)], jobs=1) == {
            0: 0, 1: 1, 2: 4,
        }

    def test_no_tasks(self):
        assert run_local(_square, []) == {}

    def test_on_result_sees_every_shard_once(self):
        seen = []
        results = run_local(
            _square, [(i, i) for i in range(5)],
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert sorted(seen) == sorted(results.items())
        assert sorted(i for i, _ in seen) == list(range(5))

    def test_no_orphan_processes_after_run(self):
        run_local(_square, [(i, i) for i in range(4)], jobs=3)
        assert mp.active_children() == []


class TestCrashRecovery:
    def test_killed_worker_shard_requeued(self, tmp_path):
        metrics = MetricsRegistry()
        results = run_local(
            _crash_once, [(i, i) for i in range(4)],
            params={"markers": str(tmp_path)}, metrics=metrics,
            fixed_lease=1,  # the dead worker held exactly the crashing unit
        )
        assert results == {i: i * 10 for i in range(4)}
        assert retries(metrics) == {("crash", "1"): 1}

    def test_hung_worker_killed_and_shard_requeued(self, tmp_path):
        metrics = MetricsRegistry()
        with local_workers(2) as addresses:
            results = FabricCoordinator(
                "local_hang_once", {"markers": str(tmp_path)},
                [(i, i) for i in range(3)], addresses,
                config=FabricConfig(unit_timeout=0.6, fixed_lease=1, **FAST),
                metrics=metrics,
            ).run()
            # The hung worker exits once the coordinator drops it, long
            # before its 120 s sleep ends and without the launcher's
            # SIGKILL; the healthy one exits on the coordinator's bye.
            deadline = time.monotonic() + 10
            while mp.active_children() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert mp.active_children() == []
        assert results == {i: i + 100 for i in range(3)}
        assert retries(metrics) == {("timeout", "1"): 1}

    def test_worker_exception_requeued_as_error(self, tmp_path):
        metrics = MetricsRegistry()
        results = run_local(
            _raise_once, [(i, i) for i in range(3)],
            params={"markers": str(tmp_path)}, metrics=metrics,
        )
        assert results == {0: 0, 1: -1, 2: -2}
        assert retries(metrics) == {("error", "1"): 1}

    def test_heartbeats_recorded(self):
        metrics = MetricsRegistry()
        run_local(_square, [(0, 5)], jobs=1, metrics=metrics)
        connected = metrics.counter(
            "fabric_worker_transitions_total", **{"from": "CONNECTING",
                                                  "to": "HEALTHY"},
        )
        assert connected.value == 1

    def test_sigstopped_worker_requeued_on_heartbeat_loss(self):
        metrics = MetricsRegistry()
        stopped = []

        def stop_one(index, result):
            if not stopped:
                victim = mp.active_children()[0]
                os.kill(victim.pid, signal.SIGSTOP)
                stopped.append(victim.pid)

        results = run_local(
            _slow, [(i, i) for i in range(6)], metrics=metrics,
            on_result=stop_one,
            fixed_lease=2,  # both workers hold unfinished units
        )
        assert stopped, "the chaos hook never fired"
        assert results == {i: i for i in range(6)}
        dead = metrics.counter(
            "fabric_worker_transitions_total", **{"from": "DEGRADED",
                                                  "to": "DEAD"},
        )
        assert dead.value >= 1
        assert retries(metrics).get(("crash", "1"), 0) >= 1


class TestExhaustedRetries:
    def test_shard_failure_names_shard_and_error(self):
        with pytest.raises(ShardFailure, match="shard 0 .* cursed") as exc:
            run_local(_always_fail, [(0, 0)], jobs=1, max_retries=1)
        assert exc.value.index == 0
        assert exc.value.attempts == 2  # initial + 1 retry

    def test_poison_unit_that_kills_every_worker_fails_fast(self):
        started = time.monotonic()
        with pytest.raises(FabricError, match=r"incomplete \(units 1\b"):
            run_local(
                _poison, [(0, 0), (1, "poison"), (2, 2)],
                fixed_lease=1, max_retries=5,
            )
        assert time.monotonic() - started < 10

    def test_run_after_shutdown_rejected(self):
        with local_workers(1) as addresses:
            pass
        coordinator = FabricCoordinator(
            "local_square", {}, [(0, 3)], addresses,
            config=FabricConfig(**FAST),
        )
        with pytest.raises(FabricError, match=r"\(units 0\)"):
            coordinator.run()


class TestValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            with local_workers(0):
                pass


class TestBackoffAccounting:
    """Retry accounting of requeued units.

    Requeues are immediate; the capped backoff schedule only paces
    reconnects (``backoff_for`` in ``tests/fabric/test_health.py``).
    """

    def test_attempt_label_is_deterministic(self):
        metrics = MetricsRegistry()
        coordinator = FabricCoordinator(
            "local_square", {}, [(0, 0)], [("127.0.0.1", 1)],
            config=FabricConfig(max_retries=3), metrics=metrics,
        )
        for _ in range(3):
            coordinator._requeue_units("w", [0], "crash", "synthetic")
        assert retries(metrics) == {
            ("crash", "1"): 1, ("crash", "2"): 1, ("crash", "3"): 1,
        }
        coordinator._requeue_units("w", [0], "crash", "synthetic")
        assert isinstance(coordinator._failure, ShardFailure)
        assert coordinator._failure.attempts == 4
