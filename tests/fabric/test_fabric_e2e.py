"""Fabric end-to-end and chaos tests.

Each chaos scenario -- SIGKILL mid-shard, a torn frame, a SIGSTOPped
(heartbeat-timeout) worker -- must end with the lost chunks requeued,
the health transition counted, and the merged report byte-identical to
the single-process run.  Workers are real OS processes (forked, so
they inherit test-registered job kinds, and killable with real
signals); coordinators run in the test process.
"""

import asyncio
import multiprocessing as mp
import os
import signal
import time

import pytest

from repro.fabric import (
    FabricConfig,
    FabricCoordinator,
    FabricError,
    FabricMismatch,
    JobKind,
    ShardFailure,
    register_job,
    serve,
)
from repro.fabric.frames import encode_frame, read_frame
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.obs.metrics import MetricsRegistry

CFG = CampaignConfig(cycles=120, seed=2007)

#: Tight deadlines so chaos is detected in tens of milliseconds.
FAST = dict(
    heartbeat_interval=0.05,
    degraded_after=0.4,
    dead_after=1.0,
    backoff_base=0.05,
    backoff_cap=0.2,
    connect_timeout=2.0,
    max_rounds=8,
)


# -- worker process targets (module-level: forked children run these) --
def _serve_worker(queue):
    serve("127.0.0.1", 0, on_ready=lambda host, port: queue.put(port))


def _serve_skewed_worker(queue):
    # Simulated version skew: this worker's code fingerprints the
    # "unit" job differently from the coordinator's.
    register_job(JobKind(
        name="unit",
        build=lambda params: (lambda payload: payload),
        fingerprint=lambda params: {"kind": "unit", "rev": "skewed"},
    ))
    _serve_worker(queue)


def _serve_torn_frame_worker(queue):
    """A worker that handshakes cleanly, then tears the connection
    mid-length-prefix on its first lease."""

    async def handle(reader, writer):
        async def send(message):
            writer.write(encode_frame(message))
            await writer.drain()

        await read_frame(reader)  # hello
        await send({"type": "welcome", "version": 1, "worker": "evil"})
        init = await read_frame(reader)
        await send({"type": "bound", "fingerprint": init["fingerprint"]})
        await read_frame(reader)  # first lease (or ping)
        writer.write(b"\x00\x00\x01")  # 3 of 4 prefix bytes, then gone
        await writer.drain()
        writer.close()
        os._exit(0)

    async def main():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        queue.put(server.sockets[0].getsockname()[1])
        async with server:
            await server.serve_forever()

    asyncio.run(main())


def start_worker(target=_serve_worker):
    queue = mp.Queue()
    process = mp.Process(target=target, args=(queue,), daemon=True)
    process.start()
    port = queue.get(timeout=30)
    return process, port


def stop(*processes):
    for process in processes:
        if process.is_alive():
            try:
                os.kill(process.pid, signal.SIGCONT)  # in case it's stopped
            except ProcessLookupError:
                pass
            process.terminate()
        process.join(timeout=10)


def register_unit_job(fail_payloads=()):
    """The trivial coordinator-side 'unit' job used by synthetic tests."""
    fail = set(fail_payloads)

    def build(params):
        def run(payload):
            if payload in fail:
                raise RuntimeError(f"unit {payload!r} always fails")
            return payload

        return run

    register_job(JobKind(
        name="unit",
        build=build,
        fingerprint=lambda params: {"kind": "unit", "rev": "r1"},
    ))


def transitions_to(metrics, state):
    return sum(
        m.value
        for m in metrics.series("fabric_worker_transitions_total")
        if dict(m.labels)["to"] == state
    )


def last_leased(metrics, addresses):
    """The last of ``addresses`` granted a lease so far, or None.

    Chaos hooks pick their victim with this at the first result: a
    worker still binding then holds no lease, and stopping it would
    lose no work to requeue.
    """
    leased = {
        dict(m.labels)["worker"]
        for m in metrics.series("fabric_leases_total")
        if dict(m.labels)["kind"] == "grant" and m.value
    }
    held = [address for address in addresses if address in leased]
    return held[-1] if held else None


def crash_requeues(metrics, reason="crash"):
    return sum(
        m.value
        for m in metrics.series("campaign_shard_retries_total")
        if dict(m.labels)["reason"] == reason
    )


@pytest.fixture(scope="module")
def golden_json():
    return run_campaign("dual_ehb", CFG, lanes=4).to_json()


class TestByteIdentity:
    def test_two_workers_match_jobs1(self, golden_json):
        w1, p1 = start_worker()
        w2, p2 = start_worker()
        try:
            report = run_campaign(
                "dual_ehb", CFG, lanes=4,
                workers=[f"127.0.0.1:{p1}", f"127.0.0.1:{p2}"],
                fabric=FabricConfig(**FAST),
            )
            assert report.to_json() == golden_json
        finally:
            stop(w1, w2)

    def test_fabric_composes_with_checkpoint(self, golden_json, tmp_path):
        w1, p1 = start_worker()
        try:
            report = run_campaign(
                "dual_ehb", CFG, lanes=4,
                workers=[f"127.0.0.1:{p1}"],
                fabric=FabricConfig(**FAST),
                checkpoint=str(tmp_path / "ck"),
            )
            assert report.to_json() == golden_json
            # resume from the completed store: no fabric traffic needed
            resumed = run_campaign(
                "dual_ehb", CFG, lanes=4, checkpoint=str(tmp_path / "ck"),
            )
            assert resumed.to_json() == golden_json
        finally:
            stop(w1)


class TestChaos:
    def test_sigkill_mid_shard(self, golden_json):
        w1, p1 = start_worker()
        w2, p2 = start_worker()
        addresses = [f"127.0.0.1:{p1}", f"127.0.0.1:{p2}"]
        pids = dict(zip(addresses, (w1.pid, w2.pid)))
        metrics = MetricsRegistry()
        killed = []

        def kill_on_first_chunk(done, total):
            # At the first completed chunk a leased worker still holds
            # most of its fixed 6-unit lease; killing it now
            # guarantees outstanding work is lost and requeued.
            victim = last_leased(metrics, addresses)
            if not killed and victim is not None:
                killed.append(victim)
                os.kill(pids[victim], signal.SIGKILL)

        try:
            report = run_campaign(
                "dual_ehb", CFG, lanes=4,
                workers=addresses,
                fabric=FabricConfig(fixed_lease=6, **FAST),
                metrics=metrics,
                progress=kill_on_first_chunk,
            )
        finally:
            stop(w1, w2)
        assert killed, "the chaos hook never fired"
        assert report.to_json() == golden_json
        assert crash_requeues(metrics) >= 1
        assert transitions_to(metrics, "DEAD") >= 1

    def test_torn_frame_mid_lease(self, golden_json):
        evil, evil_port = start_worker(_serve_torn_frame_worker)
        good, good_port = start_worker()
        metrics = MetricsRegistry()
        try:
            report = run_campaign(
                "dual_ehb", CFG, lanes=4,
                workers=[
                    f"127.0.0.1:{evil_port}", f"127.0.0.1:{good_port}",
                ],
                fabric=FabricConfig(fixed_lease=6, **FAST),
                metrics=metrics,
            )
        finally:
            stop(evil, good)
        assert report.to_json() == golden_json
        assert crash_requeues(metrics) >= 1
        assert transitions_to(metrics, "DEAD") >= 1

    def test_sigstop_heartbeat_timeout(self, golden_json):
        w1, p1 = start_worker()
        w2, p2 = start_worker()
        addresses = [f"127.0.0.1:{p1}", f"127.0.0.1:{p2}"]
        pids = dict(zip(addresses, (w1.pid, w2.pid)))
        metrics = MetricsRegistry()
        stopped = []

        def stop_on_first_chunk(done, total):
            victim = last_leased(metrics, addresses)
            if not stopped and victim is not None:
                stopped.append(victim)
                os.kill(pids[victim], signal.SIGSTOP)

        try:
            report = run_campaign(
                "dual_ehb", CFG, lanes=4,
                workers=addresses,
                fabric=FabricConfig(fixed_lease=6, **FAST),
                metrics=metrics,
                progress=stop_on_first_chunk,
            )
        finally:
            stop(w1, w2)
        assert stopped, "the chaos hook never fired"
        assert report.to_json() == golden_json
        # The hung worker walked HEALTHY -> DEGRADED -> DEAD on missed
        # heartbeats and its chunks were requeued to the live worker.
        assert transitions_to(metrics, "DEGRADED") >= 1
        assert transitions_to(metrics, "DEAD") >= 1
        assert crash_requeues(metrics) >= 1

    def test_coordinator_killed_and_resumed(self, golden_json, tmp_path):
        """A dead coordinator's replacement re-adopts surviving workers."""
        w1, p1 = start_worker()
        checkpoint = str(tmp_path / "ck")

        class CoordinatorDown(BaseException):
            pass

        def die_partway(done, total):
            if done >= total // 3:
                raise CoordinatorDown

        try:
            with pytest.raises(CoordinatorDown):
                run_campaign(
                    "dual_ehb", CFG, lanes=4,
                    workers=[f"127.0.0.1:{p1}"],
                    fabric=FabricConfig(**FAST),
                    checkpoint=checkpoint,
                    progress=die_partway,
                )
            assert w1.is_alive(), "the worker must survive the coordinator"
            # The replacement coordinator: same checkpoint, same worker.
            report = run_campaign(
                "dual_ehb", CFG, lanes=4,
                workers=[f"127.0.0.1:{p1}"],
                fabric=FabricConfig(**FAST),
                checkpoint=checkpoint,
            )
        finally:
            stop(w1)
        assert report.to_json() == golden_json


class TestHandshake:
    def test_fingerprint_mismatch_rejects_worker(self):
        register_unit_job()
        skewed, port = start_worker(_serve_skewed_worker)
        try:
            coordinator = FabricCoordinator(
                "unit", {}, [(0, "a")], [("127.0.0.1", port)],
                config=FabricConfig(**FAST),
            )
            with pytest.raises(FabricMismatch, match="rejected the handshake"):
                coordinator.run()
        finally:
            stop(skewed)

    def test_no_worker_reachable_is_fabric_error(self):
        register_unit_job()
        coordinator = FabricCoordinator(
            "unit", {}, [(0, "a")],
            [("127.0.0.1", 1)],  # nothing listens on port 1
            config=FabricConfig(max_rounds=1, **{
                k: v for k, v in FAST.items() if k != "max_rounds"
            }),
        )
        with pytest.raises(FabricError, match="lost every worker"):
            coordinator.run()

    def test_failing_unit_exhausts_retries(self):
        register_unit_job(fail_payloads=("bad",))
        worker, port = start_worker()
        try:
            coordinator = FabricCoordinator(
                "unit", {}, [(0, "ok"), (1, "bad")],
                [("127.0.0.1", port)],
                config=FabricConfig(max_retries=1, **FAST),
            )
            with pytest.raises(ShardFailure, match="always fails"):
                coordinator.run()
        finally:
            stop(worker)

    def test_worker_serves_one_coordinator_at_a_time(self):
        register_unit_job()
        from repro.fabric import WorkerServer

        async def main():
            server = WorkerServer("127.0.0.1", 0)
            host, port = await server.start()
            # First connection occupies the worker mid-handshake.
            r1, w1 = await asyncio.open_connection(host, port)
            w1.write(encode_frame({"type": "hello", "version": 1}))
            await w1.drain()
            assert (await read_frame(r1))["type"] == "welcome"
            # Second connection is rejected as busy.
            r2, w2 = await asyncio.open_connection(host, port)
            reject = await asyncio.wait_for(read_frame(r2), 5)
            assert reject == {"type": "reject", "reason": "worker busy"}
            w1.close()
            w2.close()
            server.stop()

        asyncio.run(main())
