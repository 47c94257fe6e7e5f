"""Distributed campaign fabric: scaling and tail-latency benchmarks.

Two claims are measured on a >=10k-injection stuck-at sweep of the
dual-EHB target:

* four local socket workers beat the single-process campaign's wall
  time (the fabric's framing/handshake overhead amortises once the
  compute per unit dominates a round trip).  Parallel speedup needs
  parallel hardware: on a single-core host the test degrades to an
  overhead bound -- the fabric must stay within 2x of the serial
  sweep even with zero usable parallelism;
* the shipped schedule -- leases of ``ceil(pending / workers)`` units
  with work stealing -- shrinks the tail, the grant-to-last-result
  latency of the final lease, versus classic static partitioning (a
  quarter of the sweep per worker, nothing stolen), because leases
  near the drain are small enough that no worker sits on a long run
  while the others idle.  The baseline is :class:`StaticSplit`, a
  scheduler subclass swapped into the coordinator here: no fabric
  option sets a lease size or turns stealing off.

Workers are long-lived servers: the fixture warms each one's runner
cache with a one-unit run first, so the timed runs measure steady-state
sweep throughput rather than the once-per-config harness build.  Both
configurations produce byte-identical outcome sets (asserted), so the
comparison is purely about wall time.
"""

import multiprocessing as mp
import os
import time

import pytest

from repro.fabric import FabricCoordinator, WorkStealingScheduler, serve
from repro.fabric.jobs import encode_campaign_config, encode_injection
from repro.faults.campaign import (
    CampaignConfig,
    _chunked,
    enumerate_injections,
    resolve_target,
    run_campaign,
)

LANES = 64
#: 46 fault sites x 2 stuck-at kinds x 109 injection cycles = 10,028
#: injections; untestable analysis off so both arms time the sweep only.
CONFIG = CampaignConfig(
    cycles=120,
    seed=2007,
    injection_cycles=tuple(range(109)),
    untestable_analysis=False,
)


class StaticSplit(WorkStealingScheduler):
    """The tail baseline: every lease is a ``1/workers`` share of the
    whole sweep, and idle workers steal nothing."""

    def __init__(self, units, workers):
        super().__init__(units, workers)
        self.share = -(-len(units) // workers)

    def lease_size(self):
        return self.share

    def steal(self, thief):
        return None, []


def _serve(queue):
    serve("127.0.0.1", 0, on_ready=lambda host, port: queue.put(port))


def fabric_units():
    target = resolve_target("dual_ehb")
    injections = enumerate_injections(target, CONFIG)
    assert len(injections) >= 10_000
    return [
        (index, [encode_injection(i) for i in chunk])
        for index, chunk in enumerate(_chunked(injections, LANES))
    ]


def run_fabric(worker_addresses, units=None, static_split=False):
    units = fabric_units() if units is None else units
    coordinator = FabricCoordinator(
        "campaign",
        {
            "target": "dual_ehb",
            "config": encode_campaign_config(CONFIG),
            "lanes": LANES,
            "cache": None,
        },
        units,
        worker_addresses,
    )
    if static_split:
        coordinator.scheduler = StaticSplit(units, len(worker_addresses))
    started = time.perf_counter()
    results = coordinator.run()
    wall = time.perf_counter() - started
    return results, wall, coordinator


@pytest.fixture(scope="module")
def workers():
    queue = mp.Queue()
    processes = [
        mp.Process(target=_serve, args=(queue,), daemon=True)
        for _ in range(4)
    ]
    for process in processes:
        process.start()
    ports = [queue.get(timeout=60) for _ in processes]
    addresses = [("127.0.0.1", port) for port in ports]
    # Warm every worker's runner cache (one-unit run per worker) so the
    # timed sweeps below measure throughput, not harness builds.
    seed_unit = fabric_units()[:1]
    for address in addresses:
        run_fabric([address], units=seed_unit)
    yield addresses
    for process in processes:
        process.terminate()
        process.join(timeout=10)


def test_four_workers_beat_single_process(workers):
    t0 = time.perf_counter()
    serial = run_campaign("dual_ehb", CONFIG, lanes=LANES)
    serial_wall = time.perf_counter() - t0

    results, fabric_wall, coordinator = run_fabric(workers)
    merged = [o for index in sorted(results) for o in results[index]]
    assert [o["fault"] for o in merged] == [
        o.fault for o in serial.outcomes
    ]
    assert [o["status"] for o in merged] == [
        o.status for o in serial.outcomes
    ]
    stats = coordinator.stats()
    cores = os.cpu_count() or 1
    print(f"\n=== fabric scaling ({stats['units']} units x {LANES} "
          f"injections, {cores} core(s)) ===")
    print(f"jobs=1:    {serial_wall:6.2f}s")
    print(f"4 workers: {fabric_wall:6.2f}s "
          f"({serial_wall / fabric_wall:.2f}x, {stats['leases']} leases, "
          f"{stats['steals']} steals)")
    if cores >= 2:
        assert fabric_wall < serial_wall, (
            f"4 socket workers ({fabric_wall:.2f}s) must beat the "
            f"single-process sweep ({serial_wall:.2f}s) on {cores} cores"
        )
    else:
        # One core: four CPU-bound workers cannot beat one process, so
        # assert the fabric's framing/scheduling overhead is bounded.
        assert fabric_wall < serial_wall * 2.0, (
            f"single-core fabric overhead out of bounds: "
            f"{fabric_wall:.2f}s vs serial {serial_wall:.2f}s"
        )


def test_guided_leases_cut_tail_latency(workers):
    # Static baseline: the final quarter-sweep lease keeps one worker
    # busy long after the others drain.
    _, fixed_wall, fixed = run_fabric(workers, static_split=True)
    fixed_tail = fixed.scheduler.tail_latency()

    _, guided_wall, guided = run_fabric(workers)
    guided_tail = guided.scheduler.tail_latency()

    fixed_stats, guided_stats = fixed.stats(), guided.stats()
    print(f"\n=== tail latency ({fixed_stats['units']} units) ===")
    print(f"static split ({fixed.scheduler.share}/lease): "
          f"tail {fixed_tail * 1e3:7.1f}ms wall {fixed_wall:.2f}s "
          f"(last lease {fixed_stats['last_lease']} units)")
    print(f"guided + stealing:      tail {guided_tail * 1e3:7.1f}ms "
          f"wall {guided_wall:.2f}s "
          f"(last lease {guided_stats['last_lease']} units, "
          f"{guided_stats['leases']} leases, {guided_stats['steals']} "
          f"steals)")
    assert guided_tail < fixed_tail, (
        f"guided leases with stealing (tail {guided_tail:.3f}s) must cut "
        f"the last-lease latency of a static split (tail "
        f"{fixed_tail:.3f}s)"
    )


def test_bench_fabric_four_workers(benchmark, workers):
    def sweep():
        results, _, coordinator = run_fabric(workers)
        return results, coordinator

    results, coordinator = benchmark.pedantic(sweep, rounds=3, iterations=1)
    stats = coordinator.stats()
    benchmark.extra_info["units"] = stats["units"]
    benchmark.extra_info["injections"] = stats["units"] * LANES
    benchmark.extra_info["leases"] = stats["leases"]
    benchmark.extra_info["steals"] = stats["steals"]
    assert len(results) == stats["units"]
