"""Kill a socket worker mid-campaign; the report must not flinch.

The distributed-fabric contract in one script:

1. start three ``repro worker`` subprocesses on loopback ports -- real
   CLI workers, each a separate process with its own event loop;
2. drive a fault campaign over them with the fabric coordinator and,
   as soon as the first chunk lands, SIGKILL the last worker holding a
   lease -- no cleanup handler runs, exactly like an OOM kill or a
   yanked machine;
3. the coordinator requeues the dead worker's leases onto the
   survivors and the merged JSON report is byte-for-byte what an
   uninterrupted single-process run produces.

Artifacts (for CI upload): the merged campaign report and a fabric
metrics snapshot -- health transitions, retry counters, lease/steal
counts -- are written to the output directory (default ``artifacts``).

Run me:  PYTHONPATH=src python examples/fabric_chaos_smoke.py [outdir]
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.fabric import FabricConfig  # noqa: E402
from repro.faults.campaign import CampaignConfig, run_campaign  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402

CONFIG = CampaignConfig(cycles=120, seed=2007)
FABRIC = FabricConfig(
    fixed_lease=6,  # every worker holds a real lease when chaos strikes
    heartbeat_interval=0.05,
    degraded_after=0.4,
    dead_after=1.0,
    backoff_base=0.05,
    backoff_cap=0.2,
    connect_timeout=5.0,
)


def start_worker(env):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    line = proc.stdout.readline()  # "fabric worker listening on HOST:PORT"
    address = line.rsplit(" ", 1)[-1].strip()
    if ":" not in address:
        proc.kill()
        raise SystemExit(f"worker never announced an address: {line!r}")
    return proc, address


def main() -> None:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "artifacts")
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")

    golden = run_campaign("dual_ehb", CONFIG, lanes=4).to_json()

    workers = [start_worker(env) for _ in range(3)]
    addresses = [address for _, address in workers]
    procs = {address: proc for proc, address in workers}
    print(f"3 fabric workers up: {', '.join(addresses)}")

    metrics = MetricsRegistry()
    killed = []

    def kill_on_first_chunk(done, total):
        # Kill the last worker already granted a lease: one still
        # binding would take no leased work down with it.  At the first
        # result a leased worker still holds most of its fixed 6-unit
        # lease, so that work must be requeued onto the survivors.
        if killed:
            return
        leased = {
            dict(m.labels)["worker"]
            for m in metrics.series("fabric_leases_total")
            if dict(m.labels)["kind"] == "grant" and m.value
        }
        held = [address for address in addresses if address in leased]
        if not held:
            return  # no grant counted yet: retry at the next result
        victim = held[-1]
        killed.append(victim)
        pid = procs[victim].pid
        os.kill(pid, signal.SIGKILL)
        print(f"SIGKILLed worker {victim} (pid {pid}) "
              f"after {done}/{total} injections")

    try:
        report = run_campaign(
            "dual_ehb", CONFIG, lanes=4,
            workers=addresses, fabric=FABRIC,
            metrics=metrics, progress=kill_on_first_chunk,
        )
    finally:
        for proc, _ in workers:
            if proc.poll() is None:
                proc.terminate()
        for proc, _ in workers:
            proc.wait(timeout=10)

    assert killed, "the chaos hook never fired"
    merged = report.to_json()
    (outdir / "fabric-campaign.json").write_text(merged)

    requeues = sum(
        m.value for m in metrics.series("campaign_shard_retries_total")
        if dict(m.labels)["reason"] == "crash"
    )
    deaths = sum(
        m.value for m in metrics.series("fabric_worker_transitions_total")
        if dict(m.labels)["to"] == "DEAD"
    )
    snapshot = {
        "workers": addresses,
        "killed": killed[0],
        "crash_requeues": requeues,
        "worker_deaths": deaths,
        "series": metrics.snapshot(),
    }
    (outdir / "fabric-metrics.json").write_text(
        json.dumps(snapshot, indent=2, sort_keys=True)
    )

    assert requeues >= 1, "the dead worker's leases were never requeued"
    assert deaths >= 1, "the health machine never recorded the death"
    print(f"dead worker's leases requeued: {requeues} unit(s), "
          f"{deaths} DEAD transition(s)")

    assert merged == golden, "chaos changed the report bytes"
    print(f"merged report matches the uninterrupted jobs=1 run "
          f"byte-for-byte ({len(golden)} bytes)")
    print(f"artifacts in {outdir}/: fabric-campaign.json, "
          f"fabric-metrics.json")


if __name__ == "__main__":
    main()
