"""Kill a sharded fault campaign mid-flight, then resume it.

The resilience contract in one script:

1. run ``repro inject`` as a subprocess with ``--jobs 2`` and a
   ``--checkpoint`` directory;
2. wait until a few chunks have been persisted, then SIGKILL the
   coordinating process -- no cleanup handler runs, exactly like an OOM
   kill or a pulled plug -- and check that its worker processes notice
   and exit (no orphans left in its process group after 10 s);
3. rerun with ``--resume``: the completed chunks are skipped and the
   final report is byte-for-byte what an uninterrupted run produces.

Run me:  PYTHONPATH=src python examples/kill_and_resume.py
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.faults.campaign import CampaignConfig, run_campaign  # noqa: E402

CYCLES = 120
SEED = 2007


def live_group_members(pgid):
    """PIDs of the live (non-zombie) processes in process group ``pgid``
    (Linux ``/proc``; an empty list elsewhere)."""
    alive = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # "pid (comm) state ppid pgrp ..."; comm may contain spaces.
        state, _, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            alive.append(int(entry.name))
    return alive


def wait_group_gone(pgid, timeout=10.0):
    """The group's live members still there after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    alive = live_group_members(pgid)
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = live_group_members(pgid)
    return alive


def main() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory(prefix="kill-resume-") as scratch:
        store = Path(scratch) / "checkpoint"
        report = Path(scratch) / "campaign.json"
        argv = [
            sys.executable, "-m", "repro", "inject",
            "--netlist", "dual_ehb", "--cycles", str(CYCLES),
            "--seed", str(SEED), "--jobs", "2",
            "--checkpoint", str(store), "--report", str(report),
        ]

        proc = subprocess.Popen(
            argv, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,  # its own process group, workers too
        )
        killed = False
        deadline = time.monotonic() + 180
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break  # too fast to kill -- the resume below still runs
            done = len(list(store.glob("chunk-*.json")))
            if done >= 2:
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=30)
                killed = True
                break
            time.sleep(0.05)
        else:
            proc.kill()
            proc.wait(timeout=30)
            raise SystemExit("campaign never produced a chunk to kill over")

        survivors = len(list(store.glob("chunk-*.json")))
        print(f"killed mid-campaign: {killed} "
              f"(checkpointed chunks at kill time: {survivors})")
        orphans = wait_group_gone(proc.pid)
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        assert not orphans, f"worker processes outlived the kill: {orphans}"
        print("no worker process outlived the coordinator")

        resume = subprocess.run(
            [
                sys.executable, "-m", "repro", "inject",
                "--netlist", "dual_ehb", "--cycles", str(CYCLES),
                "--seed", str(SEED), "--jobs", "2",
                "--resume", str(store), "--report", str(report),
            ],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert resume.returncode == 0, resume.stderr
        resumed_bytes = report.read_text()

    golden = run_campaign(
        "dual_ehb", CampaignConfig(cycles=CYCLES, seed=SEED)
    ).to_json()
    assert resumed_bytes == golden, "resumed report diverged from golden"
    print(f"resumed report matches the uninterrupted run byte-for-byte "
          f"({len(golden)} bytes)")


if __name__ == "__main__":
    main()
