"""Checkpoint/resume determinism, including the SIGKILL acceptance test."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.targets import dual_ehb
from repro.resilience import CheckpointMismatch

CFG = CampaignConfig(cycles=120, seed=2007)
SRC = Path(__file__).resolve().parent.parent.parent / "src"


def golden_json():
    return run_campaign("dual_ehb", CFG).to_json()


def live_group_members(pgid):
    """PIDs of the live (non-zombie) processes in process group ``pgid``."""
    if not Path("/proc/self/stat").exists():
        pytest.skip("needs /proc to list a process group")
    alive = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # "pid (comm) state ppid pgrp ..."; comm may contain spaces.
        state, _, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            alive.append(int(entry.name))
    return alive


def assert_group_gone(pgid, timeout=10.0):
    """Every process of the group exits within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    alive = live_group_members(pgid)
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = live_group_members(pgid)
    if alive:
        for pid in alive:  # don't leak them into the rest of the run
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    assert alive == [], f"orphaned processes in group {pgid}: {alive}"


class TestCheckpointDeterminism:
    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        plain = golden_json()
        ck = run_campaign("dual_ehb", CFG, checkpoint=str(tmp_path / "ck"))
        assert ck.to_json() == plain

    def test_resume_from_completed_store_is_byte_identical(self, tmp_path):
        ck = str(tmp_path / "ck")
        first = run_campaign("dual_ehb", CFG, checkpoint=ck)
        resumed = run_campaign("dual_ehb", CFG, checkpoint=ck)
        assert resumed.to_json() == first.to_json() == golden_json()

    def test_interrupted_run_resumes_byte_identical(self, tmp_path):
        ck = str(tmp_path / "ck")

        class Abort(Exception):
            pass

        def bail_early(done, total):
            if done >= total // 3:
                raise Abort

        with pytest.raises(Abort):
            run_campaign("dual_ehb", CFG, lanes=4, checkpoint=ck,
                         progress=bail_early)
        chunks = list(Path(ck).glob("chunk-*.json"))
        assert chunks, "the interrupted run must have persisted chunks"
        resumed = run_campaign("dual_ehb", CFG, lanes=4, checkpoint=ck)
        assert resumed.to_json() == run_campaign("dual_ehb", CFG, lanes=4).to_json()

    def test_resume_announces_head_start(self, tmp_path):
        ck = str(tmp_path / "ck")
        run_campaign("dual_ehb", CFG, lanes=8, checkpoint=ck)
        calls = []
        run_campaign("dual_ehb", CFG, lanes=8, checkpoint=ck,
                     progress=lambda done, total: calls.append((done, total)))
        assert len(calls) == 1 and calls[0][0] == calls[0][1]

    def test_mismatched_config_rejected(self, tmp_path):
        ck = str(tmp_path / "ck")
        run_campaign("dual_ehb", CampaignConfig(cycles=60, seed=3), checkpoint=ck)
        with pytest.raises(CheckpointMismatch, match="cycles"):
            run_campaign("dual_ehb", CFG, checkpoint=ck)

    def test_mismatched_lanes_rejected(self, tmp_path):
        ck = str(tmp_path / "ck")
        cfg = CampaignConfig(cycles=60, seed=3)
        run_campaign("dual_ehb", cfg, lanes=4, checkpoint=ck)
        with pytest.raises(CheckpointMismatch, match="lanes"):
            run_campaign("dual_ehb", cfg, lanes=8, checkpoint=ck)

    def test_changed_netlist_rejected(self, tmp_path):
        ck = str(tmp_path / "ck")
        cfg = CampaignConfig(cycles=60, seed=3)
        run_campaign(dual_ehb(), cfg, lanes=8, checkpoint=ck)
        with pytest.raises(CheckpointMismatch, match="netlist"):
            run_campaign(dual_ehb(initial_tokens=1), cfg, lanes=8,
                         checkpoint=ck)


@pytest.mark.slow
class TestKillAndResume:
    """The acceptance scenario: SIGKILL a sharded campaign, resume it."""

    def test_sigkilled_campaign_resumes_byte_identical(self, tmp_path):
        ck = tmp_path / "ck"
        report = tmp_path / "campaign.json"
        argv = [
            sys.executable, "-m", "repro", "inject",
            "--netlist", "dual_ehb", "--cycles", "120", "--jobs", "2",
            "--checkpoint", str(ck), "--report", str(report),
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            argv, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,  # its own process group, workers too
        )
        try:
            # Wait for some—but not all—chunks, then kill without grace.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break  # finished before we could kill it; still fine
                if len(list(ck.glob("chunk-*.json"))) >= 2:
                    proc.send_signal(signal.SIGKILL)
                    proc.wait(timeout=30)
                    break
                time.sleep(0.05)
            else:
                pytest.fail("campaign produced no chunks to kill over")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        # Only the coordinator was killed; its workers must notice and go.
        assert_group_gone(proc.pid)

        resume = subprocess.run(
            [
                sys.executable, "-m", "repro", "inject",
                "--netlist", "dual_ehb", "--cycles", "120", "--jobs", "2",
                "--resume", str(ck), "--report", str(report),
            ],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert resume.returncode == 0, resume.stderr
        assert report.read_text() == golden_json()
        # The store was reused, not rebuilt from scratch.
        manifest = json.loads((ck / "manifest.json").read_text())
        assert manifest["target"] == "dual_ehb"

    def test_ctrl_c_terminates_workers_and_exits_130(self, tmp_path):
        ck = tmp_path / "ck"
        argv = [
            sys.executable, "-m", "repro", "inject",
            "--netlist", "dual_ehb", "--cycles", "2000", "--jobs", "2",
            "--checkpoint", str(ck),
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120
            while not list(ck.glob("chunk-*.json")):
                if proc.poll() is not None or time.monotonic() > deadline:
                    pytest.fail("campaign produced no chunk to interrupt")
                time.sleep(0.05)
            # Ctrl-C in a terminal signals the whole foreground group.
            os.killpg(proc.pid, signal.SIGINT)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30)
        assert proc.returncode == 130, stderr
        assert "interrupted; worker processes terminated" in stderr
        assert_group_gone(proc.pid, timeout=0)
