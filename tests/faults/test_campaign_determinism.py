"""Determinism of the lane-parallel / sharded campaign runner.

The lane-parallel compiled simulator and the sharding over local fabric
workers are pure implementation choices: for a given (target, config) the JSON campaign
report must be *byte-identical* whatever ``lanes``/``jobs`` split runs
it.  A fixed-seed golden report is checked in to catch any silent
drift in stimulus generation, monitor ordering or report formatting.
"""

import functools
import os
import pathlib

import pytest

from repro.codegen import cache as codegen_cache
from repro.faults import (
    CampaignConfig,
    enumerate_injections,
    resolve_target,
    run_campaign,
)
from repro.faults.targets import TARGETS

GOLDEN = pathlib.Path(__file__).parent / "golden" / "dual_ehb_c120_s2007.json"
CONFIG = CampaignConfig(cycles=120, seed=2007)


@functools.lru_cache(maxsize=None)
def _report_json(lanes: int, jobs: int, kinds=None, target="dual_ehb") -> str:
    config = CONFIG if kinds is None else CampaignConfig(
        cycles=120, seed=2007, kinds=kinds
    )
    return run_campaign(target, config, lanes=lanes, jobs=jobs).to_json()


def test_matches_checked_in_golden():
    assert _report_json(1, 1) == GOLDEN.read_text()


@pytest.mark.parametrize("lanes,jobs", [(64, 1), (64, 4), (1, 3), (7, 2)])
def test_sharded_report_is_byte_identical(lanes, jobs):
    assert _report_json(lanes, jobs) == _report_json(1, 1)


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_every_target_shards_identically(target):
    """The ledger's ``lanes=16, jobs=2`` split on every stock target:
    campaigns of 1 to 7 leased units."""
    assert _report_json(16, 2, target=target) == _report_json(
        1, 1, target=target)


def test_flip_faults_shard_identically():
    kinds = ("stuck0", "stuck1", "flip")
    assert _report_json(64, 4, kinds) == _report_json(1, 1, kinds)


@pytest.mark.parametrize("jobs", [1, 2])
def test_unwritable_cache_root_report_is_identical(jobs, tmp_path,
                                                   monkeypatch):
    """A cache root that cannot be created degrades to in-memory builds."""
    writable = tmp_path / "rw"
    reference = run_campaign(
        "dual_ehb", CONFIG, lanes=16, jobs=jobs, cache=str(writable)
    ).to_json()
    assert any(writable.iterdir())
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
    report = run_campaign("dual_ehb", CONFIG, lanes=16, jobs=jobs).to_json()
    assert report == reference == _report_json(1, 1)


def test_invalid_lane_and_job_counts():
    with pytest.raises(ValueError):
        run_campaign("dual_ehb", CONFIG, lanes=0)
    with pytest.raises(ValueError):
        run_campaign("dual_ehb", CONFIG, jobs=0)


def test_jobs_and_workers_are_exclusive():
    with pytest.raises(ValueError, match="replaces jobs"):
        run_campaign("dual_ehb", CONFIG, jobs=2, workers=["127.0.0.1:1"])


def test_sharding_needs_a_named_target():
    target = resolve_target("dual_ehb")
    with pytest.raises(ValueError, match="named target"):
        run_campaign(target, CONFIG, jobs=2)
    # One job runs in process, so a target object is fine there.
    assert run_campaign(target, CONFIG).to_json() == _report_json(1, 1)


@pytest.mark.parametrize("split", [
    dict(jobs=2), dict(workers=["127.0.0.1:1"]),
], ids=["local", "remote"])
def test_fabric_rejects_a_cache_it_cannot_ship(split, tmp_path):
    """Workers open the cache by its path, so the fabric takes a path
    or None; anything else fails before any worker is forked or dialled
    (nothing listens on port 1) and before anything is built."""
    cache = codegen_cache.BuildCache(tmp_path)
    with pytest.raises(ValueError, match="cache must be a directory path"):
        run_campaign("dual_ehb", CONFIG, lanes=16, cache=cache, **split)
    assert not any(tmp_path.iterdir())


def test_local_fabric_takes_a_path_cache(tmp_path):
    root = tmp_path / "cache"
    report = run_campaign("dual_ehb", CONFIG, lanes=16, jobs=2, cache=root)
    assert report.to_json() == _report_json(1, 1)
    assert any(root.iterdir())


def test_local_workers_compile_nothing(tmp_path, monkeypatch):
    """``jobs=2`` workers inherit the campaign module their parent
    loaded before forking: every generated module is compiled in this
    process, on an empty cache root and on a disk-warm one whose
    shared instances start cold."""
    log = tmp_path / "compiles"
    compile_chunks = codegen_cache._exec_module

    def logged(*args):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return compile_chunks(*args)

    monkeypatch.setattr(codegen_cache, "_exec_module", logged)
    config = CampaignConfig(cycles=60, seed=2007)
    reports = []
    for _ in range(2):
        monkeypatch.setattr(codegen_cache, "_CACHES", {})
        reports.append(run_campaign(
            "join", config, lanes=4, jobs=2, cache=str(tmp_path / "cache")
        ).to_json())
    assert reports[0] == reports[1]
    pids = log.read_text().split()
    assert pids and set(pids) == {str(os.getpid())}


def test_chunk_order_never_changes_batch_verdicts():
    """Regression: a reused batch harness must clear lane overrides.

    Stuck faults stay active to the end of their run; before the fix a
    chunk whose earliest activity edge sat past cycle 0 simulated its
    opening cycles under the *previous* chunk's faults, so verdicts
    depended on which chunk a worker happened to run first (late
    injection cycles made this visible: spurious detections of faults
    that never even activate inside the horizon).
    """
    from repro.faults.batch import BatchCampaignHarness
    from repro.faults.campaign import _chunked

    config = CampaignConfig(
        cycles=40, seed=2007, injection_cycles=tuple(range(0, 109, 7)),
        untestable_analysis=False,
    )
    target = resolve_target("dual_ehb")
    chunks = _chunked(enumerate_injections(target, config), 32)
    reused = BatchCampaignHarness(target, config, 32)
    in_order = [
        [o.to_dict() for o in reused.run_chunk(chunk)] for chunk in chunks
    ]
    for index in (2, 0, len(chunks) - 1):
        fresh = BatchCampaignHarness(target, config, 32)
        assert [
            o.to_dict() for o in fresh.run_chunk(chunks[index])
        ] == in_order[index], f"chunk {index} depends on chunk order"
