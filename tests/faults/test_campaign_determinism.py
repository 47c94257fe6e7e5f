"""Determinism of the lane-parallel / sharded campaign runner.

The lane-parallel compiled simulator and the sharding over local fabric
workers are pure implementation choices: for a given (target, config) the JSON campaign
report must be *byte-identical* whatever ``lanes``/``jobs`` split runs
it.  A fixed-seed golden report is checked in to catch any silent
drift in stimulus generation, monitor ordering or report formatting.
"""

import functools
import pathlib

import pytest

from repro.faults import (
    CampaignConfig,
    enumerate_injections,
    resolve_target,
    run_campaign,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "dual_ehb_c120_s2007.json"
CONFIG = CampaignConfig(cycles=120, seed=2007)


@functools.lru_cache(maxsize=None)
def _report_json(lanes: int, jobs: int, kinds=None) -> str:
    config = CONFIG if kinds is None else CampaignConfig(
        cycles=120, seed=2007, kinds=kinds
    )
    return run_campaign("dual_ehb", config, lanes=lanes, jobs=jobs).to_json()


def test_matches_checked_in_golden():
    assert _report_json(1, 1) == GOLDEN.read_text()


@pytest.mark.parametrize("lanes,jobs", [(64, 1), (64, 4), (1, 3), (7, 2)])
def test_sharded_report_is_byte_identical(lanes, jobs):
    assert _report_json(lanes, jobs) == _report_json(1, 1)


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


def test_chunk_order_never_changes_batch_verdicts():
    """Regression: a reused batch harness must clear lane overrides.

    Stuck faults stay active to the end of their run; before the fix a
    chunk whose earliest activity edge sat past cycle 0 simulated its
    opening cycles under the *previous* chunk's faults, so verdicts
    depended on which chunk a worker happened to run first (late
    injection cycles made this visible: spurious detections of faults
    that never even activate inside the horizon).
    """
    from repro.faults.campaign import _chunked, _make_harness

    config = CampaignConfig(
        cycles=40, seed=2007, injection_cycles=tuple(range(0, 109, 7)),
        untestable_analysis=False,
    )
    target = resolve_target("dual_ehb")
    chunks = _chunked(enumerate_injections(target, config), 32)
    reused = _make_harness(target, config, 32, None)
    in_order = [
        [o.to_dict() for o in reused.run_chunk(chunk)] for chunk in chunks
    ]
    for index in (2, 0, len(chunks) - 1):
        fresh = _make_harness(target, config, 32, None)
        assert [
            o.to_dict() for o in fresh.run_chunk(chunks[index])
        ] == in_order[index], f"chunk {index} depends on chunk order"
