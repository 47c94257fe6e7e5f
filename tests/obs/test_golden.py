"""Golden output bytes of ``repro profile`` and ``repro trace --events``.

The profile goldens are ``repro profile --design D --cycles 400
--json`` reports for every design (``--compare-model`` on all but
``processor``), regenerated with::

    for d in $(repro profile --list); do
        repro profile --design $d --cycles 400 --json \
            tests/obs/golden/profile-$d.json \
            $([ $d = processor ] || echo --compare-model)
    done

The trace event streams are too large to commit, so their sha256
digests are held here instead.  Both are independent of the scalar
reference in ``tests/obs/scalar_reference.py``, which shares the
channel classification and stall diagnosis with the code it checks.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.analyze import profile_designs, run_profile

GOLDEN = Path(__file__).parent / "golden"

DESIGNS = sorted(p.stem[len("profile-"):] for p in GOLDEN.glob("profile-*.json"))

#: sha256 of ``repro trace --config C --cycles 200 --events F``
TRACE_DIGESTS = {
    "pipeline": "17838d290247731673d0a15e37b6d85872572976be5b25016897dc895dd8f436",
    "active": "a2f10c3446c379c36201c3c8c8a284aa54ecee750e8575290e987d8fea59bd68",
    "lazy": "ea0d7078dcbf8923adfb8d0b40ccb214c63e8c8fb4abed92ede76732a8b03fff",
}


def test_every_design_has_a_golden():
    assert DESIGNS == sorted(profile_designs())


@pytest.mark.parametrize("design", DESIGNS)
def test_profile_report_matches_golden(design):
    report = run_profile(
        design, cycles=400, seed=2007, compare_model=design != "processor"
    )
    golden = (GOLDEN / f"profile-{design}.json").read_text()
    assert report.to_json() == golden


@pytest.mark.parametrize("config", sorted(TRACE_DIGESTS))
def test_trace_events_match_digest(config, tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    assert main(["trace", "--config", config, "--cycles", "200",
                 "--events", str(events)]) == 0
    digest = hashlib.sha256(events.read_bytes()).hexdigest()
    assert digest == TRACE_DIGESTS[config]
