"""The compiled campaign harness against the scalar harness it replaced.

Every RTL campaign runs on :class:`~repro.faults.batch.
BatchCampaignHarness`.  The scalar harness of
``tests/faults/scalar_reference.py`` is the reference: per-fault
outcomes, whole-schedule replays, rendered failures and shrunk
schedules must all equal its own, and a report built from its outcomes
must still reproduce the checked-in campaign golden byte for byte.
Each target's scalar sweep runs once per module.
"""

import pathlib
import re

import pytest

from repro.faults.batch import BatchCampaignHarness
from repro.faults.campaign import (
    CampaignConfig,
    CampaignReport,
    _apply_untestable_analysis,
    _chunked,
    enumerate_injections,
    run_campaign,
)
from repro.faults.models import Injection, transient_flip
from repro.faults.shrink import (
    failing_predicate,
    render_failure,
    shrink_schedule,
)
from repro.faults.targets import TARGETS, dual_ehb
from repro.rtl.toposort import CombinationalCycleError
from tests.faults.scalar_reference import CampaignHarness

GOLDEN = pathlib.Path(__file__).parent / "golden" / "dual_ehb_c120_s2007.json"

#: Three kinds at two injection cycles; the late one leaves faults
#: latent or undetected at the horizon, so every status occurs.
SWEEP = CampaignConfig(
    cycles=40, seed=2007, kinds=("stuck0", "stuck1", "flip"),
    injection_cycles=(0, 37), flip_duration=2, untestable_analysis=False,
)


@pytest.fixture(scope="module")
def reference_sweeps():
    """Each stock target's injections and scalar outcomes."""
    sweeps = {}
    for name in sorted(TARGETS):
        target = TARGETS[name]()
        injections = enumerate_injections(target, SWEEP)
        outcomes = CampaignHarness(target, SWEEP).run_chunk(injections)
        sweeps[name] = (target, injections, outcomes)
    return sweeps


@pytest.mark.parametrize("lanes", [1, 64])
@pytest.mark.parametrize("name", sorted(TARGETS))
def test_run_chunk_matches_the_reference(reference_sweeps, name, lanes):
    target, injections, expected = reference_sweeps[name]
    harness = BatchCampaignHarness(target, SWEEP, lanes)
    got = [
        outcome
        for chunk in _chunked(injections, lanes)
        for outcome in harness.run_chunk(chunk)
    ]
    assert got == expected
    assert {o.status for o in expected} >= {"detected", "undetected"}


def test_statuses_cover_latent_faults(reference_sweeps):
    assert any(
        o.status == "latent"
        for _, _, outcomes in reference_sweeps.values() for o in outcomes
    )


def test_reference_outcomes_reproduce_the_golden_report():
    config = CampaignConfig(cycles=120, seed=2007)
    target = dual_ehb()
    injections = enumerate_injections(target, config)
    outcomes = CampaignHarness(target, config).run_chunk(injections)
    report = CampaignReport(
        target=target.name, seed=config.seed, cycles=config.cycles
    )
    report.outcomes = _apply_untestable_analysis(
        target, config, injections, outcomes
    )
    assert report.to_json() == GOLDEN.read_text()


# ----------------------------------------------------------------------
# Whole schedules in lane 0
# ----------------------------------------------------------------------
SCHEDULE_CONFIG = CampaignConfig(cycles=120, seed=2007)

#: Overlapping faults on one net resolve to the later active entry.
SCHEDULES = {
    "empty": [],
    "stuck0-then-stuck1": [Injection("eb.t0", "stuck0"),
                           Injection("eb.t0", "stuck1")],
    "stuck1-then-stuck0": [Injection("eb.t0", "stuck1"),
                           Injection("eb.t0", "stuck0")],
    "later-activation": [Injection("R.vp", "stuck1", cycle=9),
                         Injection("R.vp", "stuck0", cycle=2)],
    "flip-over-stuck0": [Injection("eb.t0", "stuck0"),
                         transient_flip("eb.t0", cycle=4, duration=3)],
    "flip-over-stuck1": [Injection("eb.up", "stuck1"),
                         transient_flip("eb.up", cycle=4, duration=3)],
    "stuck-over-flip": [transient_flip("L.sp", cycle=3, duration=5),
                        Injection("L.sp", "stuck0", cycle=5)],
    "riders": [transient_flip("eb.t1", cycle=10_000),
               Injection("R.sn", "stuck0", cycle=30),
               Injection("eb.a1", "flip", cycle=40, duration=2),
               transient_flip("eb.a0", cycle=10_000)],
    "undetected": [Injection("not$9", "stuck1")],
}


@pytest.fixture(scope="module")
def reference_harness():
    return CampaignHarness(dual_ehb(), SCHEDULE_CONFIG)


@pytest.mark.parametrize("lanes", [1, 8])
@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_run_schedule_matches_the_reference(reference_harness, name, lanes):
    schedule = SCHEDULES[name]
    harness = BatchCampaignHarness(dual_ehb(), SCHEDULE_CONFIG, lanes)
    violation, steps, final = harness.run_schedule(schedule, record=True)
    assert (violation, steps, final) == reference_harness.run_schedule(
        schedule, record=True
    )
    assert harness.run_schedule(schedule) == (violation, None, final)
    assert render_failure(harness, schedule) == render_failure(
        reference_harness, schedule
    )


def test_same_net_order_decides_the_verdict(reference_harness):
    forward = reference_harness.run_schedule(SCHEDULES["stuck0-then-stuck1"])
    backward = reference_harness.run_schedule(SCHEDULES["stuck1-then-stuck0"])
    assert forward[0] != backward[0]


@pytest.mark.parametrize("name", [
    "stuck0-then-stuck1", "stuck1-then-stuck0", "flip-over-stuck0",
    "flip-over-stuck1", "stuck-over-flip", "riders",
])
def test_shrink_matches_the_reference(reference_harness, name):
    schedule = SCHEDULES[name]
    harness = BatchCampaignHarness(dual_ehb(), SCHEDULE_CONFIG, 1)
    minimal = shrink_schedule(schedule, failing_predicate(harness))
    assert minimal == shrink_schedule(
        schedule, failing_predicate(reference_harness)
    )
    assert render_failure(harness, minimal) == render_failure(
        reference_harness, minimal
    )


@pytest.mark.parametrize("cycle", [0, 10_000])
def test_schedule_outside_the_fault_sites_is_rejected(cycle):
    harness = BatchCampaignHarness(dual_ehb(), SCHEDULE_CONFIG, 1)
    harness.run_schedule([Injection("eb.t0", "stuck1")])
    time = harness.sim.time
    # L.vp is driven by the environment, not by the DUT: no fault site.
    with pytest.raises(ValueError, match=r"L\.vp"):
        harness.run_schedule([Injection("eb.t0", "stuck1"),
                              Injection("L.vp", "stuck0", cycle=cycle)])
    assert harness.sim.time == time  # refused before simulating


@pytest.mark.parametrize("lanes", [1, 8])
def test_cyclic_netlist_campaign_raises(lanes):
    # A combinational loop the scalar fixed point settles but the
    # compiled simulator refuses.
    target = dual_ehb()
    target.netlist.OR("cyc.b", "src.choice", out="cyc.a")
    target.netlist.AND("cyc.a", "snk.stall", out="cyc.b")
    with pytest.raises(CombinationalCycleError,
                       match=re.escape("cyc.a -> cyc.b -> cyc.a")):
        run_campaign(target, CampaignConfig(cycles=60, seed=3), lanes=lanes)
