"""Trace shrinking: ddmin on injection schedules."""

import pytest

from repro.faults.batch import BatchCampaignHarness
from repro.faults.campaign import CampaignConfig
from repro.faults.models import Injection
from repro.faults.shrink import (
    failing_predicate,
    render_failure,
    shrink_schedule,
)
from repro.faults.targets import dual_ehb


class TestDdmin:
    def test_single_culprit_survives(self):
        schedule = list(range(8))
        result = shrink_schedule(
            schedule, lambda s: 5 in s, minimise_windows=False
        )
        assert result == [5]

    def test_pair_of_culprits_survives(self):
        schedule = list(range(10))
        result = shrink_schedule(
            schedule, lambda s: 2 in s and 9 in s, minimise_windows=False
        )
        assert sorted(result) == [2, 9]

    def test_passing_schedule_is_rejected(self):
        with pytest.raises(ValueError):
            shrink_schedule([1, 2, 3], lambda s: False,
                            minimise_windows=False)

    def test_already_minimal_is_kept(self):
        assert shrink_schedule([4], lambda s: 4 in s,
                               minimise_windows=False) == [4]


class TestFlakyPredicates:
    """Probes that raise or stop reproducing must cost one reduction
    step, never crash the shrinker."""

    def test_probe_that_raises_is_not_taken(self):
        def fails(schedule):
            if len(schedule) < 4:
                raise RuntimeError("candidate replay exploded")
            return 5 in schedule

        result = shrink_schedule(list(range(8)), fails,
                                 minimise_windows=False)
        # Every sub-4 probe raised, so reduction stopped there -- but the
        # result is still a confirmed-failing schedule containing 5.
        assert 5 in result
        assert len(result) >= 4

    def test_probe_that_always_raises_keeps_the_original(self):
        calls = {"n": 0}

        def fails(schedule):
            calls["n"] += 1
            if calls["n"] == 1:
                return True  # the initial confirmation
            raise OSError("simulator went away")

        schedule = [3, 1, 4, 1, 5]
        assert shrink_schedule(schedule, fails,
                               minimise_windows=False) == schedule

    def test_intermittent_failure_still_shrinks_to_a_culprit(self):
        flaky = {"n": 0}

        def fails(schedule):
            flaky["n"] += 1
            if flaky["n"] % 3 == 0:
                return False  # every third probe loses the repro
            return 6 in schedule

        result = shrink_schedule(list(range(10)), fails,
                                 minimise_windows=False)
        assert 6 in result
        assert len(result) < 10

    def test_window_tightening_survives_raising_probes(self):
        # The _tighten probes mutate candidates via dataclasses.replace;
        # a predicate that raises on transient variants must leave the
        # confirmed permanent fault in place.
        culprit = Injection("eb.t0", "stuck1")

        def fails(schedule):
            if any(f.duration is not None for f in schedule):
                raise ValueError("transient replay unsupported here")
            return any(f.net == "eb.t0" for f in schedule)

        minimal = shrink_schedule([culprit], fails)
        assert minimal == [culprit]

    def test_initial_nonfailing_exception_propagates(self):
        def fails(schedule):
            raise RuntimeError("broken before we even started")

        # The first confirmation runs unwrapped: a schedule that cannot
        # even be evaluated is a caller bug, not a flake.
        with pytest.raises(RuntimeError, match="before we even started"):
            shrink_schedule([1, 2], fails, minimise_windows=False)


class TestDeterministicTieBreak:
    """Equal-sized reductions resolve by canonical label order, so the
    shrunk schedule is a function of the failing *set*, not of the
    order the campaign discovered it in."""

    def test_order_independent_result(self):
        fails = lambda s: len(s) >= 1  # noqa: E731 - anything fails
        assert shrink_schedule(["a", "b"], fails,
                               minimise_windows=False) == ["a"]
        assert shrink_schedule(["b", "a"], fails,
                               minimise_windows=False) == ["a"]

    def test_permutations_converge(self):
        import itertools

        def fails(s):
            return "x" in s or "y" in s

        results = {
            tuple(shrink_schedule(list(perm), fails,
                                  minimise_windows=False))
            for perm in itertools.permutations(["x", "y", "z"])
        }
        assert results == {("x",)}

    def test_fixed_seed_output_is_byte_stable(self):
        # Locks the shrink output for one seeded schedule: any change
        # to the reduction order or tie-break shows up here.
        import random

        rng = random.Random("shrink-regression:1")
        schedule = [f"inj{rng.randrange(100):02d}" for _ in range(17)]
        culprits = {schedule[3], schedule[11]}

        def fails(s):
            return culprits.issubset(s)

        result = shrink_schedule(list(schedule), fails,
                                 minimise_windows=False)
        assert result == sorted(
            culprits, key=schedule.index
        ), f"tie-break regression: {result!r}"
        again = shrink_schedule(list(schedule), fails,
                                minimise_windows=False)
        assert repr(again) == repr(result)

    def test_injection_labels_drive_the_tie_break(self):
        a = Injection("eb.a0", "flip", cycle=3, duration=1)
        b = Injection("eb.t1", "flip", cycle=3, duration=1)
        fails = lambda s: len(s) >= 1  # noqa: E731
        fwd = shrink_schedule([a, b], fails, minimise_windows=False)
        rev = shrink_schedule([b, a], fails, minimise_windows=False)
        assert fwd == rev == [a]


class TestEndToEnd:
    """The acceptance scenario: a multi-fault failing schedule shrinks
    to a single-injection repro."""

    @pytest.fixture(scope="class")
    def harness(self):
        return BatchCampaignHarness(dual_ehb(), CampaignConfig(cycles=120), 1)

    def test_multi_fault_schedule_shrinks_to_one(self, harness):
        fails = failing_predicate(harness)
        culprit = Injection("eb.t0", "stuck1")
        # Riders with windows beyond the horizon never influence the
        # run; ddmin must strip them all.
        riders = [
            Injection(net, "flip", cycle=10_000, duration=1)
            for net in ("eb.t1", "eb.a0", "eb.a1")
        ]
        schedule = riders[:2] + [culprit] + riders[2:]
        assert fails(schedule)
        minimal = shrink_schedule(schedule, fails)
        assert len(minimal) == 1
        assert minimal[0].net == culprit.net
        assert minimal[0].kind == culprit.kind
        assert fails(minimal)

    def test_window_minimisation_produces_a_transient(self, harness):
        fails = failing_predicate(harness)
        minimal = shrink_schedule([Injection("eb.t0", "stuck1")], fails)
        # A permanent stuck-at whose effect is immediate tightens to a
        # short transient window.
        assert minimal[0].duration is not None

    def test_render_failure_shows_trace_and_verdict(self, harness):
        minimal = shrink_schedule(
            [Injection("eb.t0", "stuck1")], failing_predicate(harness)
        )
        text = render_failure(harness, minimal)
        assert "violation:" in text
        assert "counterexample" in text
        assert minimal[0].label().split("@")[0] in text

    def test_render_without_failure_says_so(self, harness):
        text = render_failure(
            harness, [Injection("eb.t0", "flip", cycle=10_000, duration=1)]
        )
        assert "no violation" in text
