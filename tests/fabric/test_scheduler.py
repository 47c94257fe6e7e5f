"""Scheduler tests: adaptive leases, deterministic stealing, dedup."""

import pytest

from repro.fabric.scheduler import WorkStealingScheduler


def sched(n=20, **kwargs):
    return WorkStealingScheduler([(i, f"p{i}") for i in range(n)], **kwargs)


class TestLeasing:
    def test_grants_are_index_ordered_runs(self):
        s = sched(10, fixed_lease=4)
        assert [i for i, _ in s.grant("a")] == [0, 1, 2, 3]
        assert [i for i, _ in s.grant("b")] == [4, 5, 6, 7]
        assert [i for i, _ in s.grant("a")] == [8, 9]
        assert s.grant("b") == []

    def test_first_lease_is_minimal_for_calibration(self):
        s = sched(100, min_lease=2, max_lease=64)
        assert s.lease_size() == 2

    def test_ewma_grows_leases_for_fast_units(self):
        s = sched(1000, lease_target_s=1.0, min_lease=1, max_lease=64)
        for _ in range(5):
            s.observe(0.05)  # 50ms/unit -> ~20 units per second
        assert s.lease_size() == 20

    def test_ewma_shrinks_leases_for_slow_units(self):
        s = sched(1000, lease_target_s=1.0, max_lease=64)
        s.observe(0.05)
        for _ in range(20):
            s.observe(5.0)  # units got slow
        assert s.lease_size() == 1

    def test_lease_respects_bounds(self):
        s = sched(1000, lease_target_s=1.0, min_lease=2, max_lease=8)
        s.observe(1e-9)
        assert s.lease_size() == 8
        s2 = sched(1000, lease_target_s=1.0, min_lease=2, max_lease=8)
        s2.observe(100.0)
        assert s2.lease_size() == 2

    def test_injections_per_unit_scales_the_estimate(self):
        # 64 injections per unit at 1ms each -> 64ms per unit.
        s = sched(1000, injections_per_unit=64, lease_target_s=0.64,
                  max_lease=100)
        s.observe(0.064)
        assert s.lease_size() == 10

    def test_fixed_lease_ignores_observations(self):
        s = sched(100, fixed_lease=7)
        s.observe(100.0)
        assert s.lease_size() == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            sched(fixed_lease=0)
        with pytest.raises(ValueError):
            sched(injections_per_unit=0)
        with pytest.raises(ValueError):
            sched(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            WorkStealingScheduler([(0, "a"), (0, "b")])


class TestStealing:
    def test_steals_back_half_from_biggest_victim(self):
        s = sched(12, fixed_lease=6)
        s.grant("a")  # a: 0..5
        s.grant("b")  # b: 6..11
        s.complete(6)
        s.complete(7)  # b: 8..11 (4 left); a: 6 left
        victim, stolen = s.steal("c")
        assert victim == "a"
        assert [i for i, _ in stolen] == [3, 4, 5]  # back half by index
        assert s.outstanding["a"] == [0, 1, 2]

    def test_tie_breaks_lexicographically(self):
        s = sched(8, fixed_lease=4)
        s.grant("zeta")  # 0..3
        s.grant("alpha")  # 4..7
        victim, stolen = s.steal("thief")
        assert victim == "alpha"
        assert [i for i, _ in stolen] == [6, 7]

    def test_never_steals_a_lone_unit(self):
        s = sched(1, fixed_lease=1)
        s.grant("a")
        assert s.steal("b") == (None, [])

    def test_thief_is_never_its_own_victim(self):
        s = sched(4, fixed_lease=4)
        s.grant("a")
        assert s.steal("a") == (None, [])

    def test_steal_counts_in_stats(self):
        s = sched(4, fixed_lease=4)
        s.grant("a")
        s.steal("b")
        assert s.stats()["steals"] == 1


class TestCompletionAndLoss:
    def test_duplicate_results_first_wins(self):
        s = sched(4, fixed_lease=4)
        s.grant("a")
        assert s.complete(0) is True
        assert s.complete(0) is False

    def test_requeue_returns_only_incomplete_units(self):
        s = sched(6, fixed_lease=6)
        s.grant("a")
        s.complete(0)
        s.complete(1)
        lost = s.requeue("a", [0, 1, 2, 3, 4, 5])
        assert lost == [2, 3, 4, 5]
        assert s.pending == [2, 3, 4, 5]
        assert "a" not in s.outstanding

    def test_requeued_units_regrant_in_index_order(self):
        s = sched(6, fixed_lease=3)
        s.grant("a")  # 0,1,2
        s.grant("b")  # 3,4,5
        s.requeue("a", [0, 1, 2])
        assert [i for i, _ in s.grant("b")] == [0, 1, 2]

    def test_done_only_when_every_unit_completed(self):
        s = sched(3, fixed_lease=3)
        s.grant("a")
        for i in range(3):
            assert not s.done
            s.complete(i)
        assert s.done

    def test_requeue_takes_back_only_the_given_units(self):
        s = sched(4, fixed_lease=4)
        s.grant("a")
        assert s.requeue("a", [2, 3]) == [2, 3]
        assert s.outstanding["a"] == [0, 1]
        assert s.pending == [2, 3]


class TestScheduleInvariance:
    """Any schedule yields the same completed set -- the determinism core."""

    def test_chaotic_schedule_completes_every_unit_exactly_once(self):
        s = sched(50, fixed_lease=5)
        s.grant("a")
        s.grant("b")
        s.grant("c")
        s.requeue("b", s.outstanding["b"])  # b dies
        s.steal("d")  # d steals from someone
        results = []
        # complete everything outstanding, plus duplicates
        for worker in list(s.outstanding):
            for index in list(s.outstanding[worker]):
                if s.complete(index):
                    results.append(index)
                s.complete(index)  # duplicate delivery
        while not s.done:
            for index, _ in s.grant("e") or s.steal("e")[1]:
                if s.complete(index):
                    results.append(index)
        assert sorted(results) == list(range(50))
