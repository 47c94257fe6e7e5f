"""Scheduler tests: guided leases, deterministic stealing, dedup.

Clock-free: a lease size is a function of the queue alone, so nothing
here sleeps or fakes a clock.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric.scheduler import WorkStealingScheduler


def sched(n=20, workers=1):
    return WorkStealingScheduler([(i, f"p{i}") for i in range(n)], workers)


def ceil_div(a, b):
    return -(-a // b)


def top_up(s, worker):
    """What the coordinator does for an idle worker: grant, else steal."""
    if s.outstanding.get(worker):
        return []
    return s.grant(worker) or s.steal(worker)[1]


def assert_each_unit_in_one_place(s, units):
    """Every unfinished unit is pending or held by exactly one worker;
    a finished one is neither."""
    assert s.pending == sorted(s.pending)
    places = Counter(s.pending)
    for held in s.outstanding.values():
        assert held == sorted(held)
        places.update(held)
    for index in range(units):
        assert places[index] == (0 if index in s.completed else 1), index


class TestLeasing:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("units", [0, 1, 2, 5, 16, 23, 157])
    def test_grants_take_ceil_pending_over_workers(self, units, workers):
        s = sched(units, workers)
        names = [f"w{k}" for k in range(workers)]
        leased = []
        for turn in range(units + 1):
            pending = len(s.pending)
            lease = s.grant(names[turn % workers])
            assert len(lease) == ceil_div(pending, workers)
            assert lease == [(i, f"p{i}") for i in range(
                len(leased), len(leased) + len(lease))]
            leased += lease
        assert len(leased) == units
        assert s.pending == []
        assert s.grant("late") == []

    def test_grants_are_index_ordered_runs(self):
        s = sched(10, 2)
        assert [i for i, _ in s.grant("a")] == [0, 1, 2, 3, 4]
        assert [i for i, _ in s.grant("b")] == [5, 6, 7]
        assert [i for i, _ in s.grant("a")] == [8]
        assert [i for i, _ in s.grant("b")] == [9]
        assert s.grant("a") == []
        assert s.stats()["last_lease"] == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            sched(4, 0)
        with pytest.raises(ValueError, match="unique"):
            WorkStealingScheduler([(0, "a"), (0, "b")], 1)


class TestStealing:
    def test_steals_back_half_from_biggest_victim(self):
        s = sched(12, 2)
        s.grant("a")  # a: 0..5
        s.grant("b")  # b: 6..8
        s.complete(6)  # b: 7, 8
        victim, stolen = s.steal("c")
        assert victim == "a"
        assert [i for i, _ in stolen] == [3, 4, 5]  # back half by index
        assert s.outstanding["a"] == [0, 1, 2]

    def test_tie_breaks_lexicographically(self):
        s = sched(6, 3)
        s.grant("zeta")  # 0, 1
        s.grant("alpha")  # 2, 3
        victim, stolen = s.steal("thief")
        assert victim == "alpha"
        assert [i for i, _ in stolen] == [3]

    def test_never_steals_a_lone_unit(self):
        s = sched(1, 1)
        s.grant("a")
        assert s.steal("b") == (None, [])

    def test_thief_is_never_its_own_victim(self):
        s = sched(4, 1)
        s.grant("a")
        assert s.steal("a") == (None, [])

    def test_steal_counts_in_stats(self):
        s = sched(4, 1)
        s.grant("a")
        s.steal("b")
        assert s.stats()["steals"] == 1


class TestCompletionAndLoss:
    def test_duplicate_results_first_wins(self):
        s = sched(4, 1)
        s.grant("a")
        assert s.complete(0) is True
        assert s.complete(0) is False

    def test_requeue_returns_only_incomplete_units(self):
        s = sched(6, 1)
        s.grant("a")
        s.complete(0)
        s.complete(1)
        lost = s.requeue("a", [0, 1, 2, 3, 4, 5])
        assert lost == [2, 3, 4, 5]
        assert s.pending == [2, 3, 4, 5]
        assert "a" not in s.outstanding

    def test_requeued_units_regrant_in_index_order(self):
        s = sched(6, 2)
        s.grant("a")  # 0, 1, 2
        s.grant("b")  # 3, 4
        s.requeue("a", [0, 1, 2])
        assert s.pending == [0, 1, 2, 5]
        assert [i for i, _ in s.grant("c")] == [0, 1]
        assert s.pending == [2, 5]

    def test_done_only_when_every_unit_completed(self):
        s = sched(3, 1)
        s.grant("a")
        for i in range(3):
            assert not s.done
            s.complete(i)
        assert s.done

    def test_requeue_takes_back_only_the_given_units(self):
        s = sched(4, 1)
        s.grant("a")
        assert s.requeue("a", [2, 3]) == [2, 3]
        assert s.outstanding["a"] == [0, 1]
        assert s.pending == [2, 3]

    def test_requeue_leaves_a_stolen_unit_with_its_thief(self):
        # The victim reports an error on a unit it had started before
        # the revoke arrived: the thief still holds it, so it is not
        # queued a second time.
        s = sched(4, 1)
        s.grant("victim")  # 0..3
        s.steal("thief")  # 2, 3
        assert s.requeue("victim", [2]) == []
        assert s.pending == []
        assert s.outstanding == {"victim": [0, 1], "thief": [2, 3]}


class TestScheduleInvariance:
    """Any schedule yields the same completed set -- the determinism core."""

    def test_chaotic_schedule_completes_every_unit_exactly_once(self):
        s = sched(50, 4)
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

    @given(
        units=st.integers(0, 40),
        workers=st.integers(1, 5),
        ops=st.lists(
            st.tuples(
                st.sampled_from(("top_up", "complete", "requeue")),
                st.integers(0, 5),
                st.integers(0, 2**40),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_each_unfinished_unit_is_pending_or_held_once(
        self, units, workers, ops
    ):
        """Grants, steals, completions and requeues in any order.

        A requeue names any units at all -- the worker's own (a lost
        connection), or one it lost to a thief (an error reported after
        a late revoke) -- and every grant still takes
        ``ceil(pending / workers)`` units from the front of the queue.
        """
        s = sched(units, workers)
        names = [f"w{k}" for k in range(6)]
        for op, who, pick in ops:
            name = names[who]
            if op == "top_up":
                idle, pending = not s.outstanding.get(name), list(s.pending)
                lease = top_up(s, name)
                if idle and pending:
                    size = ceil_div(len(pending), workers)
                    assert [i for i, _ in lease] == pending[:size]
            elif op == "complete":
                held = s.outstanding.get(name)
                if held:
                    s.complete(held[pick % len(held)])
            else:
                s.requeue(name, [i for i in range(units) if pick >> i & 1])
            assert_each_unit_in_one_place(s, units)
        for held in list(s.outstanding.values()):
            for index in list(held):
                s.complete(index)
        while not s.done:
            for index, _ in top_up(s, "drain"):
                s.complete(index)
        assert s.completed == set(range(units))
