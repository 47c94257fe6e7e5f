"""Tests for the SELF protocol layer (Sect. 3 and 4)."""

import itertools

import pytest

from repro.elastic.protocol import (
    SETTLED_EVENTS,
    ChannelState,
    DualChannelEvent,
    ProtocolMonitor,
    ProtocolViolation,
    classify,
    classify_dual,
    event_of,
    invariant_holds,
)

E = DualChannelEvent


class TestClassify:
    def test_transfer(self):
        assert classify(1, 0) is ChannelState.TRANSFER

    def test_idle(self):
        assert classify(0, 0) is ChannelState.IDLE
        assert classify(0, 1) is ChannelState.IDLE

    def test_retry(self):
        assert classify(1, 1) is ChannelState.RETRY


class TestInvariant:
    @pytest.mark.parametrize(
        "wires,ok",
        [
            ((0, 0, 0, 0), True),
            ((1, 1, 0, 0), True),
            ((0, 0, 1, 0), True),
            ((1, 0, 1, 0), True),   # kill
            ((0, 1, 1, 0), False),  # V- & S+
            ((1, 0, 0, 1), False),  # V+ & S-
        ],
    )
    def test_cases(self, wires, ok):
        assert invariant_holds(*wires) is ok


class TestClassifyDual:
    def test_positive_transfer(self):
        assert classify_dual(1, 0, 0, 0) is DualChannelEvent.POSITIVE_TRANSFER

    def test_negative_transfer(self):
        assert classify_dual(0, 0, 1, 0) is DualChannelEvent.NEGATIVE_TRANSFER

    def test_kill(self):
        assert classify_dual(1, 0, 1, 0) is DualChannelEvent.KILL

    def test_retries(self):
        assert classify_dual(1, 1, 0, 0) is DualChannelEvent.RETRY_POS
        assert classify_dual(0, 0, 1, 1) is DualChannelEvent.RETRY_NEG

    def test_idle(self):
        assert classify_dual(0, 1, 0, 1) is DualChannelEvent.IDLE

    def test_invariant_violation_raises(self):
        with pytest.raises(ProtocolViolation):
            classify_dual(1, 0, 0, 1)

    # All 16 known (V+, S+, V-, S-) combinations: the strict event
    # (None where equation (2) is broken and classify_dual raises) and
    # the event the tolerant event_of reads.
    @pytest.mark.parametrize(
        "wires,strict,tolerant",
        [
            ((0, 0, 0, 0), E.IDLE, E.IDLE),
            ((0, 0, 0, 1), E.IDLE, E.IDLE),
            ((0, 0, 1, 0), E.NEGATIVE_TRANSFER, E.NEGATIVE_TRANSFER),
            ((0, 0, 1, 1), E.RETRY_NEG, E.RETRY_NEG),
            ((0, 1, 0, 0), E.IDLE, E.IDLE),
            ((0, 1, 0, 1), E.IDLE, E.IDLE),
            ((0, 1, 1, 0), None, E.NEGATIVE_TRANSFER),
            ((0, 1, 1, 1), None, E.RETRY_NEG),
            ((1, 0, 0, 0), E.POSITIVE_TRANSFER, E.POSITIVE_TRANSFER),
            ((1, 0, 0, 1), None, E.POSITIVE_TRANSFER),
            ((1, 0, 1, 0), E.KILL, E.KILL),
            ((1, 0, 1, 1), None, E.KILL),
            ((1, 1, 0, 0), E.RETRY_POS, E.RETRY_POS),
            ((1, 1, 0, 1), None, E.RETRY_POS),
            ((1, 1, 1, 0), None, E.KILL),
            ((1, 1, 1, 1), None, E.KILL),
        ],
    )
    def test_wire_table(self, wires, strict, tolerant):
        assert event_of(*wires) is tolerant
        if strict is None:
            with pytest.raises(ProtocolViolation):
                classify_dual(*wires)
        else:
            assert classify_dual(*wires) is strict

    def test_settled_table_reads_the_event_table(self):
        broken = []
        for code, wires in enumerate(itertools.product((0, 1), repeat=4)):
            vp, sp, vn, sn = wires
            assert code == vp << 3 | sp << 2 | vn << 1 | sn
            if invariant_holds(*wires):
                assert SETTLED_EVENTS[code] is event_of(*wires)
                assert classify_dual(*wires) is event_of(*wires)
                assert ProtocolMonitor().observe(*wires) is event_of(*wires)
            else:
                broken.append(wires)
                assert SETTLED_EVENTS[code] is None
                for classify in (classify_dual, ProtocolMonitor().observe):
                    with pytest.raises(ProtocolViolation, match="invariant"):
                        classify(*wires)
        assert len(SETTLED_EVENTS) == 16 and len(broken) == 7


class TestMonitor:
    def test_accepts_iirt_language(self):
        mon = ProtocolMonitor("ch")
        trace = [(0, 0), (0, 1), (1, 1), (1, 1), (1, 0), (0, 0), (1, 0)]
        # observe() raises on any Retry+ followed by a dropped V+.
        events = [
            mon.observe(vp, sp, 0, 0, data="d" if vp else None)
            for vp, sp in trace
        ]
        assert events == [E.IDLE, E.IDLE, E.RETRY_POS, E.RETRY_POS,
                          E.POSITIVE_TRANSFER, E.IDLE, E.POSITIVE_TRANSFER]

    def test_dropping_valid_during_retry_raises(self):
        mon = ProtocolMonitor("ch")
        mon.observe(1, 1, 0, 0, data="a")
        with pytest.raises(ProtocolViolation):
            mon.observe(0, 0, 0, 0)

    def test_changing_data_during_retry_raises(self):
        mon = ProtocolMonitor("ch")
        mon.observe(1, 1, 0, 0, data="a")
        with pytest.raises(ProtocolViolation):
            mon.observe(1, 1, 0, 0, data="b")

    def test_data_check_can_be_disabled(self):
        mon = ProtocolMonitor("ch", check_data=False)
        mon.observe(1, 1, 0, 0, data="a")
        mon.observe(1, 0, 0, 0, data="b")  # no raise

    def test_anti_token_persistence(self):
        mon = ProtocolMonitor("ch")
        mon.observe(0, 0, 1, 1)  # Retry-
        with pytest.raises(ProtocolViolation):
            mon.observe(0, 0, 0, 0)

    def test_persistence_is_checked_only_after_a_retry(self):
        mon = ProtocolMonitor("ch")
        # no retry pending: V+ and V- may drop, the payload may change
        for wires in [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0), (1, 0, 1, 0)]:
            mon.observe(*wires, data=object())
        mon.observe(0, 0, 1, 1)  # Retry-
        mon.observe(0, 0, 1, 0)  # transferred: the retry is discharged
        mon.observe(1, 1, 0, 0, data="a")  # Retry+
        mon.observe(1, 0, 0, 0, data="a")  # transferred
        mon.observe(0, 0, 0, 0)

    def test_kill_discharges_retry(self):
        mon = ProtocolMonitor("ch")
        mon.observe(1, 1, 0, 0, data="a")
        mon.observe(1, 0, 1, 0, data="a")  # killed
        mon.observe(0, 0, 0, 0)  # idle fine now
