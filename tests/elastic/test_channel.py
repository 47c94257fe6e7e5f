"""Tests for the dual-channel wire model."""

import itertools

import pytest

from repro.elastic.channel import Channel, ChannelStats
from repro.elastic.protocol import DualChannelEvent, ProtocolViolation
from repro.rtl.logic import X

#: each end, the wires it drives in argument order
ENDS = {"producer": ("vp", "sn"), "consumer": ("sp", "vn")}


def drive(ch, end, *values):
    return getattr(ch, f"drive_{end}")(*values)


def settled(ch, vp, sp, vn, sn):
    ch.drive_producer(vp, sn)
    ch.drive_consumer(sp, vn)


@pytest.fixture
def ch():
    c = Channel("c", monitor=False)
    c.begin_cycle()
    return c


class TestDriving:
    def test_wires_start_unknown(self, ch):
        assert ch.vp is X and ch.sp is X and ch.vn is X and ch.sn is X

    def test_drive_returns_change_flag(self, ch):
        assert ch.drive_producer(1, X) is True
        assert ch.drive_producer(1, X) is False  # same value, no change
        assert ch.drive_producer(1, 0) is True  # the other wire changed
        assert ch.drive_consumer(0, 0) is True
        assert ch.drive_consumer(0, 0) is False

    def test_driving_x_is_noop(self, ch):
        for end, wires in ENDS.items():
            assert drive(ch, end, X, X) is False
            assert all(getattr(ch, wire) is X for wire in wires)

    def test_conflicting_drive_raises(self):
        for end, wires in ENDS.items():
            for side, wire in enumerate(wires):
                c = Channel("c", monitor=False)
                first, clash = [X, X], [X, X]
                first[side], clash[side] = 0, 1
                drive(c, end, *first)
                with pytest.raises(
                    ProtocolViolation, match=rf"^c\.{wire}: conflicting"
                ):
                    drive(c, end, *clash)
                assert getattr(c, wire) == 0

    def test_truthy_normalisation(self, ch):
        for end, wires in ENDS.items():
            assert drive(ch, end, True, 7) is True
            assert [getattr(ch, wire) for wire in wires] == [1, 1]
            assert all(type(getattr(ch, wire)) is int for wire in wires)
            # an equal value in another form: no conflict and no change
            assert drive(ch, end, 1, True) is False

    def test_each_end_drives_only_its_wires(self, ch):
        ch.drive_producer(1, 0)
        assert (ch.vp, ch.sp, ch.vn, ch.sn) == (1, X, X, 0)
        ch.drive_consumer(1, 0)
        assert (ch.vp, ch.sp, ch.vn, ch.sn) == (1, 1, 0, 0)

    def test_put_data_reports_a_changed_payload(self, ch):
        payload = ("a", (1, 2))
        assert ch.put_data(payload) is True
        assert ch.put_data(payload) is False  # the same object
        assert ch.put_data(("a", (1, 2))) is False  # an equal fresh tuple
        assert ch.data is payload  # an equal payload keeps the current one
        assert ch.put_data(("a", (1, 3))) is True
        assert ch.data == ("a", (1, 3))


class TestSettling:
    def test_settled_requires_all_four(self, ch):
        ch.drive_producer(1, X)
        ch.drive_consumer(0, 0)
        assert not ch.settled()
        ch.drive_producer(X, 0)
        assert ch.settled()

    def test_require_settled_raises(self, ch):
        with pytest.raises(ProtocolViolation):
            ch.require_settled()

    def test_event_predicates(self, ch):
        settled(ch, 1, 0, 0, 0)
        assert ch.pos_transfer and not ch.neg_transfer and not ch.kill

    @pytest.mark.parametrize("wires", [
        wires for wires in itertools.product((0, 1, X), repeat=4)
        if X in wires
    ])
    def test_finish_cycle_needs_every_wire(self, wires):
        for monitor in (False, True):
            c = Channel("c", monitor=monitor)
            settled(c, *wires)
            with pytest.raises(ProtocolViolation, match="did not settle"):
                c.finish_cycle()
            assert c.stats.cycles == 0 and c.last_event is None


class TestLifecycle:
    def test_finish_cycle_classifies_and_counts(self, ch):
        settled(ch, 1, 0, 0, 0)
        event = ch.finish_cycle()
        assert event is DualChannelEvent.POSITIVE_TRANSFER
        assert ch.last_event is event
        assert ch.stats.positive == 1

    @pytest.mark.parametrize("monitor", [False, True])
    def test_finish_cycle_raises_on_broken_invariants(self, monitor):
        c = Channel("c", monitor=monitor)
        settled(c, 0, 1, 1, 0)  # V- and S+
        with pytest.raises(ProtocolViolation, match="invariant"):
            c.finish_cycle()

    def test_begin_cycle_clears_wires_and_data(self, ch):
        ch.drive_producer(1, X)
        ch.put_data("payload")
        ch.begin_cycle()
        assert ch.vp is X and ch.data is None

    def test_monitored_channel_enforces_persistence(self):
        c = Channel("m")
        c.begin_cycle()
        settled(c, 1, 1, 0, 0)
        c.put_data("a")
        c.finish_cycle()
        c.begin_cycle()
        settled(c, 0, 0, 0, 0)
        with pytest.raises(ProtocolViolation):
            c.finish_cycle()


class TestStats:
    def test_throughput_formula(self):
        s = ChannelStats()
        for ev in (
            DualChannelEvent.POSITIVE_TRANSFER,
            DualChannelEvent.NEGATIVE_TRANSFER,
            DualChannelEvent.KILL,
            DualChannelEvent.IDLE,
        ):
            s.record(ev)
        assert s.throughput == pytest.approx(0.75)

    def test_rates(self):
        s = ChannelStats()
        s.record(DualChannelEvent.POSITIVE_TRANSFER)
        s.record(DualChannelEvent.KILL)
        rates = s.rates()
        assert rates["+"] == 0.5 and rates["±"] == 0.5 and rates["-"] == 0.0

    def test_all_event_kinds_counted(self):
        s = ChannelStats()
        for ev in DualChannelEvent:
            s.record(ev)
        assert s.cycles == 6
        assert s.retries_pos == 1 and s.retries_neg == 1 and s.idle == 1

    def test_counts_keep_the_table_schema(self):
        s = ChannelStats()
        for n, ev in enumerate(DualChannelEvent):
            for _ in range(n):
                s.record(ev)
        assert s.counts == {ev: n for n, ev in enumerate(DualChannelEvent)}
        assert list(s.accounting()) == [
            "transfer+", "transfer-", "kill", "retry+", "retry-", "idle",
        ]
        assert s.accounting()["idle"] == 5
        assert s.rates() == {"+": 0 / 15, "-": 1 / 15, "±": 2 / 15}

    def test_zero_cycles_throughput(self):
        assert ChannelStats().throughput == 0.0
