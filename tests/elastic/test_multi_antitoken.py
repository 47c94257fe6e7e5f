"""Tests for the Sect. 7 extension: multi-anti-token storage in EJs."""

import random

import pytest

from repro.elastic.behavioral import EarlyJoin, ElasticNetwork
from repro.elastic.crosscheck import ScriptedEnd
from repro.elastic.ee import MuxEE


def make_ej(anti_capacity=1):
    net = ElasticNetwork("ej")
    ins = [net.add_channel(n, monitor=False) for n in ("s", "a", "b")]
    out = net.add_channel("z", monitor=False)
    prods = [ScriptedEnd(f"p.{ch.name}", ch, "producer") for ch in ins]
    cons = ScriptedEnd("c", out, "consumer")
    ee = MuxEE(select=0, chooser=lambda s: 1 if s else 2, arity=3)
    ej = EarlyJoin("ej", ins, out, ee, anti_capacity=anti_capacity)
    for p in prods:
        net.add(p)
    net.add(ej)
    net.add(cons)
    return net, prods, ej, cons


class TestCapacityValidation:
    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            make_ej(anti_capacity=0)


class TestCapacityOne:
    """Capacity 1 must behave exactly like the paper's controller."""

    def test_single_firing_then_blocked(self):
        net, (ps, pa, pb), ej, cons = make_ej(anti_capacity=1)
        ps.set(1, 0, data=True)
        pa.set(1, 0, data="A")
        pb.set(0, 1)  # b refuses anti-tokens
        cons.set(0, 0)
        net.step()
        assert ej.apend == [0, 0, 1]
        ps.set(1, 0, data=True)
        pa.set(1, 0, data="A2")
        net.step()
        assert net.channels["z"].vp == 0  # B gate blocks


class TestCapacityTwo:
    def test_two_firings_before_blocking(self):
        net, (ps, pa, pb), ej, cons = make_ej(anti_capacity=2)
        cons.set(0, 0)
        pb.set(0, 1)  # b never absorbs anti-tokens
        fired = 0
        for k in range(3):
            ps.set(1, 0, data=True)
            pa.set(1, 0, data=f"A{k}")
            net.step()
            fired += net.channels["z"].last_event.value == "+"
        assert fired == 2
        assert ej.apend[2] == 2

    def test_counters_drain_one_per_cycle(self):
        net, (ps, pa, pb), ej, cons = make_ej(anti_capacity=2)
        cons.set(0, 0)
        pb.set(0, 1)
        for k in range(2):
            ps.set(1, 0, data=True)
            pa.set(1, 0, data=f"A{k}")
            net.step()
        assert ej.apend[2] == 2
        # now b accepts anti-tokens again
        ps.set(0, 0)
        pa.set(0, 0)
        pb.set(0, 0)
        net.step()
        assert ej.apend[2] == 1
        assert net.channels["b"].last_event.value == "-"
        net.step()
        assert ej.apend[2] == 0

    def test_pending_antis_kill_two_late_tokens(self):
        net, (ps, pa, pb), ej, cons = make_ej(anti_capacity=2)
        cons.set(0, 0)
        pb.set(0, 1)
        for k in range(2):
            ps.set(1, 0, data=True)
            pa.set(1, 0, data=f"A{k}")
            net.step()
        ps.set(0, 0)
        pa.set(0, 0)
        for _ in range(2):
            pb.set(1, 0, data="late")
            net.step()
            assert net.channels["b"].last_event.value == "±"
        assert ej.apend[2] == 0

    def test_masked_input_not_consumed(self):
        """A token on an input with pending anti-tokens is annihilated,
        never used as an operand."""
        net, (ps, pa, pb), ej, cons = make_ej(anti_capacity=2)
        cons.set(0, 0)
        pb.set(0, 1)
        ps.set(1, 0, data=True)
        pa.set(1, 0, data="A0")
        net.step()  # apend[b] = 1
        # now select b while b's token arrives -- but it is doomed
        ps.set(1, 0, data=False)
        pa.set(0, 0)
        pb.set(1, 0, data="DOOMED")
        net.step()
        assert net.channels["z"].vp == 0  # cannot fire with a doomed operand
        assert net.channels["b"].last_event.value == "±"


    def test_early_firing_owes_a_masked_input_again(self):
        """A firing that does not use an input whose token is doomed
        leaves that input owing one more anti-token: the arriving
        token cancels the pending one, the firing adds its own."""
        net, (ps, pa, pb), ej, cons = make_ej(anti_capacity=2)
        cons.set(0, 0)
        pb.set(0, 1)
        ps.set(1, 0, data=True)
        pa.set(1, 0, data="A0")
        net.step()  # apend[b] = 1
        ps.set(1, 0, data=True)
        pa.set(1, 0, data="A1")
        pb.set(1, 0, data="DOOMED")
        net.step()
        assert net.channels["z"].last_event.value == "+"
        assert net.channels["b"].last_event.value == "±"
        assert ej.apend == [0, 0, 1]


class TestThroughputEffect:
    def _run(self, anti_capacity, cycles=2000, seed=7):
        """Bursty anti-token drain on b (mean adequate, high variance)."""
        rng = random.Random(seed)
        net, (ps, pa, pb), ej, cons = make_ej(anti_capacity=anti_capacity)
        transfers = 0
        drain_open = True
        for cycle in range(cycles):
            if rng.random() < 0.1:  # bursty: toggle the drain rarely
                drain_open = not drain_open
            ps.set(1, 0, data=True)  # always select a
            pa.set(1, 0, data="a")
            pb.set(0, 0 if drain_open else 1)
            cons.set(0, 0)
            net.step()
            transfers += net.channels["z"].last_event.value == "+"
        return transfers / cycles

    def test_paper_finding_little_motivation_for_deeper_storage(self):
        """Reproduces the Sect. 7 remark: "this might improve
        performance in some corner cases, but we found little
        experimental motivation for this feature."

        The structural reason: the negative sub-channel delivers at
        most one anti-token per cycle, so a join firing once per cycle
        saturates the counterflow wire no matter how many anti-tokens
        it can *store* -- steady-state throughput is capped by the
        drain's duty cycle for every capacity.
        """
        th1 = self._run(anti_capacity=1)
        th8 = self._run(anti_capacity=8)
        assert th8 >= th1  # never hurts...
        assert th8 < th1 * 1.05  # ...but barely helps
