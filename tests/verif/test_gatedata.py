"""Exhaustive gate-level data correctness (the Fig. 8(b) check)."""

import itertools
import random

import pytest

from repro.elastic.gates import GateChannel
from repro.rtl.netlist import Netlist
from repro.rtl.simulator import TwoPhaseSimulator
from repro.verif.gatedata import (
    alternating_pipeline,
    build_alternating_source,
    build_checking_sink,
    build_data_buffer,
    build_data_fork,
    verify_data_correctness,
)


class TestDataBuffer:
    def test_fifo_semantics_random(self):
        """Drive the data buffer directly and model a reference FIFO."""
        nl = Netlist("dbuf")
        left = GateChannel.declare(nl, "L")
        right = GateChannel.declare(nl, "R")
        for w in (left.vp, left.sn, right.sp, right.vn):
            nl.add_input(w)
        din = nl.add_input("din")
        dout = build_data_buffer(nl, left, right, din, prefix="eb")
        nl.add_output(dout)
        sim = TwoPhaseSimulator(nl)
        rng = random.Random(0)
        fifo = []
        pending = None
        for _ in range(300):
            offer = pending if pending is not None else (
                rng.randint(0, 1) if rng.random() < 0.7 else None
            )
            stop = 1 if rng.random() < 0.3 else 0
            vals = sim.cycle({
                left.vp: 1 if offer is not None else 0,
                "din": offer if offer is not None else 0,
                left.sn: 1,
                right.sp: stop,
                right.vn: 0,
            })
            # reference model
            if vals[right.vp] == 1 and stop == 0:
                expect = fifo.pop(0)
                assert vals[dout] == expect
            if offer is not None:
                if vals[left.sp] == 0:
                    fifo.append(offer)
                    pending = None
                else:
                    pending = offer
            assert len(fifo) <= 2

    def test_exhaustive_pipeline_no_kills(self):
        nl, errors = alternating_pipeline(n_buffers=2, with_kill=False)
        ok, kripke = verify_data_correctness(nl, errors)
        assert ok
        assert len(kripke) > 20

    def test_exhaustive_pipeline_with_kills(self):
        nl, errors = alternating_pipeline(n_buffers=2, with_kill=True)
        ok, kripke = verify_data_correctness(nl, errors)
        assert ok, "alternating trace violated under kills"

    def test_single_buffer_with_kills(self):
        nl, errors = alternating_pipeline(n_buffers=1, with_kill=True)
        ok, _ = verify_data_correctness(nl, errors)
        assert ok

    @pytest.mark.parametrize("with_kill", [False, True])
    def test_sabotage_detected(self, with_kill):
        """A buffer that never shifts its head slot must be caught."""
        nl, errors = alternating_pipeline(n_buffers=2, with_kill=with_kill,
                                          sabotage=True)
        ok, _ = verify_data_correctness(nl, errors)
        assert not ok


class TestForkedDatapath:
    def test_fork_to_two_checkers(self):
        """producer -> buffer -> fork -> two checking consumers."""
        nl = Netlist("forked")
        c0 = GateChannel.declare(nl, "c0")
        c1 = GateChannel.declare(nl, "c1")
        b0 = GateChannel.declare(nl, "b0")
        b1 = GateChannel.declare(nl, "b1")
        choice = nl.add_input("src.choice")
        data = build_alternating_source(nl, c0, prefix="src",
                                        choice_input=choice)
        data = build_data_buffer(nl, c0, c1, data, prefix="eb")
        build_data_fork(nl, c1, [b0, b1], data, prefix="f")
        errors = []
        for i, ch in enumerate((b0, b1)):
            stall = nl.add_input(f"s{i}.stall")
            kill = nl.add_input(f"s{i}.kill") if i == 0 else None
            errors.append(
                build_checking_sink(nl, ch, data, prefix=f"s{i}",
                                    stall_input=stall, kill_input=kill)
            )
        for e in errors:
            nl.add_output(e)
        ok, kripke = verify_data_correctness(nl, errors, max_states=2_000_000)
        assert ok
