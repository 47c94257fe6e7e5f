"""The paper's four channel properties on real controller netlists."""

import pytest

from repro.casestudy.fig9 import Config, build_fig9_spec
from repro.elastic.gates import (
    GateChannel,
    build_elastic_buffer,
    build_join,
    build_fork,
    build_nd_sink,
    build_nd_source,
)
from repro.rtl.netlist import Netlist
from repro.synthesis.elaborate import to_gates
from repro.verif.ctl import AP
from repro.verif.properties import (
    channel_properties,
    verify_channel_properties,
    verify_netlist,
)
from repro.verif.kripke import build_kripke


def closed_buffer_chain(n_buffers=2, with_kill=True):
    """source -> EB x n -> sink, with non-deterministic environment."""
    nl = Netlist("chain")
    chans = [GateChannel.declare(nl, f"c{i}") for i in range(n_buffers + 1)]
    choice = nl.add_input("src.choice")
    build_nd_source(nl, chans[0], prefix="src", choice_input=choice)
    for i in range(n_buffers):
        build_elastic_buffer(
            nl, chans[i], chans[i + 1], prefix=f"eb{i}",
            initial_tokens=1 if i == 0 else 0, as_latches=False,
        )
    stall = nl.add_input("snk.stall")
    kill = nl.add_input("snk.kill") if with_kill else None
    build_nd_sink(nl, chans[-1], prefix="snk", stall_input=stall, kill_input=kill)
    for ch in chans:
        for w in ch.wires():
            nl.add_output(w)
    nl.validate()
    return nl, chans


FAIRNESS = [AP("snk.stall", 0), AP("snk.kill", 0), AP("src.choice", 1)]


class TestChannelProperties:
    def test_formula_set(self):
        ch = GateChannel("c", "c.vp", "c.sp", "c.vn", "c.sn")
        props = channel_properties(ch)
        assert set(props) == {"retry_pos", "retry_neg", "invariant", "liveness"}

    def test_buffer_chain_passes_all(self):
        nl, chans = closed_buffer_chain()
        result = verify_netlist(nl, chans, fairness=FAIRNESS)
        assert result.ok, result.failures()

    def test_chain_without_kills_passes(self):
        nl, chans = closed_buffer_chain(with_kill=False)
        result = verify_netlist(
            nl, chans, fairness=[AP("snk.stall", 0), AP("src.choice", 1)]
        )
        assert result.ok, result.failures()

    def test_join_structure_passes(self):
        nl = Netlist("jnet")
        a, b = GateChannel.declare(nl, "a"), GateChannel.declare(nl, "b")
        am, bm = GateChannel.declare(nl, "am"), GateChannel.declare(nl, "bm")
        z = GateChannel.declare(nl, "z")
        ca = nl.add_input("pa.choice")
        cb = nl.add_input("pb.choice")
        build_nd_source(nl, a, prefix="pa", choice_input=ca)
        build_nd_source(nl, b, prefix="pb", choice_input=cb)
        build_elastic_buffer(nl, a, am, prefix="eba", as_latches=False)
        build_elastic_buffer(nl, b, bm, prefix="ebb", as_latches=False)
        build_join(nl, [am, bm], z, prefix="j")
        stall = nl.add_input("c.stall")
        kill = nl.add_input("c.kill")
        build_nd_sink(nl, z, prefix="c", stall_input=stall, kill_input=kill)
        channels = [a, b, am, bm, z]
        fairness = [
            AP("c.stall", 0), AP("c.kill", 0),
            AP("pa.choice", 1), AP("pb.choice", 1),
        ]
        result = verify_netlist(nl, channels, fairness=fairness)
        assert result.ok, result.failures()

    def test_broken_controller_caught(self):
        """A 'buffer' that drops a stopped token violates Retry+."""
        nl = Netlist("broken")
        left = GateChannel.declare(nl, "L")
        right = GateChannel.declare(nl, "R")
        choice = nl.add_input("src.choice")
        build_nd_source(nl, left, prefix="src", choice_input=choice)
        # Bad half-buffer: V+out = FF(V+in) with no retry handling.
        v = nl.add_flop(left.vp, q="bad.v", init=0)
        nl.BUF(v, out=right.vp)
        nl.const0(out=right.sn)
        nl.const0(out=left.sp)
        nl.const0(out=left.vn)
        stall = nl.add_input("snk.stall")
        build_nd_sink(nl, right, prefix="snk", stall_input=stall)
        for ch in (left, right):
            for w in ch.wires():
                nl.add_output(w)
        result = verify_netlist(
            nl, [right], fairness=[AP("snk.stall", 0), AP("src.choice", 1)]
        )
        assert not result.ok
        assert ("R", "retry_pos") in result.failures()

    def test_deadlocking_structure_caught_by_liveness(self):
        """A feedback loop without an initial token can never fire.

        The join requires its feedback operand, which only the join's
        own output (through the fork and an *empty* buffer) can
        produce: a dead cycle in the underlying marked graph -- the
        liveness property fails on every channel of the loop.
        """
        nl = Netlist("dead")
        i = GateChannel.declare(nl, "i")
        z = GateChannel.declare(nl, "z")
        out = GateChannel.declare(nl, "out")
        fb = GateChannel.declare(nl, "fb")
        fbq = GateChannel.declare(nl, "fbq")
        choice = nl.add_input("src.choice")
        build_nd_source(nl, i, prefix="src", choice_input=choice)
        build_join(nl, [i, fbq], z, prefix="j")
        build_fork(nl, z, [out, fb], prefix="f")
        build_elastic_buffer(nl, fb, fbq, prefix="eb", initial_tokens=0,
                             as_latches=False)
        stall = nl.add_input("snk.stall")
        build_nd_sink(nl, out, prefix="snk", stall_input=stall)
        for ch in (i, z, out, fb, fbq):
            for w in ch.wires():
                nl.add_output(w)
        result = verify_netlist(
            nl, [z], fairness=[AP("snk.stall", 0), AP("src.choice", 1)]
        )
        assert not result.ok
        assert ("z", "liveness") in result.failures()

    def test_result_summary_string(self):
        nl, chans = closed_buffer_chain(n_buffers=1)
        result = verify_netlist(nl, chans, fairness=FAIRNESS)
        assert "PASS" in str(result)


class TestFig9Configurations:
    def test_lazy_passes_every_channel_property(self):
        """Table 1's LAZY configuration, environment included: 20
        channels, 597 sequential states x 256 input vectors."""
        elab = to_gates(build_fig9_spec(Config.LAZY), include_env=True)
        channels = [elab.channels[k] for k in sorted(elab.channels)]
        fairness = [AP(sig, value) for sig, value in elab.fairness.items()]
        result = verify_netlist(elab.netlist, channels, fairness=fairness)
        assert result.states == 152_832
        assert len(result.results) == 80
        assert result.ok, result.failures()
