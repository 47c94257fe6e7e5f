"""Bounded and resumable state-space exploration."""

import pytest

from repro.elastic.gates import (
    GateChannel,
    build_elastic_buffer,
    build_nd_sink,
    build_nd_source,
)
from repro.resilience import CheckpointMismatch
from repro.rtl.netlist import Gate, Netlist
from repro.verif.gatedata import alternating_pipeline
from repro.verif.kripke import StateSpaceLimitError, build_kripke
from repro.verif.properties import verify_netlist


def small_chain():
    """source -> EB -> sink, flop state bits (small, fully explorable)."""
    nl = Netlist("chain")
    left = GateChannel.declare(nl, "L")
    right = GateChannel.declare(nl, "R")
    choice = nl.add_input("src.choice")
    build_nd_source(nl, left, prefix="src", choice_input=choice)
    build_elastic_buffer(nl, left, right, prefix="eb", as_latches=False)
    stall = nl.add_input("snk.stall")
    kill = nl.add_input("snk.kill")
    build_nd_sink(nl, right, prefix="snk", stall_input=stall, kill_input=kill)
    for ch in (left, right):
        for w in ch.wires():
            nl.add_output(w)
    nl.validate()
    return nl, [left, right]


def structures_equal(a, b):
    return (
        a.signals == b.signals
        and a.labels == b.labels
        and a.successors == b.successors
        and a.initial == b.initial
        and a.input_names == b.input_names
        and a.raw_states == b.raw_states
    )


class TestStateSpaceLimit:
    def test_limit_error_names_the_last_controller_state(self):
        nl, _ = small_chain()
        with pytest.raises(StateSpaceLimitError) as exc:
            build_kripke(nl, max_states=5)
        message = str(exc.value)
        assert "state bound 5 exceeded" in message
        assert "eb.t0=" in message  # the state under expansion, by name
        assert exc.value.max_states == 5
        assert "eb.t0" in exc.value.last_state

    def test_limit_with_checkpoint_keeps_the_partial_exploration(self, tmp_path):
        nl, _ = small_chain()
        ck = str(tmp_path / "ck")
        with pytest.raises(StateSpaceLimitError):
            build_kripke(nl, max_states=5, checkpoint=ck)
        # The snapshot survived; a rerun with a lifted bound finishes and
        # matches the uninterrupted build exactly.
        resumed = build_kripke(nl, checkpoint=ck)
        fresh = build_kripke(nl)
        assert structures_equal(resumed, fresh)


class TestCheckpointResume:
    def test_periodic_snapshots_resume_identically(self, tmp_path):
        nl, _ = small_chain()
        fresh = build_kripke(nl)
        ck = str(tmp_path / "ck")
        # Force several snapshot boundaries, then interrupt at each bound
        # and resume until the frontier drains.
        bound = 8
        while True:
            try:
                resumed = build_kripke(
                    nl, max_states=bound, checkpoint=ck, checkpoint_every=4
                )
                break
            except StateSpaceLimitError:
                bound += 8
        assert structures_equal(resumed, fresh)

    def test_completed_store_resumes_identically(self, tmp_path):
        nl, _ = small_chain()
        ck = str(tmp_path / "ck")
        first = build_kripke(nl, checkpoint=ck)
        again = build_kripke(nl, checkpoint=ck)
        assert structures_equal(first, again)

    def test_fingerprint_excludes_the_bound(self, tmp_path):
        nl, _ = small_chain()
        ck = str(tmp_path / "ck")
        with pytest.raises(StateSpaceLimitError):
            build_kripke(nl, max_states=5, checkpoint=ck)
        # Same workload, different bound: accepted (that is the point).
        build_kripke(nl, max_states=100_000, checkpoint=ck)

    def test_changed_netlist_under_the_same_name_rejected(self, tmp_path):
        nl, errors = alternating_pipeline()
        observe = list(errors) + list(nl.inputs)
        ck = str(tmp_path / "ck")
        with pytest.raises(StateSpaceLimitError):
            build_kripke(nl, observe=observe, max_states=200, checkpoint=ck)
        # Same name, inputs, state names and observe list; only the
        # checker's error gate differs.
        other, _ = alternating_pipeline()
        gate = other.gates["snk.error"]
        assert gate.op == "AND"
        other.gates["snk.error"] = Gate(gate.out, "OR", gate.ins)
        with pytest.raises(CheckpointMismatch, match="netlist"):
            build_kripke(other, observe=observe, checkpoint=ck)

    def test_mismatched_observe_list_rejected(self, tmp_path):
        nl, channels = small_chain()
        ck = str(tmp_path / "ck")
        build_kripke(nl, checkpoint=ck)
        with pytest.raises(CheckpointMismatch, match="observe"):
            build_kripke(nl, observe=[channels[0].vp], checkpoint=ck)


class TestVerifyNetlistCheckpoint:
    def test_verify_netlist_forwards_the_checkpoint(self, tmp_path):
        nl, channels = small_chain()
        ck = tmp_path / "ck"
        result = verify_netlist(
            nl, channels, include_liveness=False, checkpoint=str(ck)
        )
        assert result.ok
        assert (ck / "snapshot.json").is_file()
        # Second run resumes from the drained snapshot, same verdicts.
        again = verify_netlist(
            nl, channels, include_liveness=False, checkpoint=str(ck)
        )
        assert again.results == result.results
