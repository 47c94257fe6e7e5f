"""Tests for counterexample extraction.

``TestShortestPath`` runs the explicit reference search of
``ctl_reference`` on hand-built general graphs, which a factored
structure cannot express; ``TestSequentialSearch`` runs
:func:`~repro.verif.traces.shortest_path_to` on factored rows.
"""

from repro.elastic.gates import GateChannel, build_nd_sink, build_nd_source
from repro.rtl.netlist import Netlist
from repro.verif.ctl import AP, And, Not
from repro.verif.kripke import KripkeStructure, build_kripke
from repro.verif.traces import (
    counterexample_trace,
    format_trace,
    shortest_path_to,
)
from tests.verif import ctl_reference as ref


def chain_kripke(initial, edges, n=5):
    """A synthetic structure: one boolean signal ``p``, true in state 0."""
    successors = [[] for _ in range(n)]
    for src, dst in edges:
        successors[src].append(dst)
    return ref.ExplicitKripke(
        signals=["p"],
        labels=[(1 if s == 0 else 0,) for s in range(n)],
        successors=successors,
        initial=list(initial),
    )


def broken_buffer_netlist():
    """The retry-dropping 'buffer' from the properties tests."""
    nl = Netlist("broken")
    left = GateChannel.declare(nl, "L")
    right = GateChannel.declare(nl, "R")
    choice = nl.add_input("src.choice")
    build_nd_source(nl, left, prefix="src", choice_input=choice)
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
    return nl, right


class TestShortestPath:
    def test_initial_state_is_trivial_path(self):
        nl, _ = broken_buffer_netlist()
        k = ref.explicit(build_kripke(nl))
        path = ref.shortest_path_to(k, frozenset(k.initial))
        assert len(path) == 1

    def test_unreachable_target(self):
        nl, _ = broken_buffer_netlist()
        k = ref.explicit(build_kripke(nl))
        assert ref.shortest_path_to(k, frozenset()) is None

    def test_disconnected_target_is_unreachable(self):
        # 0 -> 1 -> 2, but 3 and 4 form their own island.
        k = chain_kripke(initial=[0], edges=[(0, 1), (1, 2), (3, 4)])
        assert ref.shortest_path_to(k, frozenset({4})) is None

    def test_initial_state_already_in_target(self):
        # A violating initial state yields a length-1 path, even when a
        # longer route to the target set also exists.
        k = chain_kripke(initial=[0], edges=[(0, 1), (1, 0)])
        path = ref.shortest_path_to(k, frozenset({0, 1}))
        assert path == [0]

    def test_multi_initial_bfs_picks_the_closest(self):
        # Two entry points; the target neighbours the second one, so
        # the path must start there rather than walk from state 0.
        k = chain_kripke(
            initial=[0, 3], edges=[(0, 1), (1, 2), (2, 4), (3, 4)]
        )
        path = ref.shortest_path_to(k, frozenset({4}))
        assert path == [3, 4]

    def test_multi_initial_violating_entry_wins(self):
        # One of several initial states is itself a violation.
        k = chain_kripke(initial=[2, 0], edges=[(0, 1), (2, 1)])
        path = ref.shortest_path_to(k, frozenset({2}))
        assert path == [2]


def rows(*next_state, inputs=("x",)):
    """A factored structure with no observed signal."""
    return KripkeStructure([], list(inputs), [list(r) for r in next_state],
                           [[] for _ in next_state])


class TestSequentialSearch:
    def test_initial_state_is_trivial_path(self):
        k = rows([1, 1], [1, 1])
        assert shortest_path_to(k, [0b10, 0b11]) == [1]

    def test_unreachable_target(self):
        k = rows([0, 0], [1, 1])  # row 1 is never entered
        assert shortest_path_to(k, [0, 0b01]) is None

    def test_lowest_input_vector_of_the_first_row_wins(self):
        # A -0-> B, A -1-> C; both B and C hold targets, B is first.
        k = rows([1, 2], [1, 1], [2, 2])
        assert shortest_path_to(k, [0, 0b10, 0b01]) == [0, 3]

    def test_parent_is_the_first_pair_reaching_a_row(self):
        # A -0-> A, A -1-> B, B -> C: C is reached from B0, B from A1.
        k = rows([0, 1], [2, 2], [2, 2])
        assert shortest_path_to(k, [0, 0, 0b10]) == [1, 2, 5]

    def test_matches_the_pair_search(self):
        nl, right = broken_buffer_netlist()
        k = build_kripke(nl)
        vp, sp = k.signals.index(right.vp), k.signals.index(right.sp)
        bad = [row[vp] & row[sp] for row in k.words]  # a retry
        want = ref.shortest_path_to(
            ref.explicit(k), ref.states_of(bad, k.lanes))
        assert want is not None and len(want) > 1
        assert shortest_path_to(k, bad) == want


class TestCounterexample:
    def test_holding_invariant_gives_none(self):
        nl, right = broken_buffer_netlist()
        k = build_kripke(nl)
        # the dual-channel invariant (2) does hold on this netlist
        inv = And(
            Not(And(AP(right.vn), AP(right.sp))),
            Not(And(AP(right.vp), AP(right.sn))),
        )
        assert counterexample_trace(k, inv) is None

    def test_retry_violation_witnessed(self):
        """The broken buffer drops V+ after a retry: find the moment."""
        nl, right = broken_buffer_netlist()
        observe = list(nl.outputs) + list(nl.inputs) + ["bad.v"]
        k = build_kripke(nl, observe=observe)
        # Safety encoding of the retry bug: V+ with stop but the state
        # bit that should hold it is about to clear.  Simpler: witness
        # any reachable Retry+ state; then check its successors.
        trace = counterexample_trace(k, Not(And(AP(right.vp), AP(right.sp))))
        assert trace is not None
        last = trace[-1]
        assert last.signals[right.vp] == 1 and last.signals[right.sp] == 1
        # from that state, some successor drops V+ (the actual bug):
        # its successors are every input vector of one row
        s, i = divmod(last.state, k.lanes)
        succ = k.next_state[s][i]
        vp = k.words[succ][k.signals.index(right.vp)]
        assert vp != (1 << k.lanes) - 1

    def test_trace_starts_at_initial(self):
        nl, right = broken_buffer_netlist()
        k = build_kripke(nl)
        trace = counterexample_trace(k, Not(AP(right.vp)))
        assert trace is not None
        assert trace[0].state < k.lanes  # row 0 under some input

    def test_format_trace(self):
        nl, right = broken_buffer_netlist()
        k = build_kripke(nl)
        trace = counterexample_trace(k, Not(AP(right.vp)))
        text = format_trace(trace)
        assert "counterexample" in text and "cycle 0" in text

    def test_steps_expose_inputs(self):
        nl, right = broken_buffer_netlist()
        k = build_kripke(nl)
        trace = counterexample_trace(k, Not(AP(right.vp)))
        for step in trace:
            assert set(step.inputs) == {"src.choice", "snk.stall"}
