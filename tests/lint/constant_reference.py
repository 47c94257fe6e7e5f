"""Reference sweep for the sequential constant analysis.

:func:`repro.lint.netlist_rules.constant_values` is the one constant
analysis of the repository: LNT006 reports it and the area pipeline
(:func:`repro.rtl.area.constant_propagate`) sweeps it.  It runs on the
dataflow engine.  :func:`constant_fixpoint` is the plain round-robin
sweep it replaced, kept here as the reference: the tests assert both
agree on every signal, and ``benchmarks/test_bench_lint.py`` holds the
engine to at most 1.5x the sweep's wall time.
"""

from typing import Dict

from repro.rtl.logic import Value, X, eval_op, is_known
from repro.rtl.netlist import Netlist


def constant_fixpoint(nl: Netlist) -> Dict[str, Value]:
    """Abstract values holding in every reachable cycle (legacy sweep).

    Inputs are X and state starts at its init value.  Each outer round
    sweeps the gates in insertion order to a combinational fixpoint,
    then widens to X every state bit whose data pin disagrees with it.
    A gate that never leaves X is left out of the result, so read it
    with ``.get(sig, X)``.
    """
    state: Dict[str, Value] = {}
    for q, latch in nl.latches.items():
        state[q] = latch.init
    for q, flop in nl.flops.items():
        state[q] = flop.init

    vals: Dict[str, Value] = {}
    for _ in range(len(state) + 2):  # state only widens; bounded
        vals = {s: X for s in nl.inputs}
        vals.update(state)
        for _ in range(len(nl.gates) + 2):  # combinational fixpoint
            changed = False
            for out, gate in nl.gates.items():
                new = eval_op(gate.op, [vals.get(i, X) for i in gate.ins])
                old = vals.get(out, X)
                if new is not old and new != old:
                    vals[out] = new
                    changed = True
            if not changed:
                break
        widened = False
        for q in state:
            d = nl.latches[q].d if q in nl.latches else nl.flops[q].d
            d_val = vals.get(d, X)
            if is_known(state[q]) and not (is_known(d_val) and d_val == state[q]):
                state[q] = X
                widened = True
        if not widened:
            break
    vals.update(state)
    return vals
