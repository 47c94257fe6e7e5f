"""Static-analysis cost: the dataflow engine vs the legacy sweep.

The ternary constant analysis (LNT006, also the area pipeline's
constant step) runs on the generic worklist fixpoint engine of
:mod:`repro.lint.dataflow`.  This bench holds the engine to the bargain
on the largest shipped design (the Fig. 9 PASSIVE_F3W control layer,
~670 gates): same results as the legacy reference sweep kept in
``tests/lint/constant_reference.py``, at most 1.5x its wall time (best
of 5 runs each, taken in alternation after a ``gc.collect()``), and a
full ``lint_netlist`` pass that stays interactive.
"""

import gc
import time

import pytest

from repro.casestudy.fig9 import Config, build_fig9_spec
from repro.lint.netlist_rules import constant_values, lint_netlist
from repro.rtl.logic import X
from repro.synthesis.elaborate import to_gates
from tests.lint.constant_reference import constant_fixpoint

#: wall-time budget for the engine, relative to the legacy sweep
ENGINE_BUDGET = 1.5


@pytest.fixture(scope="module")
def largest_netlist():
    """The biggest gate-level design the repo ships."""
    return to_gates(
        build_fig9_spec(Config.PASSIVE_F3W), include_env=True,
        as_latches=True,
    ).netlist


def _timed(fn, arg):
    gc.collect()  # no collection of earlier garbage inside the timing
    start = time.perf_counter()
    fn(arg)
    return time.perf_counter() - start


def _best_alternating(fns, arg, repeats=5):
    """Best-of-``repeats`` wall time of each of ``fns``, in alternation.

    Taking the runs in turn spreads a burst of load on the host over
    every side's samples, instead of letting it decide one side alone.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            best[i] = min(best[i], _timed(fn, arg))
    return best


def test_engine_matches_legacy_within_budget(largest_netlist):
    nl = largest_netlist
    engine_vals = constant_values(nl)
    legacy_vals = constant_fixpoint(nl)
    # the legacy sweep omits never-known signals; compare .get-X-wise
    assert all(
        engine_vals[sig] == legacy_vals.get(sig, X) for sig in engine_vals
    )

    engine, legacy = _best_alternating(
        (constant_values, constant_fixpoint), nl
    )
    print(f"\n=== LNT006 on {nl.name} ({len(nl.gates)} gates) ===")
    print(f"engine {engine * 1e3:8.2f} ms")
    print(f"legacy {legacy * 1e3:8.2f} ms  (budget {ENGINE_BUDGET}x)")
    assert engine <= ENGINE_BUDGET * legacy, (
        f"dataflow LNT006 took {engine / legacy:.2f}x the legacy sweep "
        f"(budget {ENGINE_BUDGET}x)"
    )


def test_bench_constant_values(benchmark, largest_netlist):
    vals = benchmark(constant_values, largest_netlist)
    assert vals  # a total environment over the signal graph


def test_bench_full_lint(benchmark, largest_netlist):
    findings = benchmark(lint_netlist, largest_netlist)
    assert all(f.severity.name == "INFO" for f in findings)
