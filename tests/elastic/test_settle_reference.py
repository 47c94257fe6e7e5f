"""The worklist settles the behavioural network like the sweep it replaced.

:func:`sweep_step` is the loop ``ElasticNetwork.step`` used to run:
sweep every controller in list order until a whole sweep changes no
control wire.  It is kept here as the reference for the worklist in
:meth:`~repro.elastic.behavioral.ElasticNetwork.step`, which evaluates
each controller once per cycle and then again only when a neighbour
changed a wire or payload, and never evaluates a
:attr:`~repro.elastic.behavioral.Controller.state_only` controller
twice.  The control wires and channel statistics must equal the
reference's on every cycle.  Payloads are compared where the reference
cannot go stale (see ``test_fixed_point_order``): the Fig. 9
configurations and the fixed generated specs in their natural order.

The state-only declaration is guarded directly: every class that has it
must drive the same wires and payloads whatever the wires it does not
drive carry.
"""

import ast
import copy
import itertools
import random
import runpy
from collections import Counter, namedtuple
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.casestudy.fig9 import Config, build_fig9_spec
from repro.casestudy.processor import build_processor
from repro.elastic.behavioral import (
    EarlyJoin,
    ElasticBuffer,
    ElasticNetwork,
    Pipe,
    Sink,
    Source,
)
from repro.elastic.ee import ThresholdEE
from repro.elastic.instrumentation import TracingSink, TracingSource
from repro.elastic.protocol import ProtocolViolation
from repro.rtl.logic import X
from repro.synthesis.elaborate import to_behavioral
from repro.verif.datapath import AlternatingChecker, alternating_source
from tests.elastic.channel_trace import PayloadCanon, channel_states, hyp_model
from tests.strategies import spec_models

ROOT = Path(__file__).resolve().parents[2]
WIRES = ("vp", "sp", "vn", "sn")


def sweep_step(net):
    """One cycle of the sweep loop ``ElasticNetwork.step`` replaced.

    Only control wires count as changes, as they did when ``put_data``
    reported nothing, so the sweep compares the wires itself instead of
    trusting ``evaluate``'s result.  Saboteurs and probes are not run.
    """
    channels = list(net.channels.values())
    for ch in channels:
        ch.begin_cycle()
    for _ in range(4 * len(channels) + 4):
        before = [(ch.vp, ch.sp, ch.vn, ch.sn) for ch in channels]
        for ctrl in net.controllers:
            ctrl.evaluate()
        if [(ch.vp, ch.sp, ch.vn, ch.sn) for ch in channels] == before:
            break
    else:
        raise ProtocolViolation(f"{net.name}: fixed point not reached")
    for ch in channels:
        ch.finish_cycle()
    for ctrl in net.controllers:
        ctrl.commit()
    net.cycle += 1


def _settled(net, canon):
    stats = [astuple(ch.stats) for ch in net.channels.values()]
    return channel_states(net, canon), stats


def assert_settles_like_sweep(net, ref, cycles, canon=None):
    """Step ``net`` and sweep ``ref`` in lock-step, comparing each cycle."""
    for cycle in range(cycles):
        net.step()
        sweep_step(ref)
        assert _settled(net, canon) == _settled(ref, canon), f"cycle {cycle}"


@pytest.mark.parametrize("config", list(Config))
def test_fig9_settles_like_sweep(config):
    assert_settles_like_sweep(
        to_behavioral(build_fig9_spec(config)),
        to_behavioral(build_fig9_spec(config)),
        500,
        PayloadCanon(),
    )


@pytest.mark.parametrize("spec", range(40))
def test_generated_spec_settles_like_sweep(spec):
    model = hyp_model(spec)
    assert_settles_like_sweep(
        to_behavioral(model.build(), seed=0),
        to_behavioral(model.build(), seed=0),
        200,
        PayloadCanon(),
    )


@settings(max_examples=20, deadline=None)
@given(spec_models())
def test_drawn_specs_settle_like_sweep(model):
    # The reference's payloads can go stale here, so its payload
    # monitors are off and payloads are not compared.
    assert_settles_like_sweep(
        to_behavioral(model.build(), seed=0),
        to_behavioral(model.build(), seed=0, check_data=False),
        200,
    )


# ----------------------------------------------------------------------
# The state-only declaration
# ----------------------------------------------------------------------
def _in_line(name, source=None, sink=None):
    """Controller ``name`` of ``source -> EB -> sink``; the default sink
    stalls and kills."""
    net = ElasticNetwork("guard")
    a, b = net.add_channel("a"), net.add_channel("b")
    if source is None:
        source = lambda ch: Source("src", ch, p_valid=0.6, rng=random.Random(1))
    if sink is None:
        sink = lambda ch: Sink("snk", ch, p_stop=0.3, p_kill=0.3, rng=random.Random(2))
    net.add(source(a))
    net.add(ElasticBuffer("eb", a, b))
    net.add(sink(b))
    return net, _controller(net, name)


def _controller(net, name):
    return next(ctrl for ctrl in net.controllers if ctrl.name == name)


def _loaded(path, name):
    return runpy.run_path(str(ROOT / path))[name]


def _example_commit_unit(ch):
    cls = _loaded("examples/exception_flush.py", "CommitUnit")
    return cls("snk", ch, window=3, p_mispredict=0.2, rng=random.Random(3))


def _flushing_sink(ch):
    cls = _loaded("benchmarks/test_bench_flush.py", "FlushingSink")
    sink = cls("snk", ch, rng=random.Random(3))
    sink.flush(5)
    return sink


def _in_processor(name):
    net, _, _ = build_processor()
    return net, _controller(net, name)


#: Every module-level state-only class in the repository, with a
#: network that runs one through its states.
GUARDED = {
    ("src/repro/elastic/behavioral.py", "ElasticBuffer"):
        lambda: _in_line("eb"),
    ("src/repro/elastic/behavioral.py", "Source"):
        lambda: _in_line("src"),
    ("src/repro/elastic/behavioral.py", "Sink"):
        lambda: _in_line("snk"),
    ("src/repro/elastic/instrumentation.py", "TracingSource"):
        lambda: _in_line("src", source=lambda ch: TracingSource(
            "src", ch, p_valid=0.6, rng=random.Random(1))),
    ("src/repro/elastic/instrumentation.py", "TracingSink"):
        lambda: _in_line("snk", sink=lambda ch: TracingSink(
            "snk", ch, p_stop=0.3, p_kill=0.3, rng=random.Random(2))),
    ("src/repro/verif/datapath.py", "AlternatingChecker"):
        lambda: _in_line(
            "snk",
            source=lambda ch: alternating_source("src", ch, p_valid=0.6),
            sink=lambda ch: AlternatingChecker("snk", ch, rng=random.Random(2)),
        ),
    ("src/repro/casestudy/processor.py", "FetchUnit"):
        lambda: _in_processor("fetch"),
    ("src/repro/casestudy/processor.py", "CommitUnit"):
        lambda: _in_processor("commit"),
    ("examples/exception_flush.py", "CommitUnit"):
        lambda: _in_line("snk", sink=_example_commit_unit),
    ("benchmarks/test_bench_flush.py", "FlushingSink"):
        lambda: _in_line("snk", sink=_flushing_sink),
}


def _fresh_twin(ctrl):
    """A copy of ``ctrl`` and its channels at the start of a cycle."""
    twin = copy.deepcopy(ctrl)
    for ch in twin.channels():
        ch.begin_cycle()
    return twin


def assert_first_evaluation_is_final(ctrl):
    """From X, ``ctrl`` drives its two wires per channel, and it drives
    them and its payloads alike with the other wires at any value."""
    base = _fresh_twin(ctrl)
    base.evaluate()
    assert base.evaluate() is False, "a second evaluation changed something"
    channels = base.channels()
    free = [
        (k, w) for k, ch in enumerate(channels) for w in WIRES
        if getattr(ch, w) is X
    ]
    assert len(free) == 2 * len(channels), "it leaves a wire it drives at X"
    for values in itertools.product((0, 1), repeat=len(free)):
        twin = _fresh_twin(ctrl)
        for (k, w), value in zip(free, values):
            twin.channels()[k].force(w, value)
            if w == "vp" and value:
                twin.channels()[k].put_data(("probe", k))
        twin.evaluate()
        for k, (got, want) in enumerate(zip(twin.channels(), channels)):
            for w in WIRES:
                if (k, w) not in free:
                    assert getattr(got, w) == getattr(want, w), (values, k, w)
            if (k, "vp") not in free:
                assert got.data == want.data, (values, k)


@pytest.mark.parametrize("key", sorted(GUARDED), ids=lambda key: f"{key[0]}:{key[1]}")
def test_state_only_controller_ignores_the_wires_it_does_not_drive(key):
    net, ctrl = GUARDED[key]()
    assert ctrl.state_only and type(ctrl).__name__ == key[1]
    for _ in range(40):
        assert_first_evaluation_is_final(ctrl)
        net.step()


ClassInfo = namedtuple("ClassInfo", "path name bases state_only evaluates local")


def _class_defs():
    """Every class under src/, examples/, benchmarks/ and tests/."""
    for top in ("src", "examples", "benchmarks", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            local = {
                id(node)
                for fn in ast.walk(tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(fn) if isinstance(node, ast.ClassDef)
            }
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                declared = [
                    ast.literal_eval(stmt.value) for stmt in node.body
                    if isinstance(stmt, ast.Assign)
                    and any(getattr(t, "id", None) == "state_only" for t in stmt.targets)
                ]
                yield ClassInfo(
                    path=str(path.relative_to(ROOT)),
                    name=node.name,
                    bases={getattr(b, "id", getattr(b, "attr", None)) for b in node.bases},
                    state_only=declared[0] if declared else None,
                    evaluates=any(
                        isinstance(stmt, ast.FunctionDef) and stmt.name == "evaluate"
                        for stmt in node.body
                    ),
                    local=id(node) in local,
                )


def test_every_state_only_class_is_guarded():
    classes = list(_class_defs())
    state_only = {c.name for c in classes if c.state_only is True}
    assert state_only == {"ElasticBuffer", "Source", "Sink"}
    while True:  # close over subclasses, by base name
        grown = state_only | {
            c.name for c in classes
            if c.bases & state_only and c.state_only is not False
        }
        if grown == state_only:
            break
        state_only = grown
    found = {(c.path, c.name) for c in classes if c.name in state_only and not c.local}
    assert found == set(GUARDED)
    # A class local to a test function cannot be built here, so it must
    # keep the evaluate of the guarded class it derives from.
    for c in classes:
        if c.local and c.name in state_only:
            assert not c.evaluates, f"{c.path}:{c.name}"


# ----------------------------------------------------------------------
# Evaluation count and the combinational payload loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", list(Config))
def test_evaluations_per_cycle(config):
    cycles = 2000
    net = to_behavioral(build_fig9_spec(config, seed=2007), seed=2007)
    counts = Counter()

    def counting(ctrl):
        evaluate = ctrl.evaluate

        def wrapped():
            counts[ctrl.name] += 1
            return evaluate()
        return wrapped

    for ctrl in net.controllers:
        ctrl.evaluate = counting(ctrl)
    net.run(cycles)
    for ctrl in net.controllers:
        if ctrl.state_only:
            assert counts[ctrl.name] == cycles, ctrl.name
    # The sweep loop made 61-90 evaluations per cycle here.
    assert sum(counts.values()) <= 30 * cycles


def test_combinational_payload_loop_is_reported():
    # An OR early join fed back to itself through a pipe with no buffer
    # between: its output payload nests one level deeper every time
    # round, so the network never settles.
    net = ElasticNetwork("loop")
    a, b, c = net.add_channel("a"), net.add_channel("b"), net.add_channel("c")
    net.add(Source("src", a))
    net.add(EarlyJoin("or", [a, b], c, ThresholdEE(1, 2)))
    net.add(Pipe("back", c, b))
    with pytest.raises(ProtocolViolation, match="fixed point not reached"):
        net.step()
