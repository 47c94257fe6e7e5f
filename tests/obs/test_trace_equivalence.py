"""Trace equivalence: compiled-simulator lanes vs the scalar reference.

Both engines replay the same seeded stimulus on the Fig. 5 dual-EB
target -- the compiled one as a fully observed module and as a module
restricted to the campaign's observed wires.  The recorder attached to
a lane must produce the edge/x-onset event stream that
``scalar_reference.edge_observer`` records from the scalar simulator's
settled values -- the cross-engine guarantee that makes lane-parallel
waveforms trustworthy.
"""

import pytest

from repro.codegen.sim import CompiledSimulator
from repro.faults.campaign import make_stimulus
from repro.faults.targets import dual_ehb
from repro.obs import TraceRecorder
from repro.rtl.batchsim import broadcast
from repro.rtl.simulator import TwoPhaseSimulator
from tests.obs.scalar_reference import cycle, edge_observer

CYCLES = 120
SEED = 2007


def scalar_events(target, stimulus):
    sim = TwoPhaseSimulator(target.netlist)
    rec = TraceRecorder()
    observers = [edge_observer(rec, target.observe)]
    for inputs in stimulus:
        cycle(sim, inputs, observers)
    return list(rec.events)


def batch_events(target, stimulus, lanes=4, lane=0):
    """One lane of a fully observed (unrestricted) compiled module."""
    sim = CompiledSimulator(target.netlist, lanes)
    rec = TraceRecorder().attach_batch(sim, target.observe, lane=lane)
    for inputs in stimulus:
        sim.cycle({
            name: broadcast(value, lanes) for name, value in inputs.items()
        })
    return list(rec.events)


def compiled_events(target, stimulus, cache, lanes=4, lane=0):
    from repro.codegen import build_cache

    sim = CompiledSimulator(
        target.netlist, lanes, hooks=frozenset(),
        observe=frozenset(target.observe), cache=build_cache(str(cache)),
    )
    rec = TraceRecorder().attach_batch(sim, target.observe, lane=lane)
    for inputs in stimulus:
        sim.cycle({
            name: broadcast(value, lanes) for name, value in inputs.items()
        })
    return list(rec.events)


class TestScalarBatchEquivalence:
    def test_event_streams_identical(self):
        target = dual_ehb()
        stimulus = make_stimulus(target.free_inputs, CYCLES, SEED)
        scalar = scalar_events(target, stimulus)
        batch = batch_events(target, stimulus)
        assert scalar, "scalar run recorded no events"
        assert scalar == batch

    def test_nonzero_lane_matches_too(self):
        target = dual_ehb()
        stimulus = make_stimulus(target.free_inputs, 60, SEED)
        assert (scalar_events(target, stimulus)
                == batch_events(target, stimulus, lanes=8, lane=5))

    def test_disabled_recorder_attaches_to_neither(self):
        # Neither a fully observed nor a restricted module gets an observer.
        target = dual_ehb()
        full = CompiledSimulator(target.netlist, 4)
        restricted = CompiledSimulator(
            target.netlist, 4, hooks=frozenset(),
            observe=frozenset(target.observe),
        )
        rec = TraceRecorder(enabled=False)
        rec.attach_batch(full, target.observe)
        rec.attach_batch(restricted, target.observe)
        assert not full.observers and not restricted.observers


class TestCompiledEquivalence:
    def test_compiled_stream_matches_scalar(self, tmp_path):
        target = dual_ehb()
        stimulus = make_stimulus(target.free_inputs, CYCLES, SEED)
        scalar = scalar_events(target, stimulus)
        compiled = compiled_events(target, stimulus, tmp_path / "cache")
        assert scalar, "scalar run recorded no events"
        assert scalar == compiled

    def test_compiled_nonzero_lane_matches(self, tmp_path):
        target = dual_ehb()
        stimulus = make_stimulus(target.free_inputs, 60, SEED)
        assert (scalar_events(target, stimulus)
                == compiled_events(target, stimulus, tmp_path / "cache",
                                   lanes=8, lane=3))

    def test_unobserved_watch_fails_at_attach(self, tmp_path):
        from repro.codegen import build_cache

        target = dual_ehb()
        # Observe only the channel wires; the EB state bits are absent,
        # so watching one must fail loudly at attach time instead of
        # tracing a stale slot.
        observe = frozenset(w for ch in target.channels for w in ch.wires())
        sim = CompiledSimulator(
            target.netlist, 4, hooks=frozenset(), observe=observe,
            cache=build_cache(str(tmp_path / "cache")),
        )
        state_bit = target.ebs[0].state_bits[0]
        with pytest.raises(ValueError, match="not observed"):
            TraceRecorder().attach_batch(sim, [state_bit])
        assert not sim.observers
