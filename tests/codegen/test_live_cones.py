"""Each phase of a generated kernel computes only what it feeds.

:func:`repro.codegen.emit.live_cycle` cuts the HIGH program to the
fan-in of the H latches and the LOW program to the fan-in of the L
latches, the flops' ``d`` and the observed slots.  These tests pin the
cones against fan-in walks over the netlist, and run the cases where a
cut could drop something a cycle needs -- an override guard, a state
load -- against the scalar simulator in both dialects.
"""

import random

import pytest

from repro.codegen.cache import BuildCache
from repro.codegen.emit import _resolve, build_layout, live_cycle
from repro.codegen.sim import CompiledSimulator
from repro.faults.batch import campaign_restriction
from repro.faults.targets import TARGETS
from repro.fuzz import GeneratorConfig, generate_model
from repro.rtl.batchsim import pack_stimulus
from repro.rtl.logic import X
from repro.rtl.netlist import Netlist, Phase
from repro.rtl.simulator import TwoPhaseSimulator
from repro.synthesis.elaborate import to_gates
from tests.strategies import (
    _batch_overrides,
    _scalar_overrides,
    build_random_netlist,
)


def _cut(netlist, observe):
    layout = build_layout(netlist)
    return layout, live_cycle(layout, _resolve(layout, observe, "observe"))


def _names(layout, slots):
    by_slot = {slot: name for name, slot in layout.slot.items()}
    return {by_slot[slot] for slot in slots if slot in by_slot}


def _fuzz_netlists():
    """The gate elaborations of ``repro fuzz --seed 2007 --specs 6
    --max-blocks 8``, as the oracle builds them."""
    netlists = []
    for index in range(6):
        rng = random.Random(f"fuzz:2007:{index}")
        model = generate_model(rng, GeneratorConfig(max_blocks=8),
                               name=f"fuzz2007_{index:04d}")
        spec = model.build()
        if all(r.capacity == 2 for r in spec.registers.values()):
            elab = to_gates(spec, include_env=True, as_latches=False)
            netlists.append(elab.netlist)
    return netlists


FLOP_ONLY = sorted(set(TARGETS) - {"dual_ehb_latches"})


@pytest.mark.parametrize("name", FLOP_ONLY)
def test_flop_only_targets_have_no_high_phase(name):
    target = TARGETS[name]()
    assert not target.netlist.latches
    layout, live = _cut(target.netlist,
                        campaign_restriction(target)["observe"])
    assert layout.prog_high  # the whole phase, still ordered
    assert live.prog_high == () and live.load_high == []


def test_fuzz_elaborations_have_no_high_phase():
    netlists = _fuzz_netlists()
    assert len(netlists) == 6
    for nl in netlists:
        layout, live = _cut(nl, None)
        assert len(layout.prog_high) > 0, nl.name
        assert live.prog_high == () and live.load_high == [], nl.name
        assert live.prog_low == layout.prog_low, nl.name


def _high_fanin(nl):
    """What the H latches read in the HIGH phase: the gates and H
    latches of their fan-in (computed), and the signals it stops at
    (loaded)."""
    computed, loaded = set(), set()
    stack = [q for q, l in nl.latches.items() if l.phase == Phase.HIGH]
    while stack:
        sig = stack.pop()
        if sig in computed or sig in loaded:
            continue
        if sig in nl.gates:
            computed.add(sig)
            stack.extend(nl.gates[sig].ins)
        elif sig in nl.latches and nl.latches[sig].phase == Phase.HIGH:
            computed.add(sig)
            stack.append(nl.latches[sig].d)
        else:
            loaded.add(sig)
    return computed, loaded


def test_the_latch_target_keeps_the_fanin_of_its_h_latches():
    target = TARGETS["dual_ehb_latches"]()
    nl = target.netlist
    highs = [q for q, l in nl.latches.items() if l.phase == Phase.HIGH]
    assert len(highs) == 4
    computed, loaded = _high_fanin(nl)
    layout, live = _cut(nl, campaign_restriction(target)["observe"])
    assert _names(layout, (i[1] for i in live.prog_high)) == computed
    assert (_names(layout, live.load_high)
            | {name for name, _slot in live.inputs if name in loaded}) \
        == loaded
    assert live.prog_low == layout.prog_low


@pytest.mark.parametrize(
    "source", [*sorted(TARGETS), *(f"random:{seed}" for seed in range(40))]
)
def test_observing_everything_keeps_the_whole_low_program(source):
    if source.startswith("random:"):
        nl = build_random_netlist(random.Random(int(source[7:])))
    else:
        nl = TARGETS[source]().netlist
    layout, live = _cut(nl, None)
    assert live.prog_low == layout.prog_low
    assert live.load_low == layout.load_low
    assert live.inputs == layout.inputs


def _pruning_netlist():
    """Three places a cut drops code next to something a cycle needs.

    * ``g_high`` is hooked and feeds only the H latch ``h``;
    * ``g_dead`` is hooked and feeds only the unobserved ``dead``;
    * flop ``f2`` captures flop ``f1``'s ``q``, and ``f1`` is hooked
      but unobserved, so its LOW load stays only for ``f2``.
    """
    nl = Netlist("cuts")
    a, b, c = nl.add_input("a"), nl.add_input("b"), nl.add_input("c")
    nl.AND(a, b, out="g_high")
    nl.add_latch("g_high", Phase.HIGH, q="h", init=0)
    nl.add_latch(nl.XOR("h", c, out="x"), Phase.LOW, q="l", init=1)
    nl.OR("l", "f2", out="y")
    nl.NOT(b, out="g_dead")
    nl.AND("g_dead", a, out="dead")
    nl.NOR(a, "l", out="n")  # read only as a MUX's third operand
    nl.add_flop(nl.MUX(c, "y", "n", out="m"), q="f1", init=0)
    nl.add_flop("f1", q="f2", init=1)
    nl.add_output("y")
    nl.validate()
    return nl


HOOKS = frozenset({"g_high", "g_dead", "f1"})
OBSERVE = frozenset({"y", "h", "l", "x", "f2"})
LANES = 12
CYCLES = 24


def test_the_pruning_netlist_exercises_every_cut():
    layout, live = _cut(_pruning_netlist(), OBSERVE)
    assert _names(layout, (i[1] for i in live.prog_high)) == {"g_high", "h"}
    low = _names(layout, (i[1] for i in live.prog_low))
    assert "g_high" not in low and "g_dead" not in low
    assert "dead" not in low and {"m", "n"} <= low
    assert _names(layout, live.load_low) >= {"f1", "f2", "h"}


@pytest.mark.parametrize("dialect", ["known", "two-plane"])
def test_cut_kernels_match_the_scalar_simulator(dialect):
    nl = _pruning_netlist()
    rng = random.Random(f"cuts:{dialect}")
    kinds = ("stuck0", "stuck1", "flip")
    injections = [None] + [
        (net, kinds[i % 3], rng.randrange(CYCLES), rng.choice([None, 1, 3]))
        for i, net in enumerate(sorted(HOOKS) * 4)
    ][:LANES - 1]
    stimuli = [
        [{name: rng.getrandbits(1) for name in nl.inputs}
         for _ in range(CYCLES)]
        for _ in range(LANES)
    ]
    if dialect == "two-plane":  # one X input drops the kernel for good
        stimuli[3][CYCLES // 3]["c"] = X
    sim = CompiledSimulator(nl, LANES, hooks=HOOKS, observe=OBSERVE,
                            cache=BuildCache.in_memory())
    scalars = [TwoPhaseSimulator(nl) for _ in range(LANES)]
    for t, packed in enumerate(pack_stimulus(stimuli)):
        sim.set_overrides(_batch_overrides(injections, t))
        sim.cycle(packed)
        assert sim.known_dialect is (
            dialect == "known" or t < CYCLES // 3
        ), t
        for lane, scalar in enumerate(scalars):
            scalar.overrides = _scalar_overrides(injections[lane], t)
            values = scalar.cycle(stimuli[lane][t])
            for sig in sorted(OBSERVE):
                assert sim.lane_value(sig, lane) == values[sig], (
                    dialect, t, lane, sig, injections[lane])
            assert sim.lane_state(lane) == scalar.state, (dialect, t, lane)
