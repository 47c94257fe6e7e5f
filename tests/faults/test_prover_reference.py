"""The lane prover against the scalar prover it replaced.

``scalar_prove_untestable`` is the one-pair-at-a-time prover that
``repro.faults.campaign`` ran before the prover moved onto the compiled
simulator: it steps ``TwoPhaseSimulator.step_function`` twice per
(DUT state, boundary input) pair, fault-free and faulty.  It stays
here as the reference the lane prover is checked against.
"""

import itertools

import pytest

from repro.elastic.gates import GateChannel
from repro.faults.campaign import prove_untestable
from repro.faults.models import Injection
from repro.faults.targets import TARGETS, RtlTarget
from repro.rtl.netlist import Netlist
from repro.rtl.simulator import TwoPhaseSimulator

KINDS = ("stuck0", "stuck1", "flip")


def scalar_prove_untestable(target: RtlTarget, injection: Injection) -> bool:
    """The scalar prover: primary inputs stay X, boundary wires forced."""
    nl = target.netlist
    sites = set(target.fault_sites)
    if any(q in nl.latches for q in sites):
        return False
    state_bits = [q for q in target.fault_sites if q in nl.flops]
    boundary = [
        w for ch in target.channels for w in ch.wires() if w not in sites
    ]
    outputs = [
        w for ch in target.channels for w in ch.wires() if w in sites
    ]
    if len(state_bits) + len(boundary) > 16:
        return False
    sim = TwoPhaseSimulator(nl)
    base_state = sim.initial_state()
    fault_override = injection.override()
    for bits in itertools.product((0, 1), repeat=len(state_bits)):
        state = dict(base_state)
        state.update(zip(state_bits, bits))
        for env_bits in itertools.product((0, 1), repeat=len(boundary)):
            env = dict(zip(boundary, env_bits))
            sim.overrides = env
            good_vals, good_next = sim.step_function(state, {})
            sim.overrides = {**env, injection.net: fault_override}
            bad_vals, bad_next = sim.step_function(state, {})
            if any(good_vals.get(w) != bad_vals.get(w) for w in outputs):
                return False
            if any(good_next.get(q) != bad_next.get(q) for q in state_bits):
                return False
    return True


@pytest.fixture(scope="module")
def stock():
    """Every stock (target, site, kind) with its scalar verdict."""
    cases = []
    for name in sorted(TARGETS):
        target = TARGETS[name]()
        for net in target.fault_sites:
            for kind in KINDS:
                injection = Injection(net, kind)
                cases.append((
                    target, injection,
                    scalar_prove_untestable(target, injection),
                ))
    return cases


def test_every_stock_verdict_matches_the_scalar_prover(stock):
    assert len(stock) == 693
    mismatches = [
        (target.name, injection.label())
        for target, injection, expected in stock
        if prove_untestable(target, injection) != expected
    ]
    assert mismatches == []
    proven = sorted(
        (target.name, injection.label())
        for target, injection, expected in stock if expected
    )
    assert proven == [
        ("dual_ehb", "stuck1(not$10)@0"),
        ("dual_ehb", "stuck1(not$9)@0"),
        ("passive", "stuck0(U.vn)@0"),
        ("vl", "stuck1(or$8)@0"),
    ]


def test_verdict_ignores_injection_cycle_and_flip_duration(stock):
    for target, injection, expected in stock:
        for cycle in (0, 40, 80):
            durations = (1, 3) if injection.kind == "flip" else (None,)
            for duration in durations:
                moved = Injection(injection.net, injection.kind, cycle,
                                  duration)
                assert prove_untestable(target, moved) == expected, (
                    target.name, moved.label())


def xor_site_target() -> RtlTarget:
    """A DUT whose channel output is ``XOR(din, site)``, ``din`` a
    primary input only the DUT reads."""
    nl = Netlist("xor_site")
    ch = GateChannel.declare(nl, "C")
    for wire in (ch.sp, ch.vn, ch.sn):
        nl.add_input(wire)
    din = nl.add_input("din")
    site = nl.BUF(ch.sp, out="site")
    nl.XOR(din, site, out=ch.vp)
    return RtlTarget(
        name="xor_site", netlist=nl, channels=[ch],
        free_inputs=[ch.sp, ch.vn, ch.sn, din],
        fault_sites=[ch.vp, site],
    )


def test_dut_inputs_are_enumerated_not_left_x():
    target = xor_site_target()
    fault = Injection("site", "stuck0")
    # With din left X the output reads X with or without the fault, so
    # the scalar prover calls it untestable; enumerating din exposes it.
    assert scalar_prove_untestable(target, fault)
    assert not prove_untestable(target, fault)
