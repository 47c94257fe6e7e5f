"""Shared Hypothesis strategies and random-circuit generators.

Two families live here:

* the random *netlist* generators that the compiled-vs-scalar
  differential suites drive (gate soup with latches, flip-flop
  feedback, X stimulus and per-lane fault injections), lifted out of
  ``tests/rtl/test_batchsim_differential.py`` so every differential
  suite consumes the same distribution;
* :func:`spec_models`, a Hypothesis strategy over the *system-level*
  :class:`repro.fuzz.model.SpecModel` generator -- valid (lint-clean,
  elaborable) specs by construction, the same distribution ``repro
  fuzz`` samples.

Import from ``tests.strategies``; ``tests/conftest.py`` re-exports the
module as the ``strategies`` fixture for tests that prefer fixtures
over imports.
"""

import random

from hypothesis import strategies as st

from repro.fuzz.generate import GeneratorConfig, generate_model
from repro.rtl.batchsim import LaneOverride
from repro.rtl.logic import X, lnot
from repro.rtl.netlist import Netlist, Phase

LANES = 64
CYCLES = 5

_VARIADIC = ["AND", "OR", "NAND", "NOR"]


# ----------------------------------------------------------------------
# Random netlists + stimulus + injections (gate-level differentials)
# ----------------------------------------------------------------------
def build_random_netlist(rng: random.Random) -> Netlist:
    """A random netlist whose cells only read earlier-created signals."""
    nl = Netlist("rand")
    pool = [nl.add_input(f"in{i}") for i in range(rng.randint(1, 4))]
    ff_qs = [f"ff{j}" for j in range(rng.randint(0, 3))]
    pool += ff_qs  # flop outputs are readable before they are driven
    for i in range(rng.randint(3, 22)):
        r = rng.random()
        if r < 0.15:
            q = nl.add_latch(
                rng.choice(pool),
                rng.choice([Phase.HIGH, Phase.LOW]),
                q=f"lat{i}",
                init=rng.choice([0, 1, X]),
            )
        elif r < 0.25:
            q = nl.MUX(*(rng.choice(pool) for _ in range(3)), out=f"g{i}")
        elif r < 0.35:
            q = nl.XOR(rng.choice(pool), rng.choice(pool), out=f"g{i}")
        elif r < 0.45:
            op = rng.choice(["NOT", "BUF", "CONST0", "CONST1"])
            ins = (rng.choice(pool),) if op in ("NOT", "BUF") else ()
            q = nl.add_gate(op, ins, out=f"g{i}")
        else:
            op = rng.choice(_VARIADIC)
            ins = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            q = nl.add_gate(op, ins, out=f"g{i}")
        pool.append(q)
    for q in ff_qs:
        nl.add_flop(rng.choice(pool), q=q, init=rng.choice([0, 1]))
    nl.validate()
    return nl


def random_stimulus(rng: random.Random, netlist: Netlist,
                    lanes: int = LANES, cycles: int = CYCLES):
    """Per-lane, per-cycle input maps with ~15% explicit X drives."""
    def one_value():
        r = rng.random()
        return X if r < 0.15 else (1 if r < 0.575 else 0)

    return [
        [
            {name: one_value() for name in netlist.inputs}
            for _ in range(cycles)
        ]
        for _ in range(lanes)
    ]


def random_injections(rng: random.Random, netlist: Netlist,
                      lanes: int = LANES, cycles: int = CYCLES):
    """At most one fault per lane: (net, kind, cycle, duration|None)."""
    sites = sorted(netlist.signals())
    injections = []
    for _ in range(lanes):
        if rng.random() < 0.5:
            injections.append(None)
            continue
        injections.append((
            rng.choice(sites),
            rng.choice(["stuck0", "stuck1", "flip"]),
            rng.randrange(cycles),
            rng.choice([None, 1, 2]),
        ))
    return injections


def _active(inj, time):
    net, kind, cycle, duration = inj
    return time >= cycle and (duration is None or time < cycle + duration)


def _batch_overrides(injections, time):
    masks = {}
    for lane, inj in enumerate(injections):
        if inj is None or not _active(inj, time):
            continue
        net, kind, _, _ = inj
        m = masks.setdefault(net, [0, 0, 0])
        m[{"stuck0": 0, "stuck1": 1, "flip": 2}[kind]] |= 1 << lane
    return {
        net: LaneOverride(set0=m[0], set1=m[1], flip=m[2])
        for net, m in masks.items()
    }


def _scalar_overrides(inj, time):
    if inj is None or not _active(inj, time):
        return {}
    net, kind, _, _ = inj
    return {net: {"stuck0": 0, "stuck1": 1, "flip": lnot}[kind]}


@st.composite
def random_netlists(draw):
    """Random gate/latch netlists over the backend-suite distribution.

    One drawn seed determines the whole netlist (shrink-friendly,
    replayable); the re-parse front-end suite round-trips these through
    the BLIF/Verilog exporters.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    return build_random_netlist(random.Random(seed))


@st.composite
def differential_cases(draw, lanes: int = LANES, cycles: int = CYCLES):
    """(netlist, per-lane stimulus, per-lane injections) triples.

    One drawn seed determines the whole case, so Hypothesis shrinks
    toward small seeds and failures replay from the seed alone.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    nl = build_random_netlist(rng)
    stimuli = random_stimulus(rng, nl, lanes=lanes, cycles=cycles)
    injections = random_injections(rng, nl, lanes=lanes, cycles=cycles)
    return seed, nl, stimuli, injections


# ----------------------------------------------------------------------
# System-level spec models (the repro.fuzz generator as a strategy)
# ----------------------------------------------------------------------
@st.composite
def spec_models(draw, max_blocks: int = 16, config: GeneratorConfig = None):
    """Valid :class:`~repro.fuzz.model.SpecModel`s, fuzz-distribution.

    Every drawn model is repaired to the clean-by-construction
    contract: it builds, passes the spec lint with no ERROR findings,
    and elaborates to both the behavioural network and (when all
    register capacities are 2) the gate netlist.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(f"hyp:{seed}")
    cfg = config or GeneratorConfig(max_blocks=max_blocks)
    return generate_model(rng, cfg, name=f"hyp{seed}")
