"""The full-pipeline differential oracle: one spec, every engine.

:func:`run_oracle` pushes a generated :class:`~repro.fuzz.model.
SpecModel` through the complete toolchain and reports the *first*
discrepancy as a :class:`FuzzFinding`:

1. **build** -- the model must materialise (typed
   :class:`~repro.fuzz.model.InvalidSpecModel` otherwise);
2. **lint** -- the spec-level rules must report no ERROR (the
   generator's clean-by-construction contract);
3. **behavioral** -- the cycle-accurate network runs under its raising
   SELF protocol monitors (invariant (2), Retry persistence, payload
   checks, fixed-point convergence), after an optional ``mutate`` hook
   -- the seeded-bug demo patches a controller here;
4. **differential** -- the gate-level netlist (with ND environment
   stubs, whose free inputs are protocol-legal for *any* 0/1 stream)
   runs lock-step on the scalar two-phase simulator (the semantic
   reference) and on lane 0 of the compiled lane-parallel simulator
   that fault campaigns use, under a randomized schedule; every channel
   wire must agree every cycle, and the word-wide channel monitors of
   the campaign harness (equation (2) and Retry persistence,
   :func:`repro.faults.batch.protocol_monitors`) watch that lane
   (**protocol** stage);
5. **ctl** -- below an input/state budget, the Kripke structure is
   built and the paper's safety properties (invariant, Retry+/Retry−)
   are model checked; a :class:`~repro.verif.kripke.
   StateSpaceLimitError` is a skip, not a finding.

Stages 4-5 are skipped when a register capacity is not 2 (the one
configuration the gate backend cannot emit).  They share one gate
elaboration, one observe set (:func:`~repro.verif.properties.
observed_signals`) and one build cache, so the Kripke builder loads the
differential's compiled module instead of compiling its own.  All
randomness derives from ``random.Random(f"fuzz:{seed}:...")`` streams,
so a finding is replayable from ``(model, seed)`` alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.fuzz.model import InvalidSpecModel, SpecModel

__all__ = ["FuzzFinding", "OracleConfig", "run_oracle"]

#: A behavioural-network mutation hook (the seeded-bug demo).
Mutation = Callable[[object], object]


@dataclass(frozen=True)
class FuzzFinding:
    """One oracle discrepancy: which stage broke, and how."""

    spec: str
    seed: int
    stage: str
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {"spec": self.spec, "seed": self.seed, "stage": self.stage,
                "detail": self.detail}

    def __str__(self) -> str:
        return f"{self.spec} [{self.stage}] {self.detail}"


@dataclass(frozen=True)
class OracleConfig:
    """Budgets for one oracle run."""

    cycles: int = 96
    #: run the gate-level scalar/compiled differential stage
    check_gates: bool = True
    #: run the bounded Kripke/CTL spot check
    check_verify: bool = True
    #: skip CTL when the netlist has more free inputs than this (the
    #: exploration enumerates 2^k input combinations per state)
    verify_max_inputs: int = 6
    verify_max_states: int = 20_000
    #: optional BuildCache for compiled modules and Kripke structures;
    #: without one, each run_oracle call builds in one in-memory cache
    #: that both gate stages share
    cache: object = None


def _finding(model: SpecModel, seed: int, stage: str,
             detail: str) -> FuzzFinding:
    return FuzzFinding(spec=model.name, seed=seed, stage=stage,
                       detail=detail)


def run_oracle(
    model: SpecModel,
    seed: int = 0,
    config: OracleConfig = OracleConfig(),
    mutate: Optional[Mutation] = None,
) -> Optional[FuzzFinding]:
    """Run the whole pipeline on ``model``; None means all stages agree."""
    from repro.elastic.protocol import ProtocolViolation
    from repro.lint.elastic_rules import lint_network, lint_spec

    # Stage 1: build.
    try:
        spec = model.build()
    except InvalidSpecModel as exc:
        return _finding(model, seed, "build", str(exc))

    # Stage 2: the clean-by-construction lint contract.
    errors = [f for f in lint_spec(spec) if f.severity.name == "ERROR"]
    if errors:
        return _finding(model, seed, "lint",
                        "; ".join(str(f) for f in errors))

    # Stage 3: behavioural run under raising protocol monitors.
    from repro.synthesis.elaborate import to_behavioral

    net = to_behavioral(spec, seed=seed, monitor=True, check_data=True)
    if mutate is not None:
        mutate(net)
    net_errors = [f for f in lint_network(net)
                  if f.severity.name == "ERROR"]
    if net_errors:
        return _finding(model, seed, "network-lint",
                        "; ".join(str(f) for f in net_errors))
    try:
        for _ in range(config.cycles):
            net.step()
    except ProtocolViolation as exc:
        return _finding(model, seed, "behavioral", str(exc))

    if not config.check_gates or any(
        r.capacity != 2 for r in spec.registers.values()
    ):
        return None

    # Stages 4-5 share one elaboration, observe set and build cache.
    from repro.codegen.cache import BuildCache
    from repro.synthesis.elaborate import to_gates
    from repro.verif.properties import observed_signals

    elab = to_gates(spec, include_env=True, as_latches=False)
    nl = elab.netlist
    channels = [elab.channels[k] for k in sorted(elab.channels)]
    observe = observed_signals(nl, channels)
    cache = (config.cache if config.cache is not None
             else BuildCache.in_memory())

    # Stage 4: scalar vs compiled on the gate netlist.
    finding = _gate_differential(
        model, nl, channels, observe, cache, seed, config
    )
    if finding is not None:
        return finding

    # Stage 5: bounded Kripke/CTL spot check.
    if config.check_verify:
        return _ctl_spot_check(
            model, nl, channels, observe, cache, seed, config
        )
    return None


def _gate_differential(
    model: SpecModel, nl, channels, observe, cache, seed: int,
    config: OracleConfig,
) -> Optional[FuzzFinding]:
    from repro.codegen.sim import CompiledSimulator
    from repro.faults.batch import protocol_monitors
    from repro.lint.netlist_rules import lint_netlist
    from repro.rtl.simulator import TwoPhaseSimulator

    nl_errors = [f for f in lint_netlist(nl) if f.severity.name == "ERROR"]
    if nl_errors:
        return _finding(model, seed, "netlist-lint",
                        "; ".join(str(f) for f in nl_errors))

    wires = [w for ch in channels for w in ch.wires()]
    inputs = sorted(nl.inputs)
    rng = random.Random(f"fuzz:{seed}:{model.name}:env:0")
    stimulus = [
        {name: rng.getrandbits(1) for name in inputs}
        for _ in range(config.cycles)
    ]

    scalar = TwoPhaseSimulator(nl)
    compiled = CompiledSimulator(
        nl, 1, hooks=frozenset(), observe=frozenset(observe), cache=cache,
    )
    monitors = protocol_monitors(channels, compiled)
    v, k = compiled.value_planes, compiled.known_planes

    for t, packed in enumerate(compiled.broadcast(stimulus)):
        compiled.cycle(packed)
        values = scalar.cycle(stimulus[t])
        for wire in wires:
            want = values.get(wire)
            got = compiled.lane_value(wire, 0)
            if got != want:
                return _finding(
                    model, seed, "differential",
                    f"cycle {t} wire {wire}: scalar={want!r} "
                    f"compiled[0]={got!r}",
                )
        fired = monitors.observe(t, v, k, 1)
        if fired:
            return _finding(model, seed, "protocol", str(fired[0][1]))
    return None


def _ctl_spot_check(
    model: SpecModel, nl, channels, observe, cache, seed: int,
    config: OracleConfig,
) -> Optional[FuzzFinding]:
    from repro.verif.kripke import StateSpaceLimitError, build_kripke
    from repro.verif.properties import verify_channel_properties

    if len(nl.inputs) > config.verify_max_inputs:
        return None
    try:
        kripke = build_kripke(
            nl, observe=observe, max_states=config.verify_max_states,
            cache=cache,
        )
    except StateSpaceLimitError:
        return None  # over budget: a skip, not a finding
    result = verify_channel_properties(kripke, channels,
                                       include_liveness=False)
    if not result.ok:
        return _finding(
            model, seed, "ctl",
            "failed CTL properties: "
            + ", ".join(f"{ch}.{prop}" for ch, prop in result.failures()),
        )
    return None
