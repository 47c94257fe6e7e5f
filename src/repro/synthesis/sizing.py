"""Buffer sizing: exploring the re-pipelining freedom of elastic systems.

The paper's introduction: elastic systems "enable correct-by-
construction re-pipelining of wires and computation blocks".  Where a
conventional design needs a full re-timing flow, an elastic design can
insert an EB on any channel and stay functionally correct; only
*performance* changes.  This module provides the exploration tools:

* :func:`insert_buffer` -- splice an EB into any connection of a
  :class:`~repro.synthesis.spec.SystemSpec`;
* :func:`critical_cycles` -- rank the DMG abstraction's cycles by their
  token/latency ratio (the throughput bottlenecks);
* :func:`sweep_buffer_depth` -- throughput vs. EB chain depth on one
  channel;
* :func:`optimize_buffers` -- greedy buffer insertion maximising
  simulated throughput under an EB budget, the elastic analogue of
  slack matching.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.analysis import ranked_cycles
from repro.synthesis.abstraction import spec_to_dmg
from repro.synthesis.elaborate import to_behavioral
from repro.synthesis.spec import SystemSpec


def insert_buffer(
    spec: SystemSpec,
    connection_name: str,
    register_name: Optional[str] = None,
    initial_tokens: int = 0,
) -> str:
    """Splice a new EB into ``connection_name`` (mutates ``spec``).

    The original connection now ends at the new register's input; a new
    connection ``<register>->out`` carries on to the original
    destination (inheriting passivity and data bits).  Returns the new
    register's name.
    """
    conn = spec.connection(connection_name)
    if register_name is None:
        base = f"EB@{connection_name}"
        register_name = base
        suffix = 1
        while register_name in spec.registers:
            suffix += 1
            register_name = f"{base}#{suffix}"
    spec.add_register(register_name, initial_tokens=initial_tokens)
    old_dst = conn.dst
    conn.dst = ("register", register_name, "in")
    spec.connect(
        ("register", register_name, "out"),
        old_dst,
        name=f"{register_name}->out",
        data_bits=conn.data_bits,
    )
    spec.validate()
    return register_name


def critical_cycles(
    spec: SystemSpec,
    mean_latency: Optional[Dict[str, float]] = None,
    top: int = 5,
) -> List[Tuple[Fraction, List[str]]]:
    """The ``top`` tightest cycles of the DMG abstraction.

    Returns the first ``top`` ``(ratio, arc names)`` pairs of the
    abstraction's cycle ranking (:func:`~repro.core.analysis.
    ranked_cycles`) -- the first entry is the structural throughput
    bottleneck a designer (or :func:`optimize_buffers`) should attack
    first.  The ranking lists every simple cycle first, so an
    abstraction with more than :data:`~repro.core.mg.CYCLE_BUDGET` of
    them raises :class:`~repro.core.mg.TooManyCycles` (a
    ``ValueError`` naming the graph's node and arc counts);
    :func:`~repro.synthesis.abstraction.throughput_bound` still gives
    the head.
    """
    g, delays = spec_to_dmg(spec, mean_latency)
    return [
        (ratio, list(arcs)) for ratio, arcs in ranked_cycles(g, delays)[:top]
    ]


def _simulated_throughput(
    spec: SystemSpec, probe: str, cycles: int, seed: int
) -> float:
    net = to_behavioral(copy.deepcopy(spec), seed=seed)
    net.run(cycles)
    return net.throughput(probe)


def sweep_buffer_depth(
    spec_factory: Callable[[], SystemSpec],
    connection_name: str,
    probe: str,
    depths: Sequence[int] = (0, 1, 2, 3),
    cycles: int = 3000,
    seed: int = 0,
) -> Dict[int, float]:
    """Throughput vs. number of EBs spliced into one connection."""
    results: Dict[int, float] = {}
    for depth in depths:
        spec = spec_factory()
        target = connection_name
        for _ in range(depth):
            reg = insert_buffer(spec, target)
            target = f"{reg}->out"
        results[depth] = _simulated_throughput(spec, probe, cycles, seed)
    return results


@dataclass
class SizingStep:
    """One greedy insertion."""

    connection: str
    register: str
    throughput: float


@dataclass
class SizingResult:
    """Outcome of :func:`optimize_buffers`."""

    base_throughput: float
    steps: List[SizingStep] = field(default_factory=list)

    @property
    def final_throughput(self) -> float:
        return self.steps[-1].throughput if self.steps else self.base_throughput

    def __str__(self) -> str:
        lines = [f"base Th = {self.base_throughput:.3f}"]
        for step in self.steps:
            lines.append(
                f"  + EB on {step.connection:<14s} -> Th {step.throughput:.3f}"
            )
        return "\n".join(lines)


def optimize_buffers(
    spec: SystemSpec,
    candidates: Sequence[str],
    probe: str,
    budget: int = 3,
    cycles: int = 2500,
    seed: int = 0,
    min_gain: float = 0.005,
) -> Tuple[SystemSpec, SizingResult]:
    """Greedy slack matching: insert up to ``budget`` EBs.

    Each round simulates every candidate connection with one extra EB
    and keeps the best insertion if it beats the incumbent by at least
    ``min_gain``.  Mutated copies are used throughout; the input spec
    is never modified.  Returns the optimised spec and the step log.
    """
    current = copy.deepcopy(spec)
    base = _simulated_throughput(current, probe, cycles, seed)
    result = SizingResult(base_throughput=base)
    best_th = base
    live_candidates = list(candidates)

    for _ in range(budget):
        round_best: Optional[Tuple[float, str, SystemSpec, str]] = None
        for name in live_candidates:
            trial = copy.deepcopy(current)
            reg = insert_buffer(trial, name)
            th = _simulated_throughput(trial, probe, cycles, seed)
            if round_best is None or th > round_best[0]:
                round_best = (th, name, trial, reg)
        if round_best is None or round_best[0] < best_th + min_gain:
            break
        best_th, name, current, reg = round_best
        # allow stacking more depth on the same path next round
        live_candidates.append(f"{reg}->out")
        result.steps.append(
            SizingStep(connection=name, register=reg, throughput=best_th)
        )
    return current, result
