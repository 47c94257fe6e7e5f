"""Timed simulation of dual marked graphs for throughput estimation.

The paper's reference [8] (Julvez, Cortadella, Kishinevsky, ICCAD'06)
analyses the performance of systems with early evaluation on abstract
models; this module provides the equivalent facility for our DMGs: a
discrete-time, synchronous simulator where

* each node has an integer latency (possibly sampled per firing, which
  models the paper's variable-latency units),
* early-enabling nodes carry a *guard*: a function that samples, per
  firing, the subset of input arcs actually required (e.g. a multiplexer
  select with given probabilities),
* firing applies the DMG rule, so non-required inputs without a token go
  negative (anti-tokens) and N-enabled nodes drain them backwards.

Throughput is measured as firings per cycle of a reference node, which
by the repetitive-behaviour property is the same for every node over a
long run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Set

from repro.core.dmg import DualMarkedGraph
from repro.core.mg import Marking

# A guard samples the set of *required* input arc names for one firing.
Guard = Callable[[random.Random], Set[str]]
# A latency sampler returns the latency (in cycles) of one firing.
LatencySampler = Callable[[random.Random], int]


@dataclass
class ThroughputEstimate:
    """Result of a timed simulation run."""

    cycles: int
    firings: Dict[str, int]
    positive_firings: Dict[str, int]
    negative_firings: Dict[str, int]
    early_firings: Dict[str, int]
    aborted: Dict[str, int] = field(default_factory=dict)

    def throughput(self, node: Optional[str] = None) -> float:
        """Firings per cycle of ``node`` (or the max over nodes)."""
        if self.cycles == 0:
            return 0.0
        if node is not None:
            return self.firings.get(node, 0) / self.cycles
        return max(self.firings.values(), default=0) / self.cycles


def fixed_latency(value: int) -> LatencySampler:
    """A latency sampler that always returns ``value``."""
    if value < 1:
        raise ValueError("latencies must be >= 1 cycle")
    return lambda rng: value


def distribution_latency(choices: Mapping[int, float]) -> LatencySampler:
    """A latency sampler drawing from ``{latency: probability}``.

    Example: the paper's M1 unit uses ``{2: 0.8, 10: 0.2}``.
    """
    values = list(choices.keys())
    weights = list(choices.values())
    if any(v < 1 for v in values):
        raise ValueError("latencies must be >= 1 cycle")
    total = sum(weights)
    if total <= 0:
        raise ValueError("probabilities must sum to a positive value")
    return lambda rng: rng.choices(values, weights=weights, k=1)[0]


def select_guard(alternatives: Mapping[str, float]) -> Guard:
    """A guard choosing exactly one required input arc by probability.

    Models a multiplexer: each firing requires the select operand plus
    one data operand.  ``alternatives`` maps input-arc names to their
    selection probability; arcs not listed are never required.
    """
    arcs = list(alternatives.keys())
    weights = list(alternatives.values())
    return lambda rng: {rng.choices(arcs, weights=weights, k=1)[0]}


class TimedDMGSimulator:
    """Discrete-time synchronous simulator for a dual marked graph.

    Per cycle, in two phases:

    1. *Completion*: busy nodes whose latency elapsed deposit their
       results (apply the firing's output-side update).
    2. *Initiation*: every idle node checks enabling.  Early nodes
       sample their guard; if all required inputs hold tokens the node
       initiates an early (or positive) firing, consuming one token from
       every input arc -- arcs that held none go negative, generating
       anti-tokens.  N-enabled idle nodes propagate anti-tokens
       backwards instantaneously (anti-token moves are control-only and
       modelled as zero-latency).

    Nodes are single-server: at most one firing in flight per node.

    Nodes named in ``combinational`` are zero-latency forwarders (pure
    elastic control logic such as fork/join blocks): after the
    synchronous phase they fire against the live marking to a fixpoint,
    so a token deposited this cycle can traverse an entire combinational
    cascade within the same cycle.  Each such node still fires at most
    once per cycle and samples its guard once per cycle.
    """

    def __init__(
        self,
        graph: DualMarkedGraph,
        latencies: Optional[Mapping[str, LatencySampler]] = None,
        guards: Optional[Mapping[str, Guard]] = None,
        seed: int = 0,
        combinational: Optional[Set[str]] = None,
        eager_arcs: Optional[Set[str]] = None,
    ) -> None:
        self.graph = graph
        self._latencies: Dict[str, LatencySampler] = dict(latencies or {})
        self._guards: Dict[str, Guard] = dict(guards or {})
        for node in self._guards:
            if not graph.is_early(node):
                raise ValueError(f"guarded node {node!r} is not early-enabling")
        self._comb: Set[str] = set(combinational or ())
        unknown = self._comb - set(graph.nodes)
        if unknown:
            raise ValueError(f"combinational names unknown nodes {sorted(unknown)}")
        clash = self._comb & set(self._latencies)
        if clash:
            raise ValueError(
                f"combinational nodes cannot carry a latency sampler: {sorted(clash)}"
            )
        arc_names = {a.name for a in graph.arcs}
        self._eager: Set[str] = set(eager_arcs or ())
        unknown = self._eager - arc_names
        if unknown:
            raise ValueError(f"eager_arcs names unknown arcs {sorted(unknown)}")
        self.rng = random.Random(seed)
        self.reset()

    def reset(self) -> None:
        """Restore the initial marking and clear all statistics."""
        self.marking: Marking = self.graph.initial_marking
        self.cycle = 0
        # remaining-latency counter per busy node
        self._busy: Dict[str, int] = {}
        self.firings: Dict[str, int] = {n: 0 for n in self.graph.nodes}
        self.positive_firings: Dict[str, int] = {n: 0 for n in self.graph.nodes}
        self.negative_firings: Dict[str, int] = {n: 0 for n in self.graph.nodes}
        self.early_firings: Dict[str, int] = {n: 0 for n in self.graph.nodes}
        self.aborted: Dict[str, int] = {n: 0 for n in self.graph.nodes}

    # ------------------------------------------------------------------
    def _latency_of(self, node: str) -> int:
        sampler = self._latencies.get(node)
        return sampler(self.rng) if sampler is not None else 1

    def _required_inputs(self, node: str) -> Set[str]:
        """Inputs a firing of ``node`` must wait for this time."""
        pre = set(self.graph.preset(node))
        guard = self._guards.get(node)
        if guard is None or not self.graph.is_early(node):
            return pre
        required = set(guard(self.rng))
        unknown = required - pre
        if unknown:
            raise ValueError(f"guard of {node!r} required non-input arcs {unknown}")
        return required

    def _forward_outputs(self, post: Set[str]) -> Set[str]:
        """Output arcs that take part in negative enabling.

        Eager (capacity-return) arcs are excluded: a backward arc going
        low means the consumer is merely behind, not that an anti-token
        wants to cross this node.
        """
        return post - self._eager

    def step(self) -> None:
        """Advance the simulation by one cycle."""
        # Phase 1: completions deposit outputs (eager arcs were already
        # deposited at initiation).
        finished = [n for n, left in self._busy.items() if left <= 1]
        for node in self._busy:
            self._busy[node] -= 1
        for node in finished:
            del self._busy[node]
            out = set(self.graph.postset(node)) - set(self.graph.preset(node))
            for a in out - self._eager:
                self.marking[a] += 1

        # Phase 2a: sequential initiations, evaluated against a snapshot
        # so that all registered nodes see the same marking (synchronous
        # semantics).
        snapshot = dict(self.marking)
        for node in self.graph.nodes:
            if node in self._comb:
                continue
            pre = set(self.graph.preset(node))
            post = set(self.graph.postset(node))
            fwd = self._forward_outputs(post)
            if node in self._busy:
                # Abort: an anti-token reached every forward output of a
                # busy node, annihilating the computation in flight.  The
                # firing "completes" instantly -- its deposit lands on the
                # negative arcs -- which is where early evaluation saves
                # the remaining latency.
                if fwd and all(snapshot[a] < 0 for a in fwd):
                    del self._busy[node]
                    for a in (post - pre) - self._eager:
                        self.marking[a] += 1
                    self.aborted[node] += 1
                continue
            required = self._required_inputs(node)
            if required and all(snapshot[a] > 0 for a in required):
                early = any(snapshot[a] <= 0 for a in pre)
                self._initiate(node, pre, post)
                self.firings[node] += 1
                if early:
                    self.early_firings[node] += 1
                else:
                    self.positive_firings[node] += 1
            elif fwd and all(snapshot[a] < 0 for a in fwd):
                # Negative firing: instantaneous anti-token counterflow.
                for a in post - pre:
                    self.marking[a] += 1
                for a in pre - post:
                    self.marking[a] -= 1
                self.firings[node] += 1
                self.negative_firings[node] += 1

        # Phase 2b: combinational cascade.  Zero-latency nodes forward
        # tokens within the cycle, so they fire against the *live*
        # marking (seeing same-cycle deposits from phase 2a and from
        # earlier cascade firings) to a fixpoint -- at most one firing
        # per node per cycle, guards sampled once per node per cycle.
        if self._comb:
            order = sorted(self._comb)
            fired: Set[str] = set()
            required_by: Dict[str, Set[str]] = {}
            changed = True
            while changed:
                changed = False
                for node in order:
                    if node in fired:
                        continue
                    pre = set(self.graph.preset(node))
                    post = set(self.graph.postset(node))
                    if node not in required_by:
                        required_by[node] = self._required_inputs(node)
                    required = required_by[node]
                    if required and all(self.marking[a] > 0 for a in required):
                        early = any(self.marking[a] <= 0 for a in pre)
                        for a in pre - post:
                            self.marking[a] -= 1
                        for a in post - pre:
                            self.marking[a] += 1
                        self.firings[node] += 1
                        if early:
                            self.early_firings[node] += 1
                        else:
                            self.positive_firings[node] += 1
                        fired.add(node)
                        changed = True
                    else:
                        fwd = self._forward_outputs(post)
                        if fwd and all(self.marking[a] < 0 for a in fwd):
                            for a in post - pre:
                                self.marking[a] += 1
                            for a in pre - post:
                                self.marking[a] -= 1
                            self.firings[node] += 1
                            self.negative_firings[node] += 1
                            fired.add(node)
                            changed = True
        self.cycle += 1

    def _initiate(self, node: str, pre: Set[str], post: Set[str]) -> None:
        """Consume inputs now; outputs appear after the node's latency.

        Eager output arcs (capacity returns) are deposited at initiation:
        an elastic buffer's slot frees when the consumer *initiates*, not
        when it finishes.
        """
        for a in pre - post:
            self.marking[a] -= 1
        out = post - pre
        for a in out & self._eager:
            self.marking[a] += 1
        latency = self._latency_of(node)
        if latency == 1:
            for a in out - self._eager:
                self.marking[a] += 1
        else:
            self._busy[node] = latency

    def run(self, cycles: int) -> ThroughputEstimate:
        """Run ``cycles`` steps and return the accumulated statistics."""
        for _ in range(cycles):
            self.step()
        return ThroughputEstimate(
            cycles=self.cycle,
            firings=dict(self.firings),
            positive_firings=dict(self.positive_firings),
            negative_firings=dict(self.negative_firings),
            early_firings=dict(self.early_firings),
            aborted=dict(self.aborted),
        )
