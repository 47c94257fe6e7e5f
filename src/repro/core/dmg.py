"""Dual marked graphs (DMGs), the paper's behavioural model (Sect. 2.1).

A DMG extends a marked graph in two ways:

* markings map arcs to **integers** (``Z``), negative values being
  *anti-tokens*;
* a subset of nodes is declared *early-enabling*.

Three enabling rules exist for a node ``n`` at marking ``M``:

* **Positive (P)**: ``M(a) > 0`` for every input arc ``a`` -- the
  conventional MG rule.
* **Negative (N)**: ``M(a) < 0`` for every *output* arc -- the node
  propagates anti-tokens backwards (token counterflow).
* **Early (E)** (only for early-enabling nodes): ``M(•n) > 0`` and some
  input arc has ``M(a) == 0`` -- the node fires with only part of its
  inputs, leaving anti-tokens behind on the inputs that had none.

Regardless of the rule, firing applies the ordinary MG token-count
update, which is why all cycle invariants of MGs carry over to DMGs.

The paper abstracts early enabling as a non-deterministic choice; the
:class:`DualMarkedGraph` here follows that abstraction, while guarded
(data-dependent) early evaluation lives in the circuit-level layers
(:mod:`repro.elastic`) and in the timed simulator
(:mod:`repro.core.performance`).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import List, Mapping, Optional, Set, Tuple

from repro.core.mg import MarkedGraph, Marking


class Enabling(enum.Enum):
    """The three DMG enabling rules."""

    POSITIVE = "P"
    NEGATIVE = "N"
    EARLY = "E"


@dataclass(frozen=True)
class FiringEvent:
    """One firing: which node fired and under which enabling rule."""

    node: str
    kind: Enabling

    def __str__(self) -> str:
        return f"{self.node}({self.kind.value})"


class DualMarkedGraph(MarkedGraph):
    """A marked graph with anti-tokens and early-enabling nodes.

    Besides the structure inherited from :class:`MarkedGraph`, a DMG
    records the set of early-enabling nodes (drawn with thicker bars in
    the paper's figures).

    Example (the DMG of Fig. 1):
        >>> g = fig1_dmg()
        >>> m = g.initial_marking
        >>> for node in ("n2", "n1", "n7"):
        ...     m = g.fire_any(node, m)
        >>> m["n4->n7"]
        -1
    """

    def __init__(self) -> None:
        super().__init__()
        self._early: Set[str] = set()

    # ------------------------------------------------------------------
    # Early-enabling declarations
    # ------------------------------------------------------------------
    def mark_early(self, node: str) -> None:
        """Declare ``node`` as early-enabling.  The node must exist."""
        if node not in set(self.nodes):
            raise KeyError(f"unknown node {node!r}")
        self._early.add(node)

    @property
    def early_nodes(self) -> Set[str]:
        """The set of early-enabling nodes."""
        return set(self._early)

    def is_early(self, node: str) -> bool:
        """True if ``node`` may fire under the early rule."""
        return node in self._early

    # ------------------------------------------------------------------
    # Enabling rules
    # ------------------------------------------------------------------
    def p_enabled(self, node: str, marking: Mapping[str, int]) -> bool:
        """Positive enabling: all input arcs strictly positive."""
        return all(marking[a] > 0 for a in self.preset(node))

    def n_enabled(self, node: str, marking: Mapping[str, int]) -> bool:
        """Negative enabling: all *output* arcs strictly negative."""
        post = self.postset(node)
        return bool(post) and all(marking[a] < 0 for a in post)

    def e_enabled(self, node: str, marking: Mapping[str, int]) -> bool:
        """Early enabling: positive input sum but some input arc at zero.

        Only early-enabling nodes may fire under this rule.  The paper's
        definition requires ``M(•n) > 0`` (the *sum* over the preset is
        positive) and at least one input arc with no token.
        """
        if node not in self._early:
            return False
        pre = self.preset(node)
        total = sum(marking[a] for a in pre)
        return total > 0 and any(marking[a] == 0 for a in pre)

    def enabling_kinds(self, node: str, marking: Mapping[str, int]) -> List[Enabling]:
        """All rules under which ``node`` is enabled at ``marking``."""
        kinds: List[Enabling] = []
        if self.p_enabled(node, marking):
            kinds.append(Enabling.POSITIVE)
        if self.n_enabled(node, marking):
            kinds.append(Enabling.NEGATIVE)
        if self.e_enabled(node, marking):
            kinds.append(Enabling.EARLY)
        return kinds

    def enabled(self, node: str, marking: Mapping[str, int]) -> bool:
        """A DMG node is enabled if it is P-, N- or E-enabled."""
        return bool(self.enabling_kinds(node, marking))

    def enabled_events(self, marking: Mapping[str, int]) -> List[FiringEvent]:
        """Every (node, rule) pair enabled at ``marking``."""
        events: List[FiringEvent] = []
        for node in self.nodes:
            for kind in self.enabling_kinds(node, marking):
                events.append(FiringEvent(node, kind))
        return events

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def fire_event(self, event: FiringEvent, marking: Mapping[str, int]) -> Marking:
        """Fire ``event.node`` checking the specific rule ``event.kind``."""
        checks = {
            Enabling.POSITIVE: self.p_enabled,
            Enabling.NEGATIVE: self.n_enabled,
            Enabling.EARLY: self.e_enabled,
        }
        if not checks[event.kind](event.node, marking):
            raise ValueError(f"{event} is not enabled")
        return self.apply_firing(event.node, marking)

    def fire_any(self, node: str, marking: Mapping[str, int]) -> Marking:
        """Fire ``node`` under any rule that enables it."""
        kinds = self.enabling_kinds(node, marking)
        if not kinds:
            raise ValueError(f"node {node!r} is not enabled under any rule")
        return self.apply_firing(node, marking)

    def fire(self, node: str, marking: Mapping[str, int]) -> Marking:
        """Alias of :meth:`fire_any` (overrides the MG positive-only rule)."""
        return self.fire_any(node, marking)

    # ------------------------------------------------------------------
    # Random exploration
    # ------------------------------------------------------------------
    def random_firing_sequence(
        self,
        length: int,
        rng: Optional[random.Random] = None,
        marking: Optional[Mapping[str, int]] = None,
    ) -> Tuple[List[FiringEvent], Marking]:
        """Fire ``length`` random enabled events from ``marking`` (or M0).

        Used by property-based tests to exercise the invariants of
        Sect. 2.2 on arbitrary interleavings.  Returns the trace and the
        final marking.  Raises ``RuntimeError`` on deadlock, which for a
        live SCDMG never happens.
        """
        rng = rng or random.Random()
        m: Marking = dict(marking) if marking is not None else self.initial_marking
        trace: List[FiringEvent] = []
        for _ in range(length):
            events = self.enabled_events(m)
            if not events:
                raise RuntimeError("deadlock: no enabled events")
            event = rng.choice(events)
            m = self.apply_firing(event.node, m)
            trace.append(event)
        return trace, m

    def __repr__(self) -> str:
        return (
            f"DualMarkedGraph(nodes={len(self.nodes)}, arcs={len(self.arcs)}, "
            f"early={sorted(self._early)})"
        )


def fig1_dmg() -> DualMarkedGraph:
    """The example DMG of Fig. 1 of the paper.

    Eight nodes, one early-enabling node ``n1`` and three simple cycles::

        C1 = {n1, n2, n4, n7}
        C2 = {n1, n3, n5, n7}
        C3 = {n1, n3, n6, n8}

    Every cycle carries exactly one token in the initial marking.  The
    marking of Fig. 1(b) is reached by firing ``n2`` (P), ``n1`` (E) and
    ``n7`` (N).
    """
    g = DualMarkedGraph()
    # Cycle C1: n1 -> n2 -> n4 -> n7 -> n1, token on n1 -> n2 so that n2
    # is P-enabled in the initial marking, matching the paper's trace.
    g.add_arc("n1", "n2", tokens=1)
    g.add_arc("n2", "n4")
    g.add_arc("n4", "n7")
    g.add_arc("n7", "n1")
    # Cycle C2: n1 -> n3 -> n5 -> n7 (-> n1), token on n3 -> n5.
    g.add_arc("n1", "n3")
    g.add_arc("n3", "n5", tokens=1)
    g.add_arc("n5", "n7")
    # Cycle C3: n1 -> n3 -> n6 -> n8 -> n1 carries its token on n8 -> n1,
    # which makes n1 E-enabled (positive preset sum, n7 -> n1 empty)
    # after n2 fires.
    g.add_arc("n3", "n6")
    g.add_arc("n6", "n8")
    g.add_arc("n8", "n1", tokens=1)
    g.mark_early("n1")
    return g
