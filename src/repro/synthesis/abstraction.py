"""DMG abstraction of an elastic system (Sect. 2 meets Sect. 6).

A system specification abstracts to a dual marked graph: blocks,
sources, sinks and registers become nodes; each connection becomes a
forward arc (carrying the register's initial tokens where applicable)
plus a backward arc carrying the spare capacity.  Early-evaluation
blocks become early-enabling nodes.

The abstraction serves two purposes:

* :func:`throughput_bound` -- the classical minimum-cycle-ratio bound
  of the *lazy* system (Sect. 2.2's repetitive behaviour makes it a
  genuine upper bound for conventional enabling; early evaluation may
  beat it, which is the whole point of the paper);
* structural liveness checking before elaboration: a spec whose DMG has
  a token-free cycle will deadlock.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from repro.core.analysis import critical_cycle_arcs, is_live
from repro.core.dmg import DualMarkedGraph
from repro.synthesis.spec import SystemSpec


def spec_to_dmg(
    spec: SystemSpec,
    mean_latency: Optional[Dict[str, float]] = None,
) -> Tuple[DualMarkedGraph, Dict[str, int]]:
    """Abstract ``spec`` into a DMG plus its forward-arc delays.

    Registers get latency 1 (one EB = one pipeline stage); blocks get
    latency 0 (combinational) unless variable-latency, in which case
    ``mean_latency[name]`` (rounded up, default 2) is used.  Sinks are
    connected back to sources with a high-capacity environment arc so
    the graph is strongly connected, as the paper assumes.

    For throughput bounds a forward arc carries the latency of the node
    it leaves; the backward capacity arcs (``~<connection>``) and the
    environment closure (``env:`` and ``~env:``) are free, because an
    elastic stage's slot frees when its consumer initiates.  The delay
    map holds exactly the forward arcs.

    Returns:
        ``(dmg, delays)`` ready for
        :func:`~repro.core.analysis.critical_cycle_arcs`.
    """
    spec.validate()
    g = DualMarkedGraph()
    latencies: Dict[str, int] = {}
    delays: Dict[str, int] = {}

    for s in spec.sources.values():
        g.add_node(s.name)
        latencies[s.name] = 0
    for s in spec.sinks.values():
        g.add_node(s.name)
        latencies[s.name] = 0
    for r in spec.registers.values():
        g.add_node(r.name)
        latencies[r.name] = 1
    for b in spec.blocks.values():
        g.add_node(b.name)
        if b.latency is not None:
            mean = (mean_latency or {}).get(b.name, 2.0)
            latencies[b.name] = max(1, int(round(mean)))
        else:
            latencies[b.name] = 0
        if b.is_early:
            g.mark_early(b.name)

    for conn in spec.connections:
        src = conn.src[1]
        dst = conn.dst[1]
        tokens = 0
        if conn.src[0] == "register":
            tokens = spec.registers[src].initial_tokens
        g.add_arc(src, dst, tokens=tokens, name=conn.name)
        delays[conn.name] = latencies[src]
        # Spare capacity: an EB holds ``capacity`` tokens; a direct
        # channel one in-flight handshake slot.
        capacity = (
            spec.registers[src].capacity if conn.src[0] == "register" else 1
        )
        g.add_arc(dst, src, tokens=capacity - tokens, name=f"~{conn.name}")

    # Close the environment: every sink feeds every source through a
    # well-provisioned arc (the paper's environment abstraction).
    env_capacity = 2 * max(1, len(spec.registers))
    for snk in spec.sinks.values():
        for src in spec.sources.values():
            g.add_arc(snk.name, src.name, tokens=env_capacity,
                      name=f"env:{snk.name}->{src.name}")
            g.add_arc(src.name, snk.name, tokens=0,
                      name=f"~env:{snk.name}->{src.name}")
    return g, delays


def throughput_bound(
    spec: SystemSpec,
    mean_latency: Optional[Dict[str, float]] = None,
) -> Fraction:
    """Minimum-cycle-ratio throughput bound of the lazy system.

    The ratio of the critical cycle under :func:`spec_to_dmg`'s
    forward-arc delays.
    """
    g, delays = spec_to_dmg(spec, mean_latency)
    return critical_cycle_arcs(g, delays)[0]


def check_liveness(spec: SystemSpec) -> bool:
    """Structural deadlock check: every cycle of the DMG holds a token.

    Raises ``ValueError`` if the abstraction is not strongly connected
    (a dangling sub-system that can never interact with the
    environment); returns the liveness verdict otherwise.
    """
    g, _ = spec_to_dmg(spec)
    return is_live(g)
