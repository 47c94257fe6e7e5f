"""The fabric's job registry: what a worker can compute, and its codec.

A fabric worker is generic: it serves whatever *job kinds* are
registered in its process.  A job kind names three things --

* ``build(params)`` -- construct the per-worker runner once from the
  JSON-safe ``params`` the coordinator ships in the handshake; the
  runner maps one JSON-safe unit payload to one JSON-safe result;
* ``fingerprint(params)`` -- a deterministic JSON document describing
  everything the results depend on.  Coordinator and worker each
  compute it *from their own code*; the handshake compares the two and
  rejects the worker on any difference
  (:class:`~repro.fabric.coordinator.FabricMismatch`, in the mold of
  :class:`~repro.resilience.checkpoint.CheckpointMismatch`).  For
  campaigns this embeds the netlist fingerprint, so a worker running
  skewed controller code can never contribute to a merged report.

Two kinds ship built in: ``campaign`` (RTL fault-injection chunks --
the unit payload is a list of encoded injections, the result the list
of outcome dicts) and ``verify`` (one Kripke build + CTL check per
design name).  Tests register throwaway kinds of their own; the
registry is process-global on purpose so forked workers (test workers
and :func:`~repro.fabric.local.local_workers` alike) inherit them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = [
    "JobKind",
    "get_job",
    "register_job",
    "decode_campaign_config",
    "encode_campaign_config",
    "encode_injection",
    "decode_injection",
]


@dataclass(frozen=True)
class JobKind:
    """One kind of distributable work."""

    name: str
    #: params -> runner; the runner maps unit payload -> unit result.
    build: Callable[[Dict[str, object]], Callable[[object], object]]
    #: params -> the JSON document both sides must agree on.
    fingerprint: Callable[[Dict[str, object]], Dict[str, object]]


_REGISTRY: Dict[str, JobKind] = {}


def register_job(kind: JobKind) -> JobKind:
    """Register (or replace) a job kind process-wide."""
    _REGISTRY[kind.name] = kind
    return kind


def get_job(name: str) -> JobKind:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown fabric job {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


# ----------------------------------------------------------------------
# campaign: RTL fault-injection chunks
# ----------------------------------------------------------------------
def encode_campaign_config(config) -> Dict[str, object]:
    """A :class:`~repro.faults.campaign.CampaignConfig` as plain JSON."""
    return {
        "cycles": config.cycles,
        "seed": config.seed,
        "kinds": list(config.kinds),
        "injection_cycles": list(config.injection_cycles),
        "flip_duration": config.flip_duration,
        "untestable_analysis": config.untestable_analysis,
    }


def decode_campaign_config(doc: Dict[str, object]):
    from repro.faults.campaign import CampaignConfig

    return CampaignConfig(
        cycles=doc["cycles"],
        seed=doc["seed"],
        kinds=tuple(doc["kinds"]),
        injection_cycles=tuple(doc["injection_cycles"]),
        flip_duration=doc["flip_duration"],
        untestable_analysis=doc["untestable_analysis"],
    )


def encode_injection(injection) -> List[object]:
    return [injection.net, injection.kind, injection.cycle,
            injection.duration]


def decode_injection(doc: List[object]):
    from repro.faults.models import Injection

    net, kind, cycle, duration = doc
    return Injection(net, kind, cycle, duration)


def _campaign_build(params: Dict[str, object]):
    from repro.faults.batch import BatchCampaignHarness
    from repro.faults.campaign import resolve_target

    target = resolve_target(params["target"])
    config = decode_campaign_config(params["config"])
    harness = None

    def run(payload: object) -> object:
        # Built by the first unit, not at bind: binding stays a quick
        # fingerprint check, so workers are leased work before any of
        # them has built a harness (the chaos tests kill a worker on the
        # first result and expect it to lose leased work).  A forked
        # local worker finds the module in the memory tier its parent
        # loaded; a remote one loads it from its own cache directory.
        nonlocal harness
        if harness is None:
            harness = BatchCampaignHarness(
                target, config, params["lanes"], cache=params.get("cache")
            )
        injections = [decode_injection(doc) for doc in payload]
        return [o.to_dict() for o in harness.run_chunk(injections)]

    return run


def _campaign_fingerprint(params: Dict[str, object]) -> Dict[str, object]:
    """What both sides must agree on before merging campaign chunks.

    Embeds the *netlist fingerprint* computed from each side's own
    code: a worker with a skewed controller netlist (different repo
    revision, different elaboration) fingerprints differently and is
    rejected at the handshake, never silently merged.  The cache
    directory is deliberately excluded -- it cannot change outcomes,
    so a heterogeneous pool may mix them.
    """
    from repro.codegen.fingerprint import netlist_fingerprint
    from repro.faults.campaign import resolve_target

    target = resolve_target(params["target"])
    return {
        "kind": "fabric-campaign",
        "target": target.name,
        "netlist": netlist_fingerprint(target.netlist),
        "config": dict(params["config"]),
        "lanes": params["lanes"],
    }


register_job(JobKind(
    name="campaign",
    build=_campaign_build,
    fingerprint=_campaign_fingerprint,
))


# ----------------------------------------------------------------------
# verify: one Kripke build + CTL check per design
# ----------------------------------------------------------------------
def _verify_build(params: Dict[str, object]):
    from repro.verif.properties import verify_netlist
    from repro.verif.testbenches import DESIGNS, diamond_with_feedback

    max_states = params.get("max_states", 2_000_000)
    cache_dir: Optional[str] = params.get("cache")
    cache = None
    if cache_dir is not None:
        from repro.codegen import build_cache

        cache = build_cache(cache_dir)

    def run(payload: object) -> object:
        design = str(payload)
        nl, chans, fairness = diamond_with_feedback(**DESIGNS[design])
        result = verify_netlist(
            nl, chans, fairness=fairness, max_states=max_states, cache=cache,
        )
        return {
            "design": design,
            "states": result.states,
            "ok": result.ok,
            "failures": sorted(
                f"{ch}.{prop}" for ch, prop in result.failures()
            ),
            "properties": len(result.results),
        }

    return run


def _verify_fingerprint(params: Dict[str, object]) -> Dict[str, object]:
    from repro.codegen.fingerprint import netlist_fingerprint
    from repro.verif.testbenches import DESIGNS, diamond_with_feedback

    designs = sorted(params.get("designs", sorted(DESIGNS)))
    prints = {}
    for design in designs:
        nl, _, _ = diamond_with_feedback(**DESIGNS[design])
        prints[design] = netlist_fingerprint(nl)
    return {
        "kind": "fabric-verify",
        "designs": prints,
        "max_states": params.get("max_states", 2_000_000),
    }


register_job(JobKind(
    name="verify",
    build=_verify_build,
    fingerprint=_verify_fingerprint,
))
