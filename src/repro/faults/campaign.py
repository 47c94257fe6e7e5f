"""Fault-injection campaigns with online monitors and JSON reports.

A campaign sweeps (fault site x fault kind x injection cycle) over a
target, runs every injection against a seeded, protocol-legal random
environment, and classifies each fault:

* ``detected`` -- an online monitor fired (the report records the
  monitor's name and the first detection cycle);
* ``latent`` -- no monitor fired but the run diverged from the golden
  (fault-free) reference -- internal state corruption that never
  reached an observable rule;
* ``undetected`` -- the run is indistinguishable from the golden run
  (the fault was logically masked).

Reports are deterministic: the same seed reproduces the same stimulus,
the same sweep order and byte-for-byte the same JSON.

Two campaign flavours:

* :func:`run_campaign` -- RTL stuck-at/flip faults on the gate-level
  controller targets of :mod:`repro.faults.targets`;
* :func:`run_processor_campaign` -- behavioural channel glitches and
  buffer state upsets on the Sect. 7 elastic processor.

Faults the sweep leaves undetected go to :func:`prove_untestable`,
which checks every (DUT state, boundary input) pair in one cycle of the
compiled lane-parallel simulator.

RTL campaigns run on the compiled lane-parallel simulator
(:class:`~repro.faults.batch.BatchCampaignHarness`), which classifies
``lanes`` injections per simulation, one per bit lane, beside the
fault-free run in one lane more.  They scale two
ways, composable and both byte-identical to the one-lane sweep: more
``lanes``, and ``jobs > 1`` (or ``workers=``), which leases the
injection chunks to socket workers of :mod:`repro.fabric` (dead/hung
workers are detected and their chunks requeued), merging results back
into sweep order.  A ``checkpoint`` directory makes any split
resumable: each classified chunk is persisted atomically, and a rerun
pointed at the same directory skips completed chunks and still emits
byte-for-byte the same JSON report as an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import random
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.casestudy.processor import ProcessorConfig, build_processor
from repro.codegen.cache import BuildCache, build_cache
from repro.codegen.fingerprint import netlist_fingerprint
from repro.codegen.sim import CompiledSimulator
from repro.elastic.behavioral import ElasticBuffer
from repro.elastic.protocol import ProtocolViolation
from repro.faults.models import (
    BUFFER_FAULT_KINDS,
    CHANNEL_FAULT_KINDS,
    BufferFault,
    ChannelFault,
    Injection,
    StateSaboteur,
    WireSaboteur,
)
from repro.faults.targets import TARGETS, RtlTarget
from repro.resilience.checkpoint import CheckpointStore
from repro.rtl.batchsim import LaneOverride, Planes, truth_table_columns
from repro.rtl.toposort import CombinationalCycleError

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class CampaignConfig:
    """Sweep parameters for an RTL campaign."""

    cycles: int = 400
    seed: int = 2007
    kinds: Tuple[str, ...] = ("stuck0", "stuck1")
    injection_cycles: Tuple[int, ...] = (0,)
    flip_duration: int = 1
    #: Try to prove faults the sweep missed equivalent to the fault-free
    #: circuit (exhaustive (state, input) equivalence over the DUT cone).
    untestable_analysis: bool = True


@dataclass(frozen=True)
class FaultOutcome:
    """The verdict for one injected fault."""

    fault: str
    status: str  # "detected" | "latent" | "undetected"
    monitor: Optional[str] = None
    detection_cycle: Optional[int] = None
    detail: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "fault": self.fault,
            "status": self.status,
            "monitor": self.monitor,
            "detection_cycle": self.detection_cycle,
            "detail": self.detail,
        }


@dataclass
class CampaignReport:
    """All outcomes of one campaign, with deterministic serialisation."""

    target: str
    seed: int
    cycles: int
    outcomes: List[FaultOutcome] = field(default_factory=list)
    #: optional run metadata (wall time, cycles/sec, ...), absent from
    #: the serialised report unless set -- the default report stays
    #: byte-identical to the goldens.
    metrics: Optional[Dict[str, object]] = None
    #: optional fault-free performance baseline of the target (opt in
    #: via ``run_campaign(..., profile=True)``): the full
    #: :mod:`repro.obs.analyze` report dict; absent from the
    #: serialised report unless set.
    profile: Optional[Dict[str, object]] = None

    def counts(self) -> Dict[str, int]:
        counts = {"detected": 0, "latent": 0, "undetected": 0, "untestable": 0}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    @property
    def coverage(self) -> float:
        """Detected fraction of the *testable* faults (ATPG convention:
        faults proven equivalent to the fault-free circuit leave the
        denominator)."""
        counts = self.counts()
        testable = len(self.outcomes) - counts["untestable"]
        if testable <= 0:
            return 1.0
        return counts["detected"] / testable

    def detected(self) -> List[FaultOutcome]:
        return [o for o in self.outcomes if o.status == "detected"]

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "target": self.target,
            "seed": self.seed,
            "cycles": self.cycles,
            "counts": self.counts(),
            "coverage": round(self.coverage, 6),
            "faults": [o.to_dict() for o in self.outcomes],
        }
        if self.metrics is not None:
            d["metrics"] = self.metrics
        if self.profile is not None:
            d["profile"] = self.profile
        return d

    def to_json(self) -> str:
        """Deterministic JSON (same seed => identical bytes)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def table(self) -> str:
        """The coverage table: monitor + first-detection cycle per fault."""
        width = max((len(o.fault) for o in self.outcomes), default=10)
        lines = [
            f"fault campaign [{self.target}] seed={self.seed} "
            f"cycles={self.cycles}",
            f"{'fault':{width}}  {'status':10}  {'detected by':28}  cycle",
        ]
        for o in self.outcomes:
            monitor = o.monitor or "-"
            cycle = "-" if o.detection_cycle is None else str(o.detection_cycle)
            lines.append(
                f"{o.fault:{width}}  {o.status:10}  {monitor:28}  {cycle}"
            )
        c = self.counts()
        testable = len(self.outcomes) - c["untestable"]
        lines.append(
            f"coverage: {c['detected']}/{testable} testable faults detected "
            f"({100.0 * self.coverage:.1f}%), {c['latent']} latent, "
            f"{c['undetected']} undetected, {c['untestable']} untestable"
        )
        return "\n".join(lines)


def make_stimulus(
    free_inputs: Sequence[str], cycles: int, seed: int
) -> List[Dict[str, int]]:
    """Seeded free-input bits, identical for golden and faulty runs."""
    rng = random.Random(seed)
    return [
        {name: rng.getrandbits(1) for name in free_inputs}
        for _ in range(cycles)
    ]


#: The LaneOverride mask each RTL fault kind sets.
_FAULT_MASK = {"stuck0": "set0", "stuck1": "set1", "flip": "flip"}


def enumerate_injections(
    target: RtlTarget, config: CampaignConfig
) -> List[Injection]:
    """The full (site x kind x cycle) sweep, in deterministic order."""
    injections: List[Injection] = []
    for net in target.fault_sites:
        for kind in config.kinds:
            for cycle in config.injection_cycles:
                duration = config.flip_duration if kind == "flip" else None
                injections.append(Injection(net, kind, cycle, duration))
    return injections


def prove_untestable(
    target: RtlTarget,
    injection: Injection,
    cache: Union[BuildCache, str, None] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> bool:
    """Exhaustively prove a fault equivalent to the fault-free circuit.

    Enumerates every (DUT state, boundary input) pair -- boundary inputs
    are the channel wires the environment drives, forced via override
    masks, plus the primary inputs the DUT reads -- and compares the
    faulty against the fault-free next state and DUT-driven channel
    outputs.  If no pair differs the fault is untestable by *any*
    environment, so (ATPG convention) it leaves the coverage
    denominator.  The verdict ignores the injection cycle and the flip
    duration.

    Lanes are the enumeration axis: one cycle of the compiled simulator
    over ``2 * 2**n`` lanes for ``n`` enumerated bits, the low half
    fault-free and the high half faulty.  ``cache`` is the build cache
    of its generated module and ``metrics`` counts its lookup, as for
    :class:`~repro.codegen.sim.CompiledSimulator`.

    Conservative: returns False (i.e. "maybe testable") when the DUT
    state lives in latches, the enumeration would exceed 16 bits, or
    the netlist has a combinational cycle the compiled simulator
    refuses.
    """
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
    read = {i for q in sites if q in nl.gates for i in nl.gates[q].ins}
    read.update(nl.flops[q].d for q in state_bits)
    inputs = [i for i in nl.inputs if i in read and i not in boundary]
    n = len(state_bits) + len(boundary) + len(inputs)
    if n > 16:
        return False
    nl.validate()
    try:
        sim = CompiledSimulator(
            nl, 2 << n, hooks=sites.union(boundary),
            observe=frozenset(outputs), cache=cache, metrics=metrics,
        )
    except CombinationalCycleError:
        return False
    mask = sim.mask
    *columns, faulty = truth_table_columns(n + 1)
    col = dict(zip(state_bits + boundary + inputs, columns))
    sim.load_state({q: (col[q], mask) for q in state_bits})
    overrides = {
        w: LaneOverride(set0=mask & ~col[w], set1=col[w]) for w in boundary
    }
    overrides[injection.net] = LaneOverride(
        **{_FAULT_MASK[injection.kind]: faulty}
    )
    sim.set_overrides(overrides)
    sim.cycle({i: (col[i], mask) for i in inputs})

    half = 1 << n
    low = (1 << half) - 1

    def halves_differ(planes: Planes) -> bool:
        v, k = planes
        return bool(((v ^ (v >> half)) | (k ^ (k >> half))) & low)

    if any(halves_differ(sim.planes(w)) for w in outputs):
        return False
    return not any(
        halves_differ(sim.state[sim.slot(q)]) for q in state_bits
    )


def _check_horizon(cycles: int, injection_cycles: Sequence[int]) -> None:
    """Reject a sweep whose faults could never arm inside the run."""
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    for cycle in injection_cycles:
        if not 0 <= cycle < cycles:
            raise ValueError(
                f"injection cycle {cycle} is outside [0, {cycles}): "
                f"its fault would never arm in a {cycles}-cycle run"
            )


def resolve_target(target: Union[str, RtlTarget]) -> RtlTarget:
    if isinstance(target, RtlTarget):
        return target
    try:
        return TARGETS[target]()
    except KeyError:
        raise ValueError(
            f"unknown target {target!r}; pick one of {sorted(TARGETS)}"
        ) from None


def _chunked(
    items: Sequence[Injection], size: int
) -> List[List[Injection]]:
    """Sweep-order chunks of at most ``size`` injections."""
    return [list(items[i:i + size]) for i in range(0, len(items), size)]


def _campaign_fingerprint(
    tgt: RtlTarget, config: CampaignConfig, lanes: int, total: int
) -> Dict[str, object]:
    """What a checkpoint directory is committed to: the netlist and the
    sweep geometry."""
    return {
        "kind": "campaign",
        "target": tgt.name,
        "netlist": netlist_fingerprint(tgt.netlist),
        "seed": config.seed,
        "cycles": config.cycles,
        "kinds": list(config.kinds),
        "injection_cycles": list(config.injection_cycles),
        "flip_duration": config.flip_duration,
        "untestable_analysis": config.untestable_analysis,
        "lanes": lanes,
        "total": total,
    }


def _apply_untestable_analysis(
    tgt: RtlTarget,
    cfg: CampaignConfig,
    injections: Sequence[Injection],
    outcomes: Sequence[FaultOutcome],
    cache: Union[BuildCache, str, None] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> List[FaultOutcome]:
    """Upgrade undetected faults the prover shows to be untestable.

    A shared post-pass over (injection, outcome) pairs so sequential,
    lane-sharded and distributed campaigns run the identical analysis
    on the identical inputs.  The verdict ignores the injection cycle
    and the flip duration, so each (net, kind) is proven at most once
    per call.
    """
    if not cfg.untestable_analysis:
        return list(outcomes)
    verdicts: Dict[Tuple[str, str], bool] = {}
    final: List[FaultOutcome] = []
    for injection, outcome in zip(injections, outcomes):
        key = (injection.net, injection.kind)
        if outcome.status == "undetected" and key not in verdicts:
            verdicts[key] = prove_untestable(tgt, injection, cache, metrics)
        if outcome.status == "undetected" and verdicts[key]:
            outcome = FaultOutcome(
                fault=outcome.fault,
                status="untestable",
                detail=(
                    "proven equivalent to the fault-free circuit on every "
                    "(state, boundary input) pair"
                ),
            )
        final.append(outcome)
    return final


def run_campaign(
    target: Union[str, RtlTarget],
    config: Optional[CampaignConfig] = None,
    lanes: int = 1,
    jobs: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
    metrics: Optional["MetricsRegistry"] = None,
    checkpoint: Optional[str] = None,
    profile: bool = False,
    cache: Union[BuildCache, str, os.PathLike, None] = None,
    workers: Optional[Sequence[str]] = None,
    fabric: Optional[object] = None,
) -> CampaignReport:
    """Sweep every enumerated fault over ``target``.

    Every chunk of ``lanes`` injections is classified in one run of the
    compiled lane-parallel simulator
    (:class:`~repro.faults.batch.BatchCampaignHarness`), ``lanes=1``
    included; a netlist with a combinational cycle raises
    :class:`~repro.rtl.toposort.CombinationalCycleError` naming the
    cycle.  ``cycles`` below 1, or an injection cycle outside
    ``[0, cycles)``, raises ``ValueError``.  ``jobs > 1``
    leases the chunks to that many forked local workers through the same
    :class:`~repro.fabric.FabricCoordinator` as ``workers=``; the parent
    loads the campaign's module into the shared build cache first, so
    the workers inherit it and compile nothing.  A worker
    that dies, or makes no progress for ``fabric.unit_timeout`` seconds,
    is dropped (never replaced) and its chunks requeued onto the
    survivors, each up to ``fabric.max_retries`` times.  Every
    combination yields a byte-identical report for the same seed.

    ``checkpoint`` names a directory that receives one atomic JSON file
    per classified chunk; rerunning with the same directory (after a
    crash, a SIGKILL, Ctrl-C) validates the sweep fingerprint, skips
    the completed chunks and produces the byte-identical report of an
    uninterrupted run.

    ``progress`` is an optional ``fn(done_injections, total)`` hook
    (called per classified chunk).  ``metrics`` is an optional
    :class:`~repro.obs.metrics.MetricsRegistry`: verdicts are tallied
    into ``campaign_faults_total{status,target}`` counters, shard
    requeues into ``campaign_shard_retries_total{reason}``, and an
    in-process harness adds its ``batchsim_*`` lane utilisation and
    ``codegen_cache_*`` build series.  Neither affects the outcomes or
    the serialised report.

    ``profile`` (opt in) attaches the fault-free performance baseline
    of the target -- the :mod:`repro.obs.analyze` cycle-accounting /
    attribution report, run on one compiled lane (built through
    ``cache``) for the campaign's ``cycles`` and ``seed`` -- as a
    ``profile`` key.  Off by default so the report stays
    byte-identical to the goldens.  Requires a named target: the
    baseline profiles the stock design of that name.

    ``cache`` is the build cache of the generated lane-parallel
    modules, the campaign's and the untestability prover's: a directory
    path (``str`` or path-like), ``None`` for the default directory, or
    in process a :class:`~repro.codegen.cache.BuildCache`.  An
    unwritable directory degrades to an in-memory build.  The fabric
    ships the directory to workers as a plain string, so with
    ``jobs > 1`` or ``workers=`` any other ``cache`` raises
    ``ValueError`` before anything runs.  It cannot change outcomes, so
    neither the checkpoint fingerprint nor the fabric handshake
    includes it.

    ``workers`` names remote fabric workers (``["host:port", ...]``,
    each a running ``repro worker --listen``) in place of local ones,
    so it excludes ``jobs > 1``.  Both need a *named* target: each
    worker rebuilds it from the name, and the handshake rejects any
    worker whose netlist fingerprints differently.  ``fabric``
    optionally carries a :class:`~repro.fabric.FabricConfig` with the
    deadlines and the retry budget.  ``checkpoint`` composes: the
    coordinator (never a worker) persists each chunk, so a killed
    coordinator resumes against surviving remote workers.
    """
    cfg = config or CampaignConfig()
    _check_horizon(cfg.cycles, cfg.injection_cycles)
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if workers and jobs > 1:
        raise ValueError(
            "workers= replaces jobs=: chunks go to the named remote "
            "workers instead of local ones"
        )
    if workers or jobs > 1:
        if not isinstance(target, str):
            raise ValueError(
                "the socket fabric needs a named target so workers can "
                "rebuild (and fingerprint) it independently"
            )
        if cache is not None:
            if not isinstance(cache, (str, os.PathLike)):
                raise ValueError(
                    f"cache must be a directory path or None for the "
                    f"socket fabric, got {type(cache).__name__}: workers "
                    f"open the cache by its path"
                )
            cache = os.fspath(cache)
    if profile and not isinstance(target, str):
        raise ValueError(
            "profile=True needs a named target: the baseline profiles "
            "the stock design of that name"
        )
    tgt = resolve_target(target)
    injections = enumerate_injections(tgt, cfg)
    chunks = _chunked(injections, lanes)
    total = len(injections)

    store: Optional[CheckpointStore] = None
    by_index: Dict[int, List[FaultOutcome]] = {}
    if checkpoint is not None:
        store = CheckpointStore(checkpoint)
        store.ensure_manifest(_campaign_fingerprint(tgt, cfg, lanes, total))
        for index, payload in store.chunks().items():
            if 0 <= index < len(chunks) and isinstance(payload, list):
                by_index[index] = [FaultOutcome(**d) for d in payload]
    done = sum(len(outs) for outs in by_index.values())

    def record(index: int, outs: List[FaultOutcome]) -> None:
        nonlocal done
        by_index[index] = outs
        done += len(outs)
        if store is not None:
            store.save_chunk(index, [o.to_dict() for o in outs])
        if progress is not None:
            progress(done, total)

    pending = [
        (index, chunk)
        for index, chunk in enumerate(chunks)
        if index not in by_index
    ]
    if progress is not None and done:
        progress(done, total)  # announce the resumed head start

    if workers or (jobs > 1 and len(pending) > 1):
        from repro.fabric import (
            FabricConfig,
            FabricCoordinator,
            local_workers,
            parse_workers,
        )
        from repro.fabric.jobs import (
            encode_campaign_config,
            encode_injection,
        )

        fabric_config = fabric or FabricConfig()
        if workers:
            launcher = nullcontext(parse_workers(",".join(workers)))
        else:
            # A dead local worker stays dead: its address goes terminal
            # at once and its chunks move to the survivors.
            fabric_config = replace(fabric_config, max_rounds=0)
            # Warm fork: every worker's harness resolves this same
            # shared cache instance and finds the module in memory.
            from repro.faults.batch import campaign_restriction

            build_cache(cache).load_module(
                tgt.netlist, **campaign_restriction(tgt), metrics=metrics
            )
            launcher = local_workers(min(jobs, len(pending)))
        with launcher as addresses:
            FabricCoordinator(
                "campaign",
                {
                    "target": target,
                    "config": encode_campaign_config(cfg),
                    "lanes": lanes,
                    "cache": cache,
                },
                [
                    (index, [encode_injection(i) for i in chunk])
                    for index, chunk in pending
                ],
                addresses,
                config=fabric_config,
                metrics=metrics,
                on_result=lambda index, payload: record(
                    index, [FaultOutcome(**d) for d in payload]
                ),
            ).run()
    elif pending:
        from repro.faults.batch import BatchCampaignHarness

        harness = BatchCampaignHarness(
            tgt, cfg, lanes, metrics=metrics, cache=cache
        )
        for index, chunk in pending:
            record(index, harness.run_chunk(chunk))

    outcomes = [o for index in sorted(by_index) for o in by_index[index]]
    report = CampaignReport(target=tgt.name, seed=cfg.seed, cycles=cfg.cycles)
    report.outcomes = _apply_untestable_analysis(
        tgt, cfg, injections, outcomes, cache, metrics
    )
    if metrics is not None:
        for outcome in report.outcomes:
            metrics.counter(
                "campaign_faults_total", status=outcome.status, target=tgt.name
            ).inc()
    if profile:
        from repro.obs.analyze import run_profile

        report.profile = run_profile(
            tgt.name, cycles=cfg.cycles, seed=cfg.seed, cache=cache
        ).to_dict()
    return report


# ----------------------------------------------------------------------
# Behavioural campaign: the elastic processor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProcessorCampaignConfig:
    """Sweep parameters for the behavioural processor campaign."""

    cycles: int = 300
    seed: int = 2007
    kinds: Tuple[str, ...] = (
        "token_drop", "spurious_anti", "glitch_sp", "glitch_sn",
    )
    channels: Tuple[str, ...] = ("if_id", "disp", "alu_q", "wb_q")
    buffers: Tuple[str, ...] = ("EB_IF", "EB_ALU", "EB_WB")
    buffer_kinds: Tuple[str, ...] = BUFFER_FAULT_KINDS
    injection_cycles: Tuple[int, ...] = (60,)
    duration: int = 1


def _golden_commits(config: ProcessorCampaignConfig) -> List[int]:
    net, _, commit = build_processor(ProcessorConfig(seed=config.seed))
    net.run(config.cycles)
    return [instr.seq for instr in commit.committed]


def _processor_outcome(
    config: ProcessorCampaignConfig,
    fault: Union[ChannelFault, BufferFault],
    golden: List[int],
) -> FaultOutcome:
    net, _, commit = build_processor(ProcessorConfig(seed=config.seed))
    if isinstance(fault, ChannelFault):
        saboteur: Union[WireSaboteur, StateSaboteur] = WireSaboteur([fault])
    else:
        buffers = {
            c.name: c for c in net.controllers if isinstance(c, ElasticBuffer)
        }
        saboteur = StateSaboteur([fault], buffers)
    net.add_saboteur(saboteur)
    try:
        net.run(config.cycles)
    except ProtocolViolation as exc:
        return FaultOutcome(
            fault=fault.label(),
            status="detected",
            monitor="protocol",
            detection_cycle=net.cycle,
            detail=str(exc),
        )
    except AssertionError as exc:
        return FaultOutcome(
            fault=fault.label(),
            status="detected",
            monitor="commit-assert",
            detection_cycle=net.cycle,
            detail=str(exc),
        )
    committed = [instr.seq for instr in commit.committed]
    if committed != golden:
        divergence = next(
            (i for i, (a, b) in enumerate(zip(committed, golden)) if a != b),
            min(len(committed), len(golden)),
        )
        return FaultOutcome(
            fault=fault.label(),
            status="detected",
            monitor="golden-data",
            detail=(
                f"committed sequence diverges at index {divergence} "
                f"({len(committed)} vs {len(golden)} commits)"
            ),
        )
    if saboteur.applied:
        return FaultOutcome(
            fault=fault.label(),
            status="latent",
            detail="fault applied but the committed stream is unchanged",
        )
    return FaultOutcome(
        fault=fault.label(),
        status="undetected",
        detail="fault window never armed (nothing to corrupt)",
    )


def enumerate_processor_faults(
    config: ProcessorCampaignConfig,
) -> List[Union[ChannelFault, BufferFault]]:
    faults: List[Union[ChannelFault, BufferFault]] = []
    for channel in config.channels:
        for kind in config.kinds:
            if kind not in CHANNEL_FAULT_KINDS:
                raise ValueError(f"unknown channel fault kind {kind!r}")
            for cycle in config.injection_cycles:
                faults.append(ChannelFault(channel, kind, cycle, config.duration))
    for buffer in config.buffers:
        for kind in config.buffer_kinds:
            for cycle in config.injection_cycles:
                faults.append(BufferFault(buffer, kind, cycle))
    return faults


def run_processor_campaign(
    config: Optional[ProcessorCampaignConfig] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> CampaignReport:
    """Sweep behavioural faults over the Sect. 7 elastic processor.

    ``cycles`` below 1, or an injection cycle outside ``[0, cycles)``,
    raises ``ValueError``.
    """
    cfg = config or ProcessorCampaignConfig()
    _check_horizon(cfg.cycles, cfg.injection_cycles)
    golden = _golden_commits(cfg)
    report = CampaignReport(target="processor", seed=cfg.seed, cycles=cfg.cycles)
    faults = enumerate_processor_faults(cfg)
    for fault in faults:
        report.outcomes.append(_processor_outcome(cfg, fault, golden))
        if progress is not None:
            progress(len(report.outcomes), len(faults))
    if metrics is not None:
        for outcome in report.outcomes:
            metrics.counter(
                "campaign_faults_total", status=outcome.status,
                target="processor",
            ).inc()
    return report
