"""Spans around the public functions of each ``repro`` layer.

The ledger measures end-to-end numbers with tracing off; a separate traced
run wraps the functions in :data:`PROBES` from the outside, without any
change to ``src/``.  :meth:`Tracer.instrument` patches every binding site of
each function: the class attribute for methods, and for module-level
functions the defining module plus every loaded module that bound the same
object with ``from x import f``.  Modules imported later pick up the wrapper
from the patched defining module.

Each wrapped call pushes a frame.  On return it adds its duration to its
parent's child time, so a layer's self time is its duration minus the time
its wrapped callees cover.  Calls of span probes are kept as span records
(id, parent, name, op id, start, end).  Per-cycle probes are called
thousands of times per op, so they are only folded into ``(calls, total)``
under their parent span, which keeps the trace bounded.

Spans recorded inside forked ``jobs=2`` workers stay in those processes:
the wrappers survive the fork, but their records are lost at worker exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["FORKED_SPANS_NOTE", "LayerProbe", "PROBES", "Probe", "Tracer"]

FORKED_SPANS_NOTE = (
    "spans recorded inside forked jobs>1 worker processes are not collected"
)


@dataclass(frozen=True)
class Probe:
    """One wrapped function: its metric prefix and its binding sites.

    A site is ``"module:attr"`` or ``"module:Class.attr"``.  A site whose
    module or attribute no longer exists is skipped, so the ledger keeps
    running when a later change deletes a layer; the probe then reports
    zero calls.
    """

    name: str
    sites: Tuple[str, ...]
    per_cycle: bool = False
    #: False: only counted, no ``.calls``/``.total_s``/``.self_s`` metrics
    timed: bool = True


PROBES: Tuple[Probe, ...] = (
    Probe("casestudy.run_config", ("repro.casestudy.table1:run_config",)),
    Probe("casestudy.build_fig9_spec",
          ("repro.casestudy.fig9:build_fig9_spec",)),
    Probe("synthesis.to_behavioral",
          ("repro.synthesis.elaborate:to_behavioral",)),
    Probe("synthesis.to_gates", ("repro.synthesis.elaborate:to_gates",)),
    Probe("synthesis.control_layer_area",
          ("repro.synthesis.elaborate:control_layer_area",)),
    Probe("elastic.network_step",
          ("repro.elastic.behavioral:ElasticNetwork.step",), per_cycle=True),
    Probe("rtl.batch_init", ("repro.rtl.batchsim:BatchSimulator.__init__",)),
    Probe("rtl.batch_cycle", ("repro.rtl.batchsim:BatchSimulator.cycle",),
          per_cycle=True),
    Probe("rtl.scalar_cycle", ("repro.rtl.simulator:TwoPhaseSimulator.cycle",),
          per_cycle=True),
    Probe("rtl.scalar_step",
          ("repro.rtl.simulator:TwoPhaseSimulator.step_function",),
          per_cycle=True),
    Probe("codegen.load_module", ("repro.codegen.cache:BuildCache.load_module",)),
    Probe("codegen.compiled_cycle",
          ("repro.codegen.sim:CompiledSimulator.cycle",), per_cycle=True),
    Probe("faults.run_campaign", ("repro.faults.campaign:run_campaign",)),
    Probe("faults.run_chunk", (
        "repro.faults.campaign:CampaignHarness.run_chunk",
        "repro.faults.batch:BatchCampaignHarness.run_chunk",
    )),
    Probe("faults.prove_untestable",
          ("repro.faults.campaign:prove_untestable",)),
    Probe("faults.report_to_json",
          ("repro.faults.campaign:CampaignReport.to_json",)),
    Probe("resilience.supervisor_run",
          ("repro.resilience.supervisor:ShardSupervisor.run",)),
    Probe("resilience.degrade_run_chunk",
          ("repro.resilience.degrade:DegradingCampaignHarness.run_chunk",)),
    # Counted only: every requeue is one shard retry.
    Probe("resilience.requeue",
          ("repro.resilience.supervisor:ShardSupervisor._requeue",),
          per_cycle=True, timed=False),
    Probe("lint.lint_spec", ("repro.lint.elastic_rules:lint_spec",)),
    Probe("lint.lint_network", ("repro.lint.elastic_rules:lint_network",)),
    Probe("lint.lint_netlist", ("repro.lint.netlist_rules:lint_netlist",)),
    Probe("verif.build_kripke", ("repro.verif.kripke:build_kripke",)),
    Probe("verif.ctl_holds", ("repro.verif.ctl:ModelChecker.holds",)),
    Probe("fuzz.generate_model", ("repro.fuzz.generate:generate_model",)),
    Probe("fuzz.run_oracle", ("repro.fuzz.oracle:run_oracle",)),
    Probe("fuzz.shrink_model", ("repro.fuzz.shrink:shrink_model",)),
)


class _Frame:
    __slots__ = ("span_id", "child_s", "agg", "owner")

    def __init__(self, span_id: Optional[int],
                 parent: Optional["_Frame"]) -> None:
        self.span_id = span_id
        self.child_s = 0.0
        self.agg: Optional[Dict[str, List[float]]] = None
        #: the nearest enclosing span frame (itself for a span)
        self.owner = self if span_id is not None else (
            parent.owner if parent is not None else None)


class Tracer:
    """In-memory spans and per-probe ``[calls, total_s, self_s]`` tallies.

    ``observers`` maps a probe name to ``fn(args, kwargs, result)``, called
    after each successful call; the ledger derives its counts there
    (Kripke states, lane cycles, prover verdicts).  ``clock`` is
    injectable so tests can drive exact durations.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[str, List[float]] = {}
        self.spans: List[Dict[str, object]] = []
        self.observers: Dict[str, Callable[[tuple, dict, object], None]] = {}
        #: the op id stamped on every span (set by the load generator)
        self.op: Optional[str] = None
        self._stack: List[_Frame] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def wrap(self, name: str, fn: Callable, per_cycle: bool = False) -> Callable:
        """``fn`` wrapped to record calls under ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None if per_cycle else len(spans)
            if span_id is not None:
                # Reserve the slot now so children can name their parent.
                spans.append({})
            frame = _Frame(span_id, parent)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame.child_s
                if parent is not None:
                    parent.child_s += duration
                owner = frame.owner
                if per_cycle and owner is not None:
                    if owner.agg is None:
                        owner.agg = {}
                    slot = owner.agg.setdefault(name, [0, 0.0])
                    slot[0] += 1
                    slot[1] += duration
                if span_id is not None:
                    above = parent.owner if parent is not None else None
                    spans[span_id] = {
                        "id": span_id,
                        "parent": above.span_id if above is not None else None,
                        "name": name,
                        "op": self.op,
                        "start": start,
                        "end": end,
                        "cycles": frame.agg or {},
                    }
            observer = self.observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------
    def instrument(self, probes=PROBES) -> List[str]:
        """Patch every binding site of every probe; returns skipped sites."""
        skipped: List[str] = []
        for probe in probes:
            self.stats.setdefault(probe.name, [0, 0.0, 0.0])
            for site in probe.sites:
                if not self._patch_site(probe, site):
                    skipped.append(site)
        return skipped

    def _patch_site(self, probe: Probe, site: str) -> bool:
        module_name, _, path = site.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner: object = module
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        original = vars(owner).get(attr)
        if original is None or not callable(original):
            return False
        wrapper = self.wrap(probe.name, original, probe.per_cycle)
        self._set(owner, attr, wrapper)
        if owner is module:
            # Rebind every `from module import attr` copy already made.
            for other in list(sys.modules.values()):
                namespace = getattr(other, "__dict__", None)
                if other is module or not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._set(other, key, wrapper)
        return True

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerProbe:
    """A :class:`Tracer` over :data:`PROBES` plus the ledger's counts.

    The counts are taken where the work happens, from the arguments and
    results of the wrapped calls: lanes per kernel cycle, Kripke states
    per exploration, prover verdicts and lanes the degradation ladder
    replayed on the scalar engine.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.tracer = Tracer(clock)
        self.lane_cycles = {"rtl.batch_cycle": 0, "codegen.compiled_cycle": 0}
        self.kripke_states = 0
        self.proofs: List[tuple] = []
        self.untestable = 0
        self.quarantined = 0
        self._quarantine_seen: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary())
        self.skipped: List[str] = []
        self._cache0: Dict[str, int] = {}

    def install(self) -> None:
        from repro.codegen.cache import process_stats

        observers = self.tracer.observers
        for name in self.lane_cycles:
            observers[name] = functools.partial(self._lanes, name)
        observers["verif.build_kripke"] = self._kripke
        observers["faults.prove_untestable"] = self._proof
        observers["resilience.degrade_run_chunk"] = self._quarantine
        self.skipped = self.tracer.instrument()
        self._cache0 = process_stats()

    def _lanes(self, name: str, args: tuple, kwargs: dict, result) -> None:
        self.lane_cycles[name] += args[0].lanes

    def _kripke(self, args: tuple, kwargs: dict, result) -> None:
        self.kripke_states += len(result)

    def _proof(self, args: tuple, kwargs: dict, result) -> None:
        target, injection = args[:2]
        # Distinct per op: a fault proven again in the same campaign is
        # repeated work, one proven in another campaign or pass is not.
        self.proofs.append((self.tracer.op, target.name, injection.net,
                            injection.kind, injection.duration))
        self.untestable += bool(result)

    def _quarantine(self, args: tuple, kwargs: dict, result) -> None:
        harness = args[0]
        seen = self._quarantine_seen.get(harness, 0)
        self.quarantined += harness.quarantined_total - seen
        self._quarantine_seen[harness] = harness.quarantined_total

    def _stage_ratio(self, stage: str) -> float:
        """Share of oracle runs with a ``stage`` span beneath them."""
        spans = self.tracer.spans
        oracles = sum(1 for s in spans if s["name"] == "fuzz.run_oracle")
        reached = set()
        for span in spans:
            if span["name"] != stage:
                continue
            parent = span["parent"]
            while parent is not None:
                if spans[parent]["name"] == "fuzz.run_oracle":
                    reached.add(parent)
                    break
                parent = spans[parent]["parent"]
        return _ratio(len(reached), oracles)

    def metrics(self, untraced_wall_s: float,
                traced_wall_s: float) -> Dict[str, float]:
        """Every per-layer metric of the traced run."""
        from repro.codegen.cache import process_stats

        stats = self.tracer.stats
        out: Dict[str, float] = {}
        for probe in PROBES:
            if not probe.timed:
                continue
            calls, total, own = stats[probe.name]
            out[f"{probe.name}.calls"] = calls
            out[f"{probe.name}.total_s"] = total
            out[f"{probe.name}.self_s"] = own

        def per_s(count: float, probe: str) -> float:
            return _ratio(count, stats[probe][1])

        cache = process_stats()
        hits = cache["hits"] - self._cache0["hits"]
        misses = cache["misses"] - self._cache0["misses"]
        calls = len(self.proofs)
        out.update({
            "elastic.cycles_per_s": per_s(stats["elastic.network_step"][0],
                                          "elastic.network_step"),
            "rtl.batch_lane_cycles_per_s": per_s(
                self.lane_cycles["rtl.batch_cycle"], "rtl.batch_cycle"),
            "codegen.cache_hit_ratio": _ratio(hits, hits + misses),
            "codegen.compiled_lane_cycles_per_s": per_s(
                self.lane_cycles["codegen.compiled_cycle"],
                "codegen.compiled_cycle"),
            "faults.prove_untestable.unique_ratio": _ratio(
                len(set(self.proofs)), calls),
            "faults.prove_untestable.untestable_ratio": _ratio(
                self.untestable, calls),
            "resilience.shard_retries": stats["resilience.requeue"][0],
            "resilience.quarantined_lanes": self.quarantined,
            "verif.kripke_states_per_s": per_s(self.kripke_states,
                                               "verif.build_kripke"),
            "fuzz.gate_stage_ratio": self._stage_ratio("lint.lint_netlist"),
            "fuzz.ctl_stage_ratio": self._stage_ratio("verif.build_kripke"),
            "trace_overhead": traced_wall_s / untraced_wall_s - 1.0,
        })
        return out

    def notes(self) -> List[str]:
        notes = [FORKED_SPANS_NOTE]
        if self.skipped:
            notes.append("binding sites not found: " + ", ".join(self.skipped))
        return notes
