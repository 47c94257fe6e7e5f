"""Graceful degradation: quarantine faulted lanes onto the scalar engine.

The 64-lane :class:`~repro.codegen.sim.CompiledSimulator` is the fast
path of a fault campaign, but it is also the most fragile: a netlist
whose faulted cone forms a combinational cycle cannot be compiled at
all, a buggy observer can corrupt the live plane arrays, and a monitor
bank can disagree with the scalar reference.  None of those should sink
a multi-thousand-fault campaign.

:class:`DegradingCampaignHarness` wraps the lane-parallel
:class:`~repro.faults.batch.BatchCampaignHarness` in a degradation
ladder:

1. **lane-parallel** -- the normal run;
2. **lane quarantine** -- after a successful lane-parallel run, lanes
   flagged by the simulator's plane-encoding integrity scan
   (:meth:`~repro.codegen.sim.CompiledSimulator.check_lane_integrity`)
   or by an external ``quarantine_hook`` (e.g. a monitor-disagreement
   crosscheck) have their outcomes discarded and recomputed on the
   scalar :class:`~repro.faults.campaign.CampaignHarness`;
3. **chunk replay** -- a :class:`LaneFaultError` or a
   :class:`~repro.rtl.toposort.CombinationalCycleError` raised mid-run
   replays the whole chunk on the scalar engine;
4. **permanent scalar** -- a netlist the compiled simulator cannot
   compile degrades the harness to scalar-only for its lifetime.

Because the scalar engine is the semantic reference (the compiled
simulator is *defined* to agree with it, lane by lane), every rung
produces the same outcomes as an all-scalar campaign --
:func:`verify_degradation` asserts exactly that, merged degraded run
against all-scalar run.

This module must not import :mod:`repro.faults` at module scope: the
``repro.resilience`` package initialises while ``repro.faults.campaign``
is itself mid-import (it pulls in the checkpoint store), so the
campaign imports here are deferred into the methods.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

from repro.rtl.toposort import CombinationalCycleError

if TYPE_CHECKING:  # pragma: no cover
    from repro.codegen.cache import BuildCache
    from repro.faults.campaign import CampaignConfig, FaultOutcome
    from repro.faults.models import Injection
    from repro.faults.targets import RtlTarget
    from repro.obs.metrics import MetricsRegistry

__all__ = ["DegradingCampaignHarness", "LaneFaultError", "verify_degradation"]


class LaneFaultError(RuntimeError):
    """A lane-parallel run detected faulted lanes it cannot classify.

    ``lanes`` is a bitmask of the affected lanes (0 when the fault
    cannot be attributed to specific lanes).  Raise it from an observer
    or a custom monitor to hand the chunk to the degradation ladder.
    """

    def __init__(self, lanes: int, reason: str) -> None:
        super().__init__(f"batch lane fault ({reason}): lanes {lanes:#x}")
        self.lanes = lanes
        self.reason = reason


class DegradingCampaignHarness:
    """A lane-parallel campaign harness that falls back to scalar.

    Drop-in for :class:`~repro.faults.batch.BatchCampaignHarness` --
    same constructor shape (``cache`` included), same :meth:`run_chunk`
    contract -- but a lane fault degrades only the affected work
    instead of raising.

    ``quarantine_hook`` is an optional ``fn(injections, batch_harness)
    -> int`` returning a bitmask of extra lanes to quarantine after a
    successful lane-parallel run (the attachment point for crosschecks
    that compare the word-wide monitors against an independent
    reference).
    """

    def __init__(
        self,
        target: "RtlTarget",
        config: "CampaignConfig",
        lanes: int = 64,
        metrics: Optional["MetricsRegistry"] = None,
        quarantine_hook: Optional[Callable[..., int]] = None,
        cache: Union["BuildCache", str, None] = None,
    ) -> None:
        self.target = target
        self.config = config
        self.lanes = lanes
        self.metrics = metrics
        self.quarantine_hook = quarantine_hook
        self.cache = cache
        #: total lanes replayed on the scalar engine so far
        self.quarantined_total = 0
        self._batch = None
        self._scalar = None
        self._permanent_scalar = False

    # -- lazy engines --------------------------------------------------
    def _batch_harness(self):
        if self._batch is None and not self._permanent_scalar:
            from repro.faults.batch import BatchCampaignHarness

            try:
                self._batch = BatchCampaignHarness(
                    self.target, self.config, self.lanes,
                    metrics=self.metrics, cache=self.cache,
                )
            except CombinationalCycleError:
                self._degrade_permanently("compile")
        return self._batch

    def _scalar_harness(self):
        if self._scalar is None:
            from repro.faults.campaign import CampaignHarness

            self._scalar = CampaignHarness(self.target, self.config)
        return self._scalar

    def _degrade_permanently(self, reason: str) -> None:
        self._permanent_scalar = True
        self._batch = None
        self._count(reason, self.lanes)

    def _count(self, reason: str, lanes: int) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "campaign_lane_quarantine_total",
                reason=reason, target=self.target.name,
            ).inc(lanes)

    # -- the ladder ----------------------------------------------------
    def run_chunk(
        self, injections: Sequence["Injection"]
    ) -> List["FaultOutcome"]:
        """Classify a chunk, degrading to the scalar engine as needed."""
        injections = list(injections)
        if not injections:
            return []
        batch = self._batch_harness()
        if batch is None:  # permanent scalar mode
            return self._scalar_harness().run_chunk(injections)
        try:
            outcomes = batch.run_chunk(injections)
        except LaneFaultError as exc:
            self.quarantined_total += len(injections)
            self._count(exc.reason, len(injections))
            return self._scalar_harness().run_chunk(injections)
        except CombinationalCycleError:
            # Compilation should have caught this at build time; treat
            # a mid-run appearance as a broken lane-parallel engine.
            self._degrade_permanently("compile")
            return self._scalar_harness().run_chunk(injections)
        quarantine = batch.sim.check_lane_integrity()
        reason = "integrity"
        if self.quarantine_hook is not None:
            hooked = self.quarantine_hook(injections, batch)
            if hooked:
                reason = "integrity+hook" if quarantine else "hook"
                quarantine |= hooked
        quarantine &= (1 << len(injections)) - 1
        if quarantine:
            scalar = self._scalar_harness()
            replayed = 0
            for lane in range(len(injections)):
                if quarantine & (1 << lane):
                    outcomes[lane] = scalar.outcome(injections[lane])
                    replayed += 1
            self.quarantined_total += replayed
            self._count(reason, replayed)
        return outcomes


def verify_degradation(
    target,
    config: Optional["CampaignConfig"] = None,
    lanes: int = 8,
    quarantine_hook: Optional[Callable[..., int]] = None,
) -> List["FaultOutcome"]:
    """Crosscheck: a degraded campaign equals the all-scalar campaign.

    Runs the full sweep once through :class:`DegradingCampaignHarness`
    (chunked at ``lanes``) and once on the scalar harness, and raises
    ``AssertionError`` on the first differing outcome.  Returns the
    verified outcomes.
    """
    from repro.faults.campaign import (
        CampaignConfig,
        CampaignHarness,
        enumerate_injections,
        resolve_target,
    )

    cfg = config or CampaignConfig()
    tgt = resolve_target(target)
    injections = enumerate_injections(tgt, cfg)
    degraded = DegradingCampaignHarness(
        tgt, cfg, lanes, quarantine_hook=quarantine_hook
    )
    merged: List["FaultOutcome"] = []
    for start in range(0, len(injections), lanes):
        merged.extend(degraded.run_chunk(injections[start:start + lanes]))
    scalar = CampaignHarness(tgt, cfg)
    for i, (got, want) in enumerate(
        zip(merged, scalar.run_chunk(injections))
    ):
        assert got == want, (
            f"degraded outcome {i} ({injections[i].label()}) diverged from "
            f"the all-scalar reference: {got} != {want}"
        )
    return merged
