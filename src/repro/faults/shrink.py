"""Greedy delta-debugging of failing injection schedules.

Given a schedule of injections that makes some predicate fail (an
online monitor fires), :func:`shrink_schedule` minimises it with the
classic ddmin loop -- drop ever-smaller chunks, keeping any reduced
schedule that still fails -- and then tightens each survivor's activity
window.  The result is typically the single injection that actually
triggers the failure, with the benign riders stripped away.

:func:`failing_predicate` and :func:`render_failure` replay schedules
through :meth:`~repro.faults.batch.BatchCampaignHarness.run_schedule`,
in lane 0 of the campaign's compiled simulator; the second renders the
cycles up to the first violation through :mod:`repro.verif.traces`, so
a campaign failure reads like any other counterexample trace.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Sequence, TypeVar

from repro.faults.batch import BatchCampaignHarness
from repro.faults.models import Injection
from repro.verif.traces import format_trace

FaultT = TypeVar("FaultT")
#: A predicate: does this schedule still provoke a failure?
Fails = Callable[[Sequence[FaultT]], bool]


def _safe(fails: Fails) -> Fails:
    """Treat a predicate that errors (or flakes) as "does not fail".

    During reduction the shrinker probes *candidate* schedules the
    campaign never ran; a flaky predicate -- one whose failure stops
    reproducing, or that raises on a pathological candidate -- must
    only cost the shrinker that one reduction step.  The last schedule
    the predicate *confirmed* failing is always what gets returned.
    """

    def safe(candidate: Sequence[FaultT]) -> bool:
        try:
            return bool(fails(candidate))
        except Exception:
            return False

    return safe


def shrink_schedule(
    schedule: Sequence[FaultT],
    fails: Fails,
    minimise_windows: bool = True,
) -> List[FaultT]:
    """Minimise a failing schedule (ddmin, then per-fault window tightening).

    ``schedule`` must fail under ``fails`` (ValueError otherwise); the
    returned subset still fails and is 1-minimal with respect to chunk
    removal.  With ``minimise_windows`` each surviving fault is also
    tried with ``duration=1`` and ``cycle=0`` (kept only if the
    schedule still fails), turning long windows into point injections.

    Each reduction round probes *every* aligned chunk removal and takes
    the best failing candidate by ``(length, canonical labels)``, so
    ties between equal-sized reductions break deterministically: the
    same failing set minimises to the same schedule regardless of the
    order the campaign happened to discover it in.

    Robust to flaky predicates: a candidate probe that raises or stops
    reproducing is simply not taken, so the result is always the last
    schedule the predicate confirmed failing -- never a crash.
    """
    current = list(schedule)
    if not fails(current):
        raise ValueError("schedule does not fail; nothing to shrink")
    fails = _safe(fails)
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        reduced = True
        while reduced:
            reduced = False
            best = None
            for i in range(0, len(current), chunk):
                candidate = current[:i] + current[i + chunk:]
                if not candidate or not fails(candidate):
                    continue
                key = (len(candidate), _canon(candidate))
                if best is None or key < best[0]:
                    best = (key, candidate)
            if best is not None:
                current = best[1]
                reduced = True
        chunk //= 2
    if minimise_windows:
        current = [_tighten(current, k, fails) for k in range(len(current))]
    return current


def _canon(schedule: Sequence[FaultT]) -> tuple:
    """A deterministic tie-break key: each fault's label (or repr)."""
    return tuple(
        fault.label() if hasattr(fault, "label") else repr(fault)
        for fault in schedule
    )


def _tighten(
    schedule: List[FaultT], index: int, fails: Fails
) -> FaultT:
    """Shrink one fault's activity window as far as the failure allows."""
    fault = schedule[index]

    def keeps_failing(candidate: FaultT) -> bool:
        trial = list(schedule)
        trial[index] = candidate
        if fails(trial):
            schedule[index] = candidate
            return True
        return False

    duration = getattr(fault, "duration", None)
    if duration is None:
        # Permanent fault: try the single-cycle transient version first.
        for d in (1, 2, 4):
            if keeps_failing(dataclasses.replace(fault, duration=d)):
                break
    elif duration > 1:
        keeps_failing(dataclasses.replace(fault, duration=1))
    fault = schedule[index]
    if getattr(fault, "cycle", 0) > 0 and getattr(fault, "duration", 1) is None:
        keeps_failing(dataclasses.replace(fault, cycle=0))
    return schedule[index]


def failing_predicate(harness: BatchCampaignHarness) -> Fails:
    """The standard predicate: any online monitor fires on the schedule."""

    def fails(schedule: Sequence[Injection]) -> bool:
        violation, _, _ = harness.run_schedule(schedule)
        return violation is not None

    return fails


def render_failure(
    harness: BatchCampaignHarness, schedule: Sequence[Injection]
) -> str:
    """Replay ``schedule`` and render the failing prefix as a trace."""
    violation, steps, _ = harness.run_schedule(schedule, record=True)
    header = ["injections:"]
    header.extend(f"  {inj.label()}" for inj in schedule)
    if violation is None:
        header.append("no violation observed")
        return "\n".join(header)
    header.append(f"violation: {violation}")
    assert steps is not None
    return "\n".join(header) + "\n" + format_trace(steps)
