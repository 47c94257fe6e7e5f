"""The ledger's five workloads, built from public ``repro`` entry points.

Each workload is a fixed list of ops that the closed-loop client runs one
at a time; one pass over the list is a repetition.  The designs are fixed
and ``--seed`` drives every random stimulus, so a pass does nearly the
same work for every seed (only the prover's share of a campaign varies,
with the faults the stimulus leaves undetected):

* campaign workloads: the seven stock fault targets, stimulus seeded from
  the seed (``campaign-sharded`` also sweeps seeds ``S..S+2``);
* ``table1``: the five Fig. 9 configurations, sources seeded from the seed;
* ``fuzz``: the first six specs that ``repro fuzz --seed 2007
  --max-blocks 8`` generates, with the oracle's environment schedules
  seeded from the seed.  Spec cost spans three orders of magnitude (the
  CTL stage explores up to 80k Kripke states on some specs), so drawing
  the specs themselves from the seed would make the per-seed work differ
  several-fold.

Every call uses the default engine and distribution settings: no
``backend=`` and no engine selector, so a change of default shows up as a
measured change without an edit here.
"""

from __future__ import annotations

import json
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.casestudy import Config, format_table, run_config
from repro.codegen.cache import BuildCache
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.targets import TARGETS
from repro.fuzz import GeneratorConfig, OracleConfig, generate_model, run_oracle

__all__ = ["GOLDEN_SEED", "Op", "OpResult", "Workload", "WORKLOADS"]

#: the seed whose digests are committed in ``goldens.json``
GOLDEN_SEED = 2007

#: Table 1 of the paper: system throughput per configuration
PAPER_TH = {
    Config.ACTIVE: 0.400,
    Config.NO_BUFFER: 0.343,
    Config.PASSIVE_F3W: 0.387,
    Config.PASSIVE_M2W: 0.280,
    Config.LAZY: 0.277,
}

ALL_KINDS = ("stuck0", "stuck1", "flip")
#: a fifth of the paper's 10K-cycle protocol, so a run fits several passes
TABLE1_CYCLES = 2000
FUZZ_SUITE_SEED = 2007
FUZZ_SPECS = 6
FUZZ_MAX_BLOCKS = 8


@dataclass
class OpResult:
    """What one op produced: the bytes to digest and the work done."""

    text: str
    #: work units (injection-cycles, simulated cycles or specs)
    work: float
    #: why the op failed although it returned (a fuzz finding)
    problem: Optional[str] = None
    #: simulated quantities pooled per pass by the workload's summary
    sim: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], OpResult]


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    #: ``(seed, scratch, tiny) -> ops`` of one timed pass
    ops: Callable[[int, Path, bool], List[Op]]
    #: ``(seed, scratch) -> ops`` of the untimed reduced-size warm-up
    warmup: Callable[[int, Path], List[Op]]
    #: pooled simulated results of one pass
    summary: Callable[[List[OpResult]], Dict[str, float]]


# -- fault campaigns ---------------------------------------------------------
def _campaign_op(target: str, config: CampaignConfig, lanes: int,
                 jobs: int = 1) -> Op:
    def run() -> OpResult:
        report = run_campaign(target, config, lanes=lanes, jobs=jobs)
        counts = report.counts()
        return OpResult(
            text=report.to_json(),
            work=len(report.outcomes) * config.cycles,
            sim={
                "detected": counts["detected"],
                "testable": len(report.outcomes) - counts["untestable"],
            },
        )

    return Op(f"{target}@{config.seed}", run)


def _coverage(results: List[OpResult]) -> Dict[str, float]:
    detected = sum(r.sim["detected"] for r in results)
    testable = sum(r.sim["testable"] for r in results)
    return {"fault_coverage": detected / testable if testable else 1.0}


def _long_ops(seed: int, scratch: Path, tiny: bool) -> List[Op]:
    config = CampaignConfig(cycles=100 if tiny else 2000, seed=seed,
                            kinds=ALL_KINDS)
    return [_campaign_op(t, config, lanes=64) for t in TARGETS]


def _transient_ops(seed: int, scratch: Path, tiny: bool) -> List[Op]:
    config = CampaignConfig(
        cycles=40 if tiny else 120, seed=seed, kinds=ALL_KINDS,
        injection_cycles=(0, 20) if tiny else (0, 40, 80),
    )
    return [_campaign_op(t, config, lanes=64) for t in TARGETS]


def _sharded_ops(seed: int, scratch: Path, tiny: bool) -> List[Op]:
    seeds = [seed] if tiny else [seed, seed + 1, seed + 2]
    return [
        _campaign_op(t, CampaignConfig(cycles=60 if tiny else 400, seed=s),
                     lanes=16, jobs=2)
        for s in seeds for t in TARGETS
    ]


def _campaign_warmup(lanes: int, jobs: int = 1):
    def warmup(seed: int, scratch: Path) -> List[Op]:
        config = CampaignConfig(cycles=30, seed=seed + 1000, kinds=ALL_KINDS)
        return [_campaign_op("join", config, lanes=lanes, jobs=jobs)]

    return warmup


# -- Table 1 -----------------------------------------------------------------
def _table1_op(config: Config, cycles: int, seed: int) -> Op:
    def run() -> OpResult:
        row = run_config(config, cycles=cycles, seed=seed)
        return OpResult(
            text=format_table([row]),
            work=cycles,
            sim={"th_abs_err": abs(row.throughput - PAPER_TH[config])},
        )

    return Op(f"{config.name}@{seed}", run)


def _table1_ops(seed: int, scratch: Path, tiny: bool) -> List[Op]:
    return [_table1_op(c, 200 if tiny else TABLE1_CYCLES, seed)
            for c in Config]


def _table1_warmup(seed: int, scratch: Path) -> List[Op]:
    return [_table1_op(Config.ACTIVE, 100, seed + 1000)]


def _table1_summary(results: List[OpResult]) -> Dict[str, float]:
    return {"th_abs_err_max": max(r.sim["th_abs_err"] for r in results)}


# -- fuzz --------------------------------------------------------------------
def _fuzz_op(suite: int, index: int, seed: int, cache: BuildCache) -> Op:
    """Generate spec ``index`` of ``repro fuzz --seed suite`` and run the
    oracle on it under environment seed ``seed``."""
    name = f"fuzz{suite}_{index:04d}"

    def run() -> OpResult:
        rng = random.Random(f"fuzz:{suite}:{index}")
        model = generate_model(
            rng, GeneratorConfig(max_blocks=FUZZ_MAX_BLOCKS), name=name
        )
        finding = run_oracle(model, seed=seed, config=OracleConfig(cache=cache))
        text = json.dumps({
            "model": model.to_dict(),
            "finding": finding.to_dict() if finding is not None else None,
        }, sort_keys=True)
        return OpResult(
            text=text, work=1,
            problem=str(finding) if finding is not None else None,
        )

    return Op(f"{name}@{seed}", run)


def _fresh_cache(scratch: Path) -> BuildCache:
    return BuildCache(tempfile.mkdtemp(prefix="fuzz-cache-", dir=scratch))


def _fuzz_ops(seed: int, scratch: Path, tiny: bool) -> List[Op]:
    # A fresh cache per pass keeps every timed spec a cold codegen emit.
    cache = _fresh_cache(scratch)
    return [_fuzz_op(FUZZ_SUITE_SEED, i, seed, cache)
            for i in range(3 if tiny else FUZZ_SPECS)]


def _fuzz_warmup(seed: int, scratch: Path) -> List[Op]:
    # Its own cache and environment seed: the timed specs stay cold.
    return [_fuzz_op(FUZZ_SUITE_SEED, 0, seed + 1000, _fresh_cache(scratch))]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("campaign-long", "injection-cycles", _long_ops,
                 _campaign_warmup(lanes=64), _coverage),
        Workload("campaign-transient", "injection-cycles", _transient_ops,
                 _campaign_warmup(lanes=64), _coverage),
        Workload("campaign-sharded", "injection-cycles", _sharded_ops,
                 _campaign_warmup(lanes=16, jobs=2), _coverage),
        Workload("table1", "cycles", _table1_ops, _table1_warmup,
                 _table1_summary),
        # A finding already fails its op; there is nothing else to pool.
        Workload("fuzz", "specs", _fuzz_ops, _fuzz_warmup, lambda _: {}),
    )
}
