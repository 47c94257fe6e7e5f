"""The fuzzing campaign loop behind ``repro fuzz``.

:func:`run_fuzz` generates ``specs`` models from one seed, runs the
full-pipeline oracle on each, shrinks every finding to a minimal model
and (optionally) persists it to a corpus directory.  The report is
byte-deterministic given the seed: no timestamps, sorted keys, and all
randomness keyed on ``f"fuzz:{seed}:{index}"``.  The optional
wall-clock ``budget`` cuts a run short (recorded in the report as
``budget_exhausted``); leave it unset for reproducible output.

:func:`run_demo` is the seeded-bug acceptance demo: generate early-
evaluation-heavy networks, plant the broken early-join arbiter
(:mod:`repro.fuzz.mutations`), let the oracle catch the invariant
violation and shrink the host network down around the one guilty join.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.fuzz.corpus import CorpusEntry, save_entry
from repro.fuzz.generate import GeneratorConfig, generate_model
from repro.fuzz.model import SpecModel
from repro.fuzz.mutations import MUTATIONS
from repro.fuzz.oracle import FuzzFinding, OracleConfig, run_oracle
from repro.fuzz.shrink import shrink_model

__all__ = ["FuzzConfig", "FuzzReport", "run_demo", "run_fuzz"]


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 0
    specs: int = 20
    max_blocks: int = 48
    cycles: int = 96
    #: optional wall-clock cap in seconds (makes output run-dependent)
    budget: Optional[float] = None
    #: optional corpus directory for shrunk counterexamples
    corpus: Optional[str] = None
    #: optional seeded-bug mutation name (see repro.fuzz.mutations)
    mutation: Optional[str] = None
    shrink: bool = True
    check_gates: bool = True
    check_verify: bool = True
    generator: Optional[GeneratorConfig] = None
    cache: object = None


@dataclass
class FuzzReport:
    seed: int
    specs: int
    examined: int = 0
    findings: List[CorpusEntry] = field(default_factory=list)
    budget_exhausted: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "specs": self.specs,
            "examined": self.examined,
            "budget_exhausted": self.budget_exhausted,
            "findings": [e.to_dict() for e in self.findings],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render(self) -> str:
        lines = [
            f"fuzz seed={self.seed}: examined {self.examined}/{self.specs} "
            f"spec(s), {len(self.findings)} finding(s)"
            + (" [budget exhausted]" if self.budget_exhausted else "")
        ]
        for entry in self.findings:
            lines.append(
                f"  {entry.name}: [{entry.finding['stage']}] "
                f"{entry.finding['detail']}"
            )
            lines.append(
                f"    shrunk {entry.to_dict()['blocks_before']} -> "
                f"{entry.to_dict()['blocks_after']} block(s)"
            )
        return "\n".join(lines)


def _oracle_config(config: FuzzConfig, fast: bool = False) -> OracleConfig:
    return OracleConfig(
        cycles=config.cycles,
        check_gates=config.check_gates and not fast,
        check_verify=config.check_verify and not fast,
        cache=config.cache,
    )


def shrink_predicate(
    config: FuzzConfig, stage: str, mutate=None
) -> Callable[[SpecModel], bool]:
    """Does a candidate still provoke a finding in the same stage?

    Shrink probes use the fast oracle (behavioural stages only) when
    the original finding was behavioural -- probing thousands of
    candidates through the gate backends would dominate the campaign.
    """
    fast = stage in ("build", "lint", "network-lint", "behavioral")
    ocfg = _oracle_config(config, fast=fast)

    def fails(candidate: SpecModel) -> bool:
        finding = run_oracle(candidate, seed=config.seed, config=ocfg,
                             mutate=mutate)
        return finding is not None and finding.stage == stage

    return fails


def _rules_hit(model: SpecModel) -> List[str]:
    """Sorted lint rule ids firing on the unmutated original spec.

    Cross-references every counterexample with the static analyzer:
    a dynamic finding on a model the linter already flags is usually
    the linter's defect class manifesting.  Unbuildable models (the
    ``build`` oracle stage) hit no rules.
    """
    from repro.lint.elastic_rules import lint_spec

    try:
        spec = model.build()
    except Exception:
        return []
    return sorted({f.rule for f in lint_spec(spec)})


def _make_entry(
    config: FuzzConfig,
    model: SpecModel,
    finding: FuzzFinding,
    mutate,
) -> CorpusEntry:
    shrunk = model
    if config.shrink:
        try:
            shrunk = shrink_model(
                model, shrink_predicate(config, finding.stage, mutate)
            )
        except ValueError:
            shrunk = model  # not reproducible under the fast oracle
    return CorpusEntry(
        name=model.name,
        seed=config.seed,
        finding=finding.to_dict(),
        model=model.to_dict(),
        shrunk=shrunk.to_dict(),
        mutation=config.mutation,
        rules_hit=_rules_hit(model),
    )


def run_fuzz(
    config: FuzzConfig = FuzzConfig(),
    progress: Optional[Callable[[int, int], None]] = None,
) -> FuzzReport:
    """Run one fuzzing campaign (see module docstring)."""
    if config.mutation is not None and config.mutation not in MUTATIONS:
        raise ValueError(
            f"unknown mutation {config.mutation!r}; "
            f"pick from {sorted(MUTATIONS)}"
        )
    mutate = MUTATIONS[config.mutation] if config.mutation else None
    generator = config.generator or GeneratorConfig(
        max_blocks=config.max_blocks
    )
    ocfg = _oracle_config(config)
    report = FuzzReport(seed=config.seed, specs=config.specs)
    deadline = (time.monotonic() + config.budget
                if config.budget is not None else None)
    for index in range(config.specs):
        if deadline is not None and time.monotonic() > deadline:
            report.budget_exhausted = True
            break
        rng = random.Random(f"fuzz:{config.seed}:{index}")
        model = generate_model(rng, generator,
                               name=f"fuzz{config.seed}_{index:04d}")
        finding = run_oracle(model, seed=config.seed, config=ocfg,
                             mutate=mutate)
        report.examined += 1
        if finding is not None:
            entry = _make_entry(config, model, finding, mutate)
            report.findings.append(entry)
            if config.corpus is not None:
                save_entry(entry, config.corpus)
        if progress is not None:
            progress(report.examined, len(report.findings))
    return report


def run_demo(
    seed: int = 0,
    max_trials: int = 40,
    config: Optional[FuzzConfig] = None,
) -> CorpusEntry:
    """The broken-early-join acceptance demo (see module docstring).

    Generates EE-dense models until the planted arbiter bug fires,
    then shrinks the counterexample.  Deterministic given ``seed``.
    """
    config = config or FuzzConfig(
        seed=seed, mutation="broken-early-join", check_gates=False,
        check_verify=False, cycles=64,
    )
    generator = GeneratorConfig(
        max_blocks=24, min_blocks=6, p_join=0.9, p_early=1.0,
        p_fork=0.2, p_vl=0.0, p_kill_sink=0.0,
        source_p_valid=(0.5, 0.75),
    )
    mutate = MUTATIONS["broken-early-join"]
    ocfg = _oracle_config(config)
    for trial in range(max_trials):
        rng = random.Random(f"fuzz-demo:{seed}:{trial}")
        model = generate_model(rng, generator,
                               name=f"demo{seed}_{trial:03d}")
        finding = run_oracle(model, seed=seed, config=ocfg, mutate=mutate)
        if finding is not None and finding.stage == "behavioral":
            return _make_entry(config, model, finding, mutate)
    raise RuntimeError(
        f"demo bug did not fire in {max_trials} trials (seed {seed})"
    )
