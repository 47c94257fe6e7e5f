"""Spec-level fuzzing: generator, differential oracle, shrinking, corpus.

The fuzzer closes the loop the rest of the repo leaves open: every
engine (behavioural, gate-level scalar, compiled lane-parallel, CTL
model checking) implements the same SELF elastic semantics, so any
*valid* system spec is a free differential test case.  This package

* grows random valid :class:`~repro.fuzz.model.SpecModel`s
  (:mod:`repro.fuzz.generate`), lint-clean by construction via a
  repair pass;
* cross-checks every engine per spec (:mod:`repro.fuzz.oracle`);
* shrinks findings at the *spec* level -- removing blocks and
  re-repairing -- rather than at the trace level
  (:mod:`repro.fuzz.shrink`);
* persists shrunk counterexamples as a replayable JSON corpus
  (:mod:`repro.fuzz.corpus`);
* ships seeded bugs the oracle must catch
  (:mod:`repro.fuzz.mutations`).

Drive it with ``repro fuzz --seed 7 --specs 100`` or programmatically
via :func:`~repro.fuzz.runner.run_fuzz`.
"""

from repro.fuzz.corpus import (CORPUS_SCHEMA, CorpusEntry, load_corpus,
                               replay_entry, save_entry)
from repro.fuzz.generate import (GeneratorConfig, SpecRepairError,
                                 generate_model, repair_model)
from repro.fuzz.model import (BlockModel, ConnModel, InvalidSpecModel,
                              RegisterModel, SinkModel, SourceModel,
                              SpecModel)
from repro.fuzz.mutations import MUTATIONS, break_early_join
from repro.fuzz.oracle import FuzzFinding, OracleConfig, run_oracle
from repro.fuzz.runner import FuzzConfig, FuzzReport, run_demo, run_fuzz
from repro.fuzz.shrink import shrink_model

__all__ = [
    "BlockModel",
    "CORPUS_SCHEMA",
    "ConnModel",
    "CorpusEntry",
    "FuzzConfig",
    "FuzzFinding",
    "FuzzReport",
    "GeneratorConfig",
    "InvalidSpecModel",
    "MUTATIONS",
    "OracleConfig",
    "RegisterModel",
    "SinkModel",
    "SourceModel",
    "SpecModel",
    "SpecRepairError",
    "break_early_join",
    "generate_model",
    "load_corpus",
    "repair_model",
    "replay_entry",
    "run_demo",
    "run_fuzz",
    "run_oracle",
    "save_entry",
    "shrink_model",
]
