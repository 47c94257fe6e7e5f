"""repro.lint -- rule-based static analysis of elastic designs.

Three front-ends feed one reporting spine:

* the **netlist front-end** (:mod:`repro.lint.netlist_rules`, rules
  ``LNT0xx``) checks gate/latch netlists: driver discipline, dead and
  floating logic, two-phase clocking, combinational cycles (the one
  producer of the diagnostic both simulators raise), ternary constant
  propagation and structural X sources, plus the dataflow rules --
  LNT008 (state stuck at X) and LNT009 (uncovered reset observable) --
  built on the fixpoint engine of :mod:`repro.lint.dataflow`;
* the **elastic front-end** (:mod:`repro.lint.elastic_rules`, rules
  ``ELX0xx``) checks specs, behavioural networks and DMG abstractions:
  connectivity and channel polarity, controller shape, static deadlock
  analysis (token-free and bubble-free cycles), anti-token balance
  behind early-evaluation joins, and the token-availability rules
  ELX008 (dead EE arm) and ELX009 (starved counterflow);
* the **re-parse front-end** (:mod:`repro.lint.frontends`) reads
  exported BLIF/structural Verilog back into netlists with a source
  map, so ``repro lint --file design.blif`` anchors findings to
  file/line/column.

Dataflow findings carry machine-checkable witnesses
(:func:`replay_witness` / :func:`replay_spec_witness` re-derive them;
:func:`render_witness` pretty-prints them for ``--explain``).
Findings serialise to deterministic JSON and SARIF 2.1.0
(:mod:`repro.lint.sarif`), suppress against baseline files
(:mod:`repro.lint.baseline`), and emit as ``finding`` trace events.
``repro lint`` drives the built-in target registry
(:mod:`repro.lint.targets`); :func:`repro.synthesis.elasticize` runs
the spec rules at build time and fails fast on errors.

The package root re-exports only the netlist rules, the dataflow
engine and the findings they report with -- what the area pipeline's
``constant_values`` import loads anyway.  Import the elastic rules,
the front-ends, the targets, SARIF and baselines from their modules.
"""

from repro.lint.dataflow import (
    FixpointDivergence,
    FixpointResult,
    dmg_graph,
    fixpoint,
    netlist_graph,
    spec_graph,
)
from repro.lint.findings import (
    RULES,
    Finding,
    LintReport,
    Rule,
    Severity,
    SourceLocation,
    render_witness,
)
from repro.lint.netlist_rules import (
    combinational_cycle_finding,
    constant_values,
    lint_netlist,
    replay_witness,
    value_sets,
)

__all__ = [
    "RULES",
    "Finding",
    "FixpointDivergence",
    "FixpointResult",
    "LintReport",
    "Rule",
    "Severity",
    "SourceLocation",
    "combinational_cycle_finding",
    "constant_values",
    "dmg_graph",
    "fixpoint",
    "lint_netlist",
    "netlist_graph",
    "render_witness",
    "replay_witness",
    "spec_graph",
    "value_sets",
]
