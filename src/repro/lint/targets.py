"""The ``repro lint`` target registry: every shipped design, lintable.

A lint target is a zero-argument builder returning findings.  The
registry spans all three front-ends:

* ``fig9:<config>`` -- each Table 1 configuration, checked at all
  levels: the spec, the elaborated behavioural network, and the
  gate/latch control netlist (with environment stubs);
* ``verif:<design>`` -- the model-checking testbench netlists;
* ``rtl:<name>`` -- the fault-campaign controller netlists
  (Fig. 5-7 + the variable-latency interface);
* ``processor`` -- the hand-built Sect. 7 elastic processor network;
* ``zoo:<defect>`` -- intentionally broken designs kept as negative
  smoke targets (CI asserts the expected rule fires on each: exit codes
  for the ERROR-severity defects, JSON report checks for the
  WARNING-severity dataflow ones).

:func:`lint_file` is the fourth entry point: it re-parses an exported
``.blif``/``.v`` file (:mod:`repro.lint.frontends`) and lints the
reconstructed netlist with findings anchored to file/line/column.

Builders are lazy: nothing is elaborated until a target is linted.

Every builder accepts an optional
:class:`~repro.codegen.cache.BuildCache`: netlist-level findings are
cached as JSON artifacts keyed by the netlist's content fingerprint
plus :data:`LINT_RULES_VERSION`, so a repeated ``repro lint`` run skips
re-evaluating the ``LNT0xx`` rules for unchanged designs.  Honest
limitation: elaboration itself (building the netlist from the spec or
target registry) still runs -- the fingerprint that keys the cache
*is* the elaborated netlist, so there is nothing sound to key an
elaboration skip on.  Spec- and network-level rules
(``lint_spec``/``lint_network``) are not netlist-keyed and are always
evaluated.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.lint.elastic_rules import lint_network, lint_spec
from repro.lint.findings import Finding, LintReport
from repro.lint.netlist_rules import lint_netlist

__all__ = [
    "LINT_RULES_VERSION",
    "LINT_TARGETS",
    "all_targets",
    "lint_file",
    "run_lint",
]

#: Bump when any ``LNT0xx`` rule changes behaviour; cached findings for
#: every netlist are invalidated (their cache key changes).
#: 2: dataflow engine, LNT008/LNT009, witnesses on LNT006 findings.
LINT_RULES_VERSION = 2


def _lint_key(netlist) -> str:
    """The findings-cache key of one netlist at the current rules."""
    from repro.codegen.fingerprint import canonical_digest, netlist_fingerprint

    return canonical_digest({
        "kind": "lint-findings",
        "rules_version": LINT_RULES_VERSION,
        "netlist": netlist_fingerprint(netlist),
    })


def _finding_from_dict(d: Dict[str, object]) -> Finding:
    # Locations are deliberately NOT restored: cached findings describe
    # the in-memory netlist; file anchors are re-attached per parsed
    # file by ``lint_file`` after the cache round-trip.
    return Finding(
        rule=d["rule"],
        target=d["target"],
        subject=d["subject"],
        message=d["message"],
        path=tuple(d.get("path", ())),
        witness=d.get("witness"),
    )


def _cached_lint_netlist(netlist, cache) -> List[Finding]:
    """``lint_netlist`` through the findings cache (when one is given)."""
    if cache is None:
        return lint_netlist(netlist)
    key = _lint_key(netlist)
    payload = cache.load_json(key)
    if isinstance(payload, list):
        return [_finding_from_dict(d) for d in payload]
    findings = lint_netlist(netlist)
    cache.store_json(
        key,
        [f.to_dict() for f in findings],
        meta={
            "kind": "lint-findings",
            "rules_version": LINT_RULES_VERSION,
            "netlist": netlist.name,
        },
    )
    return findings


def _fig9(config_name: str) -> Callable[..., List[Finding]]:
    def build(cache=None) -> List[Finding]:
        from repro.casestudy.fig9 import Config, build_fig9_spec
        from repro.synthesis.elaborate import to_behavioral, to_gates

        spec = build_fig9_spec(Config[config_name])
        findings = lint_spec(spec)
        if not any(f.severity.name == "ERROR" for f in findings):
            findings += lint_network(to_behavioral(spec))
            findings += _cached_lint_netlist(
                to_gates(spec, include_env=True, as_latches=True).netlist,
                cache,
            )
        return findings

    return build


def _verif(design: str) -> Callable[..., List[Finding]]:
    def build(cache=None) -> List[Finding]:
        from repro.verif.testbenches import DESIGNS, diamond_with_feedback

        nl, _, _ = diamond_with_feedback(**DESIGNS[design])
        return _cached_lint_netlist(nl, cache)

    return build


def _rtl(name: str) -> Callable[..., List[Finding]]:
    def build(cache=None) -> List[Finding]:
        from repro.faults.targets import TARGETS

        return _cached_lint_netlist(TARGETS[name]().netlist, cache)

    return build


def _processor(cache=None) -> List[Finding]:
    from repro.casestudy.processor import ProcessorConfig, build_processor

    net, _, _ = build_processor(ProcessorConfig())
    return lint_network(net)


def _zoo_capacity1(cache=None) -> List[Finding]:
    """A capacity-1 register loop holding one token: full, bubble-free."""
    from repro.synthesis.spec import SystemSpec

    spec = SystemSpec("zoo[capacity1]")
    spec.add_source("Din")
    spec.add_sink("Dout")
    spec.add_block("A", n_inputs=2, n_outputs=2)
    spec.add_register("R", capacity=1, initial_tokens=1)
    spec.connect(spec.source("Din"), spec.block_in("A", 0))
    spec.connect(spec.register_out("R"), spec.block_in("A", 1))
    spec.connect(spec.block_out("A", 0), spec.sink("Dout"))
    spec.connect(spec.block_out("A", 1), spec.register_in("R"))
    return lint_spec(spec)


def _zoo_comb_cycle(cache=None) -> List[Finding]:
    """A two-gate combinational loop (the classic LNT005 defect)."""
    from repro.rtl.netlist import Netlist

    nl = Netlist("zoo[comb_cycle]")
    a = nl.add_input("a")
    nl.add_gate("AND", (a, "y"), out="x")
    nl.add_gate("BUF", ("x",), out="y")
    nl.add_output("y")
    return _cached_lint_netlist(nl, cache)


def _zoo_x_stuck(cache=None) -> List[Finding]:
    """An X-initialised flop recirculating itself: stuck at X (LNT008)."""
    from repro.rtl.logic import X
    from repro.rtl.netlist import Netlist

    nl = Netlist("zoo[x_stuck]")
    a = nl.add_input("a")
    nl.BUF("q", out="d")  # hold loop: the reset X recirculates forever
    nl.add_flop("d", q="q", init=X)
    nl.AND(a, "q", out="o")
    nl.add_output("o")
    return _cached_lint_netlist(nl, cache)


def _zoo_x_observable(cache=None) -> List[Finding]:
    """An X-initialised flop visible at an output before any load (LNT009)."""
    from repro.rtl.logic import X
    from repro.rtl.netlist import Netlist

    nl = Netlist("zoo[x_observable]")
    a = nl.add_input("a")
    nl.add_flop(a, q="q", init=X)  # leaves X after one load...
    nl.BUF("q", out="o")  # ...but the environment sees the X first
    nl.add_output("o")
    return _cached_lint_netlist(nl, cache)


def _zoo_dead_ee_arm(cache=None) -> List[Finding]:
    """A 1-of-2 threshold join where either arm alone is enough (ELX008)."""
    from repro.elastic.ee import ThresholdEE
    from repro.synthesis.spec import SystemSpec

    spec = SystemSpec("zoo[dead_ee_arm]")
    spec.add_source("A")
    spec.add_source("B")
    spec.add_sink("Z")
    spec.add_block("OR1", n_inputs=2, ee=ThresholdEE(1, 2))
    spec.connect(spec.source("A"), spec.block_in("OR1", 0))
    spec.connect(spec.source("B"), spec.block_in("OR1", 1))
    spec.connect(spec.block_out("OR1", 0), spec.sink("Z"))
    return lint_spec(spec)


def _zoo_starved_counterflow(cache=None) -> List[Finding]:
    """Anti-tokens into a channel no token can ever reach (ELX009)."""
    from repro.elastic.ee import ThresholdEE
    from repro.synthesis.spec import SystemSpec

    spec = SystemSpec("zoo[starved_counterflow]")
    spec.add_source("A")
    spec.add_source("DEAD", p_valid=0.0)
    spec.add_sink("Z")
    spec.add_block("EJ", n_inputs=2, ee=ThresholdEE(1, 2))
    spec.connect(spec.source("A"), spec.block_in("EJ", 0))
    spec.connect(spec.source("DEAD"), spec.block_in("EJ", 1))
    spec.connect(spec.block_out("EJ", 0), spec.sink("Z"))
    return lint_spec(spec)


LINT_TARGETS: Dict[str, Callable[..., List[Finding]]] = {
    "fig9:active": _fig9("ACTIVE"),
    "fig9:no_buffer": _fig9("NO_BUFFER"),
    "fig9:passive_f3w": _fig9("PASSIVE_F3W"),
    "fig9:passive_m2w": _fig9("PASSIVE_M2W"),
    "fig9:lazy": _fig9("LAZY"),
    "verif:diamond": _verif("diamond"),
    "verif:early": _verif("early"),
    "verif:vl": _verif("vl"),
    "rtl:dual_ehb": _rtl("dual_ehb"),
    "rtl:dual_ehb_latches": _rtl("dual_ehb_latches"),
    "rtl:join": _rtl("join"),
    "rtl:early_join": _rtl("early_join"),
    "rtl:fork": _rtl("fork"),
    "rtl:passive": _rtl("passive"),
    "rtl:vl": _rtl("vl"),
    "processor": _processor,
    "zoo:capacity1": _zoo_capacity1,
    "zoo:comb_cycle": _zoo_comb_cycle,
    "zoo:x_stuck": _zoo_x_stuck,
    "zoo:x_observable": _zoo_x_observable,
    "zoo:dead_ee_arm": _zoo_dead_ee_arm,
    "zoo:starved_counterflow": _zoo_starved_counterflow,
}


def all_targets(include_zoo: bool = False) -> List[str]:
    """The default target set (the zoo is opt-in: it is meant to fail)."""
    return [
        name for name in sorted(LINT_TARGETS)
        if include_zoo or not name.startswith("zoo:")
    ]


def lint_file(path: str, cache=None) -> List[Finding]:
    """Parse one BLIF/Verilog file and lint the reconstructed netlist.

    The ``LNT0xx`` rules run through the same fingerprint-keyed findings
    cache as the registry targets (a re-parsed export of an unchanged
    design hits the same artifact), then every finding is anchored to
    the parsed file via the source map, so SARIF output carries
    ``physicalLocation`` entries.  Raises
    :class:`~repro.lint.frontends.FrontendParseError` on malformed
    input.
    """
    from repro.lint.frontends import attach_locations, parse_design_file

    design = parse_design_file(path)
    findings = _cached_lint_netlist(design.netlist, cache)
    return attach_locations(findings, design.source_map)


def run_lint(targets: Sequence[str], cache=None) -> LintReport:
    """Lint the named targets into one report.

    ``cache`` is an optional :class:`~repro.codegen.cache.BuildCache`;
    netlist-level findings for unchanged designs are then served from
    their fingerprint-keyed artifacts instead of re-running the rules.
    ``None`` (the default) keeps the fully uncached library behaviour.
    """
    report = LintReport()
    for name in targets:
        try:
            builder = LINT_TARGETS[name]
        except KeyError:
            raise KeyError(
                f"unknown lint target {name!r}; pick from "
                f"{', '.join(sorted(LINT_TARGETS))}"
            ) from None
        report.extend(builder(cache))
    return report
