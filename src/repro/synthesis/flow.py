"""The designer-facing elasticization flow.

:func:`elasticize` is the one-call path from a
:class:`~repro.synthesis.spec.SystemSpec` to a running
:class:`~repro.elastic.behavioral.ElasticNetwork`: it runs the
spec-level lint rules first and **fails fast** on ERROR findings, so a
structural deadlock -- a token-free cycle, an undersized (capacity-1)
buffer loop, an annihilator-free counterflow cycle -- is diagnosed at
build time with the offending cycle named, instead of surfacing as a
stall deep into a simulation.  Pass ``lint=False`` to opt out (e.g. to
simulate a deadlock on purpose and watch a
:class:`~repro.obs.analyze.NetworkProfiler` diagnose it).
"""

from __future__ import annotations

from typing import List

from repro.elastic.behavioral import ElasticNetwork
from repro.synthesis.elaborate import to_behavioral
from repro.synthesis.spec import SystemSpec

__all__ = ["ElasticLintError", "elasticize"]


class ElasticLintError(ValueError):
    """The spec failed the build-time lint pass.

    ``findings`` holds every finding of the failed pass (not just the
    errors), so callers can render or serialise the full diagnosis.
    """

    def __init__(self, findings: List) -> None:
        errors = [f for f in findings if f.severity.name == "ERROR"]
        lines = [f"elasticize: {len(errors)} lint error(s) in the spec:"]
        lines += [f"  {f}" for f in errors]
        super().__init__("\n".join(lines))
        self.findings = list(findings)
        self.errors = errors


def elasticize(
    spec: SystemSpec,
    seed: int = 0,
    lint: bool = True,
    monitor: bool = True,
    check_data: bool = True,
) -> ElasticNetwork:
    """Lint ``spec`` and elaborate it into a behavioural network.

    Raises :class:`ElasticLintError` (carrying the findings) when the
    spec-level rules report any ERROR -- every channel cycle must hold
    a token *and* spare EB capacity, and every early join's counterflow
    must be able to annihilate.  WARNING/INFO findings never block the
    build.  ``lint=False`` skips the pass entirely.
    """
    if lint:
        from repro.lint.elastic_rules import lint_spec

        findings = lint_spec(spec)
        if any(f.severity.name == "ERROR" for f in findings):
            raise ElasticLintError(findings)
    return to_behavioral(
        spec, seed=seed, monitor=monitor, check_data=check_data
    )
