"""Golden findings of the spec and network lint, deadlock rules first.

Pins the sha256 of every ``(rule, subject, message, path)`` that
:func:`lint_spec` and :func:`lint_network` return on the fixtures of
``tests/lint/test_elastic_rules.py`` and on 300 seeded
``tests.strategies.spec_models``, each linted as generated (clean by
construction) and in three broken variants that make the ELX004/005/006
cycle walk fire at both levels:

* ``drained`` -- every register starts empty (token-free cycles);
* ``full`` -- every register has capacity 1 and one token (no bubble);
* ``unbuffered`` -- every register is replaced by a direct connection
  (register-free cycles, counterflow behind early joins).

The network of each variant is its ``to_behavioral`` elaboration.  The
per-rule counts are pinned beside the digest so a mismatch says which
rule moved.
"""

import hashlib
import json
from collections import Counter

from repro.fuzz.model import ConnModel
from repro.lint.elastic_rules import lint_network, lint_spec
from repro.synthesis.elaborate import to_behavioral
from tests.lint.test_elastic_rules import NETWORK_FIXTURES, SPEC_FIXTURES
from tests.strategies import spec_model

SEEDS = range(300)

DIGEST = "11476b147541fdfb307233eb31fd9df235abd9ebfd419f279fff161f157a3685"

COUNTS = {
    "network ELX002": 2,
    "network ELX004": 110,
    "network ELX005": 67,
    "network ELX006": 23,
    "spec ELX001": 7,
    "spec ELX003": 4,
    "spec ELX004": 114,
    "spec ELX005": 69,
    "spec ELX006": 23,
    "spec ELX007": 1,
    "spec ELX008": 608,
    "spec ELX009": 10,
}


def drained(model):
    for r in model.registers:
        r.initial_tokens = 0
    return model


def full(model):
    for r in model.registers:
        r.capacity, r.initial_tokens = 1, 1
    return model


def unbuffered(model):
    for r in list(model.registers):
        into = [c for c in model.connections
                if c.dst == ("register", r.name, "in")]
        out = [c for c in model.connections
               if c.src == ("register", r.name, "out")]
        if len(into) != 1 or len(out) != 1 or into[0] is out[0]:
            continue
        model.connections.remove(into[0])
        model.connections.remove(out[0])
        model.connections.append(ConnModel(
            into[0].src, out[0].dst,
            passive=into[0].passive or out[0].passive,
        ))
        model.registers.remove(r)
    return model


VARIANTS = {
    "clean": lambda model: model,
    "drained": drained,
    "full": full,
    "unbuffered": unbuffered,
}


def test_spec_and_network_findings_match_golden():
    lines = []
    counts = Counter()

    def record(level, case, findings):
        lines.append(f"{level} {case}")
        for f in findings:
            counts[f"{level} {f.rule}"] += 1
            lines.append(json.dumps(
                [f.rule, f.subject, f.message, list(f.path)]
            ))

    for name, build in sorted(SPEC_FIXTURES.items()):
        record("spec", name, lint_spec(build()))
    for name, build in sorted(NETWORK_FIXTURES.items()):
        record("network", name, lint_network(build()))
    for seed in SEEDS:
        for variant, mutate in VARIANTS.items():
            spec = mutate(spec_model(seed)).build()
            record("spec", f"{seed} {variant}", lint_spec(spec))
            record("network", f"{seed} {variant}",
                   lint_network(to_behavioral(spec)))

    text = "\n".join(lines) + "\n"
    assert dict(sorted(counts.items())) == COUNTS
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
