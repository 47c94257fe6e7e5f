"""Table 1 stays byte-identical.

``golden/table1-2000-2007.txt`` is ``format_table(run_table1(cycles=2000,
seed=2007))``, the ledger's ``table1`` workload in one table: each of its
five ops renders one row alone, and those renderings hash to the ledger's
golden digests.  ``golden/table1-10000-2007.txt`` is the output of ``repro
table1 --cycles 10000 --seed 2007`` (the paper's 10K-cycle protocol); CI
compares it byte for byte, as it does the ``repro bound`` goldens.
"""

import hashlib
import json
from pathlib import Path

from repro.casestudy.table1 import format_table, run_table1

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).parent / "golden"


def test_table1_bytes_match_the_golden():
    rows = run_table1(cycles=2000, seed=2007)
    assert format_table(rows) == (GOLDEN / "table1-2000-2007.txt").read_text()
    ledger = json.loads((ROOT / "benchmarks/ledger/goldens.json").read_text())
    digests = {
        f"{row.config.name}@2007":
            hashlib.sha256(format_table([row]).encode()).hexdigest()
        for row in rows
    }
    assert digests == ledger["workloads"]["table1"]
