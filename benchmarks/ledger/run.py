"""Script entry of the ledger: ``python3 benchmarks/ledger/run.py --help``.

Same as ``python -m benchmarks.ledger``; this form needs no PYTHONPATH.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# The script's own directory would otherwise shadow top-level modules.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from benchmarks.ledger.ledger import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
