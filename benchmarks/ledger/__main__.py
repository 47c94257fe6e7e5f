import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")
if SRC not in sys.path:
    sys.path.insert(1, SRC)

from benchmarks.ledger.ledger import main  # noqa: E402

sys.exit(main())
