"""Cold-then-warm compiled campaign: same bytes, cached build.

The build-cache contract in one script:

1. run the dual-EHB fault campaign twice at 256 lanes against an empty
   build cache -- the first run emits the generated module onto disk
   (cold), the second loads it back (warm);
2. both reports must be byte-identical to each other *and* to a
   report built from the scalar reference harness of
   ``tests/faults/scalar_reference.py`` (one fault per scalar run);
3. the warm run must perform **zero** codegen (cache misses stay flat,
   asserted via the process hit/miss counters), and a warm module load
   must beat a cold build: the median of 5 loads, each through a fresh
   ``BuildCache``, against the median of 5 builds, each into a fresh
   cache root, taken in alternation.  The two differ only by the
   emit, so one of each is too close to call on a loaded host;
4. the generated ``module.py`` is left in ``artifacts/`` when that
   directory exists (CI uploads it), so the emitted code itself is
   reviewable.

Run me:  PYTHONPATH=src python examples/build_cache_demo.py
"""

import gc
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))  # for the reference harness in tests/

from repro.codegen.cache import BuildCache, process_stats  # noqa: E402
from repro.faults.campaign import (  # noqa: E402
    CampaignConfig,
    CampaignReport,
    enumerate_injections,
    run_campaign,
)
from repro.faults.targets import TARGETS  # noqa: E402
from tests.faults.scalar_reference import CampaignHarness  # noqa: E402

CONFIG = CampaignConfig(
    cycles=300, seed=2007, kinds=("stuck0", "stuck1", "flip"),
    untestable_analysis=False,
)
LANES = 256
REPEATS = 5


def _timed_build(cache: BuildCache) -> float:
    """Seconds to materialise the dual-EHB module through ``cache``."""
    target = TARGETS["dual_ehb"]()
    gc.collect()  # no collection of earlier garbage inside the timing
    t0 = time.perf_counter()
    cache.load_module(
        target.netlist,
        hooks=frozenset(target.fault_sites),
        observe=frozenset(target.observe),
    )
    return time.perf_counter() - t0


def _scalar_reference() -> CampaignReport:
    """The sweep on the scalar reference harness (the untestable
    analysis is off in CONFIG, so the outcomes are the report)."""
    target = TARGETS["dual_ehb"]()
    report = CampaignReport(target=target.name, seed=CONFIG.seed,
                            cycles=CONFIG.cycles)
    report.outcomes = CampaignHarness(target, CONFIG).run_chunk(
        enumerate_injections(target, CONFIG)
    )
    return report


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="build-cache-") as scratch:
        root = Path(scratch) / "codegen"

        before = process_stats()
        cold = run_campaign("dual_ehb", CONFIG, lanes=LANES, cache=str(root))

        # a fresh BuildCache sees only the disk tier, like a new process
        cold_builds, warm_builds = [], []
        for i in range(REPEATS):
            cold_builds.append(_timed_build(BuildCache(Path(scratch) / f"cold{i}")))
            warm_builds.append(_timed_build(BuildCache(root)))
        cold_build_s = statistics.median(cold_builds)
        warm_build_s = statistics.median(warm_builds)
        mid = process_stats()
        warm = run_campaign("dual_ehb", CONFIG, lanes=LANES, cache=str(root))
        after = process_stats()
        reference = _scalar_reference()

        print(f"cold build: {cold_build_s * 1e3:6.1f} ms, median of "
              f"{REPEATS} (misses before the cold run: {before['misses']})")
        print(f"warm build: {warm_build_s * 1e3:6.1f} ms, median of "
              f"{REPEATS} ({cold_build_s / warm_build_s:.1f}x faster)")

        assert cold.to_json() == warm.to_json(), "cold != warm report"
        assert warm.to_json() == reference.to_json(), "compiled != scalar"
        print(f"cold and warm compiled reports are byte-identical "
              f"({len(warm.outcomes)} faults), and both match the "
              f"scalar reference byte-for-byte")

        assert after["misses"] == mid["misses"], (
            "the warm campaign re-emitted a module"
        )
        assert warm_build_s < cold_build_s, (
            "median warm build not faster than median cold build"
        )
        print(f"warm-cache run performed zero codegen: misses flat at "
              f"{after['misses']}, hits {before['hits']} -> "
              f"{after['hits']}")

        artifacts = Path("artifacts")
        if artifacts.is_dir():
            entries = [p for p in root.iterdir() if p.is_dir()]
            shutil.copy(entries[0] / "module.py",
                        artifacts / "dual_ehb_module.py")
            print(f"copied generated module to "
                  f"{artifacts / 'dual_ehb_module.py'}")


if __name__ == "__main__":
    main()
