"""Shared fixtures for the benchmark/reproduction harness.

Every ``test_bench_*`` module regenerates one table or figure of the
paper (printing the reproduced rows/series) and times a representative
kernel with pytest-benchmark.  Run with::

    pytest benchmarks/ --benchmark-only -s
"""

import math
import time

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--repro-cycles",
        action="store",
        type=int,
        default=10_000,
        help="simulation length for table/figure reproductions",
    )


@pytest.fixture(scope="session")
def repro_cycles(request):
    return request.config.getoption("--repro-cycles")


@pytest.fixture
def best_time():
    """``best_time(fn, *args, **kwargs) -> (seconds, result)``: the
    fastest of three calls, timed with ``time.perf_counter``.

    Ratio gates read this rather than ``benchmark.stats``, which is
    ``None`` under ``--benchmark-disable``, so both modes reach the
    same assertions.
    """

    def run(fn, *args, **kwargs):
        best, result = math.inf, None
        for _ in range(3):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            best = min(best, time.perf_counter() - start)
        return best, result

    return run
