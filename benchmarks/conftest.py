"""Shared configuration of the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a CPU-scale
preset and saves the rows it produced under ``benchmarks/latest/``, a
gitignored directory, so a test run never rewrites the recorded snapshot in
``benchmarks/results/`` that the README cites.  Refreshing that snapshot is a
deliberate copy from ``benchmarks/latest/``.

The preset is selected with the ``REPRO_BENCH_PRESET`` environment variable
("bench" by default, "smoke" for a fast sanity pass, "paper" for the full
configuration -- not practical on CPU).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "latest"


def bench_preset_name() -> str:
    """Preset used by every benchmark in this session."""
    return os.environ.get("REPRO_BENCH_PRESET", "bench")


@pytest.fixture(scope="session")
def preset_name() -> str:
    return bench_preset_name()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def run_once(benchmark):
    """Run a harness function exactly once under pytest-benchmark timing.

    The experiment harnesses train neural networks, so repeating them for
    statistical timing would multiply the suite's runtime without adding
    information; one round per benchmark keeps the harness usable while still
    reporting wall-clock time per table/figure.
    """

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run


@pytest.fixture
def best_of():
    """Best-of-N wall-clock timer shared by the micro-benchmarks.

    Minimum over repeats filters scheduler noise on shared runners; the
    micro-benchmarks compare two such minima to assert a speedup floor.
    """

    def _best_of(fn, repeats: int = 5) -> float:
        import time

        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    return _best_of
