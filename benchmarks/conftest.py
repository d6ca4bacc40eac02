"""Shared configuration of the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a CPU-scale
preset and saves the rows it produced under ``benchmarks/latest/``, a
gitignored directory, so a test run never rewrites the recorded snapshot in
``benchmarks/results/`` that the README cites.  Refreshing that snapshot is a
deliberate copy from ``benchmarks/latest/``.

Every speed floor times its sides with one timer,
:func:`repro.experiments.reporting.time_interleaved` (one untimed call per
side, then rounds that call every side once, rotating which goes first); a
floor compares the sides' minima and each row records the median next to
every minimum.  ``results_dir`` also writes ``benchmarks/latest/host.json``
once per session: CPU affinity, the BLAS thread variables, the serving
workers' thread rule for one replica, whether the native kernel loaded, the
preset and the numpy version.  The harness records thread settings; it does
not set them.

The preset is selected with the ``REPRO_BENCH_PRESET`` environment variable
(:mod:`bench_preset`; "paper" is not practical on CPU).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from bench_preset import bench_preset_name

RESULTS_DIR = Path(__file__).parent / "latest"


@pytest.fixture(scope="session")
def preset_name() -> str:
    return bench_preset_name()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """``benchmarks/latest/``, once ``host.json`` there records this session's host."""
    import numpy as np

    from repro.experiments.reporting import save_json
    from repro.photonics import _native
    from repro.serve.worker import blas_threads

    save_json({"cpu_affinity": len(os.sched_getaffinity(0)),
               "thread_env": {name: os.environ.get(name) for name in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")},
               "blas_threads": blas_threads(1),
               "cchain_loaded": _native.kernel() is not None,
               "cchain_load_error": _native.load_error(),
               "preset": bench_preset_name(),
               "numpy": np.__version__}, RESULTS_DIR / "host.json")
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
