"""``benchmarks/latest/host.json``: what a session's timings depend on besides the code."""

import json
import os

import numpy as np

from repro.photonics import _native
from repro.serve.worker import blas_threads


def test_host_json_records_the_timing_environment(results_dir):
    assert results_dir.name == "latest"          # never the committed results/
    assert json.loads((results_dir / "host.json").read_text()) == {
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": blas_threads(1),
        "cchain_loaded": _native.kernel() is not None,
        "cchain_load_error": _native.load_error(),
        "preset": os.environ.get("REPRO_BENCH_PRESET", "bench"),
        "numpy": np.__version__}
