"""The preset every benchmark in a session runs at (``REPRO_BENCH_PRESET``),
and the sizes two benchmark files share."""

import os


def bench_preset_name() -> str:
    """"bench" (default), "smoke" for a fast sanity pass or "paper" (full size)."""
    return os.environ.get("REPRO_BENCH_PRESET", "bench")


def train_batch_sizes() -> tuple:
    """Batch sizes of the training-step benchmarks at this preset."""
    return (8, 32) if bench_preset_name() == "smoke" else (16, 64, 256)
