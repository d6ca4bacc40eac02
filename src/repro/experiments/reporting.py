"""Shared result formatting / persistence / timing helpers for the experiment harness."""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Iterable, List, Sequence, Union


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: str = "") -> str:
    """Render a plain-text table (the harness prints the paper's rows with it)."""
    rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(header).ljust(width) for header, width in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def as_dicts(results: Iterable[Any]) -> List[dict]:
    """Convert a list of result dataclasses into plain dictionaries."""
    converted = []
    for result in results:
        if dataclasses.is_dataclass(result):
            converted.append(dataclasses.asdict(result))
        elif isinstance(result, dict):
            converted.append(dict(result))
        else:
            raise TypeError(f"cannot serialise result of type {type(result)!r}")
    return converted


def save_json(results: Union[Iterable[Any], dict], path: Union[str, Path]) -> Path:
    """Persist experiment results as JSON (used by the benchmark harness)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(results, dict):
        payload = results
    else:
        payload = as_dicts(results)
    path.write_text(json.dumps(payload, indent=2, default=_json_default))
    return path


@dataclasses.dataclass(frozen=True)
class Timing:
    """Wall-clock samples of one callable timed by :func:`time_interleaved`."""

    min_s: float
    p50_s: float
    samples_s: List[float]


def time_interleaved(*callables: Callable[[], Any], rounds: int) -> List[Timing]:
    """Time callables against each other: the one timer of every speed floor.

    Each callable is called once untimed, so caches and lazy compiles warm on
    every side alike; then each of ``rounds`` rounds calls every callable
    once, round ``r`` starting with callable ``r mod n``, so a slow spell of
    the host lands on all sides.  A speedup floor compares the sides'
    ``min_s``.  With one callable this is a warmed one-sided timing.
    """
    if not callables or rounds < 1:
        raise ValueError("time_interleaved needs callables and rounds >= 1")
    for fn in callables:
        fn()
    samples: List[List[float]] = [[] for _ in callables]
    for round_index in range(rounds):
        for offset in range(len(callables)):
            index = (round_index + offset) % len(callables)
            start = time.perf_counter()
            callables[index]()
            samples[index].append(time.perf_counter() - start)
    return [Timing(min_s=min(times), p50_s=statistics.median(times), samples_s=times)
            for times in samples]


def _json_default(value: Any):
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if hasattr(value, "tolist"):          # numpy arrays and scalars
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def percent(value: float) -> str:
    """Format a fraction as a percentage string."""
    return f"{100.0 * value:.2f}%"
