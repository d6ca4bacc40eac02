"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload serve-conv --seed 1 --seconds 10 --trace 0

Pins the thread environment before numpy is imported, then runs the
workload (see ``perfbench/harness.py``).  Exits 2 without a result when the
library sources are not next to the benchmark.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("serve-conv", "serve-sharded", "train", "compile")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    # the script's own directory must not shadow top-level modules
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import provenance

    provenance.pin_environment(ROOT / ".bench_build")
    from perfbench import harness

    return harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
