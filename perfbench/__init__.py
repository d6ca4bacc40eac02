"""Outside-in benchmark of the OplixNet reproduction.

Drives the compiler, the serving stack and the trainers only through their
public entry points and reports end-to-end and per-layer metrics.  Run it
from the repository root::

    python3 perfbench/run.py --workload serve-conv --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and which layer
metric should move which end-to-end metric.
"""
