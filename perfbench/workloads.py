"""The benchmark's workloads, by the names ``BENCHMARK.json`` lists.

A workload has ``setup(bench)``, ``teardown(bench, state)``,
``measure(bench, state, tracer, seconds)`` and
``layers(bench, state, tracer, measured)``, plus ``owns``: the per-layer
metrics it is the measuring workload for.
"""

from perfbench.compiling import Compile
from perfbench.serve import ServeConv, ServeSharded
from perfbench.train import Train

WORKLOADS = {workload.name: workload
             for workload in (ServeConv(), ServeSharded(), Train(), Compile())}
