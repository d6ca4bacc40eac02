"""What the serving path imports, each case in a fresh interpreter.

A spawned worker must import :mod:`repro.serve.worker` before numpy loads
(it pins the BLAS thread count first), and compiling a program must not pull
in the training stack, the data stack, scipy or asyncio.  The lazily
resolved exports of :mod:`repro.core` and :mod:`repro.serve` still resolve.
"""

import os
import subprocess
import sys
from pathlib import Path


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with the sources on the path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_worker_module_does_not_load_numpy():
    out = run_fresh("import sys, repro.serve.worker\n"
                    "print('numpy' in sys.modules)")
    assert out.split() == ["False"]


def test_compile_and_plan_skip_the_training_and_data_stacks():
    code = """
import sys
import numpy as np
import repro
from repro.models import ComplexFCNN

model = ComplexFCNN(8, (6,), 3, decoder="merge", rng=np.random.default_rng(0))
repro.compile(model).plan()
print([name for name in ("scipy", "repro.data", "repro.core.training",
                         "repro.core.train_plan", "asyncio")
       if name in sys.modules])
"""
    assert run_fresh(code).strip() == "[]"


def test_lazy_exports_resolve():
    code = """
import repro.core, repro.serve
from repro.core import Trainer, MutualLearningTrainer, OplixNet
from repro.serve import *
assert Trainer.__module__ == "repro.core.training"
assert OplixNet.__module__ == "repro.core.pipeline"
assert all(name in globals() for name in repro.serve.__all__)
assert all(hasattr(repro.core, name) for name in repro.core.__all__)
for module in (repro, repro.core, repro.serve):
    try:
        module.no_such_name
    except AttributeError:
        pass
    else:
        raise AssertionError(module.__name__)
print("ok")
"""
    assert run_fresh(code).split() == ["ok"]
