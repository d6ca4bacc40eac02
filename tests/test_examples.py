"""Every script in ``examples/`` runs to completion from a checkout.

Each example runs in a fresh interpreter with ``PYTHONPATH=src`` from the
repository root.  It must exit 0 and leave the checkout as it found it (no
file written, modified or deleted), judged by ``git status`` when the
sources sit in a git work tree.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def checkout_status():
    """``git status --porcelain`` of the checkout, or None outside a work tree."""
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    result = subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                            cwd=ROOT, capture_output=True, text=True, timeout=60)
    return result.stdout if result.returncode == 0 else None


def test_examples_are_found():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_and_leaves_the_checkout_clean(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    before = checkout_status()
    result = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-4000:]
    assert result.stdout.strip()
    assert checkout_status() == before
