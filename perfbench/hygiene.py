"""Leak checks run after the workloads that start processes or write stores.

Each returns a list of violations; the caller counts every one as a failed
operation.
"""

from __future__ import annotations

import gc
import glob
import multiprocessing
import os
import threading
from pathlib import Path
from typing import List


def leaked_segments() -> List[str]:
    """``repro-shard`` shared-memory segments this process created that survive."""
    return glob.glob(f"/dev/shm/repro-shard-{os.getpid()}-*")


def _helper_pids() -> set:
    """Processes multiprocessing keeps for the life of the interpreter."""
    from multiprocessing import resource_tracker

    pid = getattr(resource_tracker._resource_tracker, "_pid", None)
    return {pid} if pid else set()


def live_children() -> List[int]:
    """Child processes of this one still running, other than multiprocessing helpers."""
    multiprocessing.active_children()       # reaps finished children
    me = str(os.getpid())
    helpers = _helper_pids()
    children = []
    for status in glob.glob("/proc/[0-9]*/stat"):
        try:
            fields = Path(status).read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        pid = int(Path(status).parent.name)
        # fields after the command name: state, ppid, ...; zombies are reaped
        # by whoever waits on them and do not run
        if fields[1] == me and fields[0] != "Z" and pid not in helpers:
            children.append(pid)
    return children


def store_leftovers(root: Path) -> List[str]:
    """Unpublished ``*.tmp`` writer directories or quarantined entries."""
    if not root.exists():
        return []
    leftovers = [str(path) for path in root.rglob("*.tmp")]
    quarantine = root / ".quarantine"
    if quarantine.exists():
        leftovers.extend(str(path) for path in quarantine.iterdir())
    return leftovers


def check_processes() -> List[str]:
    violations = [f"shared-memory segment left behind: {name}"
                  for name in leaked_segments()]
    violations.extend(f"child process still alive: pid {pid}"
                      for pid in live_children())
    return violations


def stop_helpers() -> None:
    """Stop multiprocessing's helpers and wait for them to exit.

    A queue's feeder thread holds the queue's write lock until it sees the
    queue collected, and the resource tracker unlinks every lock still held
    when it stops; so collect, join the feeder threads, collect their locks,
    and only then stop the tracker.
    """
    from multiprocessing import resource_tracker

    gc.collect()
    for thread in threading.enumerate():
        if thread.name == "QueueFeederThread":
            thread.join(timeout=10)
    gc.collect()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
