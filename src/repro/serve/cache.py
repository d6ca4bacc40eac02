"""LRU cache of compiled photonic programs.

Compiling a model (SVD factoring, mesh decomposition, plan building) costs
orders of magnitude more than executing it once, so a serving process must
never recompile a program it already holds.  :class:`ProgramCache` keys
compiled programs by ``(model_key, HardwareTarget)`` and evicts
least-recently-used entries beyond its capacity.

The key is canonicalized: the target dataclass is flattened into its
fields.  A :class:`~repro.photonics.noise.PhaseNoiseModel` carries a live
random generator and therefore keys by *identity* -- two targets share a
cache entry only when they share the noise-model object (the cached program
keeps the object alive, so the identity stays unambiguous while the entry
lives).
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.core.compile import CompiledProgram, HardwareTarget
from repro.core.compile import compile as compile_program
from repro.nn.module import Module
from repro.photonics.noise import PhaseNoiseModel


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "hit_rate": self.hit_rate}


def _frozen_fields(policy: Any) -> Tuple:
    """Every field of a frozen policy dataclass as a hashable tuple.

    Derived from ``dataclasses.fields`` so a field added to
    :class:`HardwareTarget` later joins the key by construction instead of
    silently colliding.  Noise models carry a live
    generator and key by identity (the cached program keeps the object
    alive, so the identity stays unambiguous while the entry lives).
    """
    parts = []
    for spec in dataclasses.fields(policy):
        value = getattr(policy, spec.name)
        if isinstance(value, PhaseNoiseModel):
            value = ("noise", id(value))
        parts.append((spec.name, value))
    return tuple(parts)


def cache_key(model_key: str, target: Optional[HardwareTarget] = None) -> Tuple:
    """Canonical hashable key of one ``(model, target)`` deployment."""
    target = HardwareTarget() if target is None else target
    return (str(model_key), _frozen_fields(target))


class ProgramCache:
    """Thread-safe LRU cache of :class:`~repro.core.compile.CompiledProgram`.

    ``get_or_compile`` is the main entry: on a miss the model (or a zero-arg
    model factory, so cold models can be built lazily) is compiled, its
    execution plan warmed, and the program inserted; on a hit the cached
    program is returned untouched.  Compilation happens outside the cache
    lock with a per-key in-flight marker: concurrent misses on the same key
    wait for one compile, while hits on other keys proceed unstalled.

    With an :class:`~repro.store.ArtifactStore` attached, a memory miss
    consults the store before decomposing anything (and populates it after a
    live compile); :meth:`invalidate` then also bypasses *and rewrites* the
    on-disk entry on the next compile, so a weight-changed redeploy cannot
    resurrect a stale artifact from disk.
    """

    def __init__(self, capacity: int = 8, store: Optional[Any] = None):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self.store = store
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple, CompiledProgram]" = OrderedDict()
        self._lock = threading.RLock()
        self._inflight: dict = {}
        self._refresh: set = set()          # keys whose next compile bypasses
        self._store_keys: dict = {}         # cache key -> on-disk content key

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, model_key: str,
            target: Optional[HardwareTarget] = None) -> Optional[CompiledProgram]:
        """The cached program for the key, or None (counts as hit/miss)."""
        key = cache_key(model_key, target)
        with self._lock:
            program = self._entries.get(key)
            if program is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return program

    def _insert_locked(self, key: Tuple, program: CompiledProgram) -> None:
        """Insert as most-recent and evict beyond capacity (lock held)."""
        self._entries[key] = program
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def put(self, model_key: str, program: CompiledProgram,
            target: Optional[HardwareTarget] = None) -> None:
        key = cache_key(model_key, target)
        with self._lock:
            self._insert_locked(key, program)

    def get_or_compile(self, model_key: str,
                       model: Any = None,
                       target: Optional[HardwareTarget] = None,
                       compile_fn: Callable = compile_program) -> CompiledProgram:
        """The cached program, compiling (and plan-warming) it on a miss.

        ``model`` may be the module itself or a zero-arg callable returning
        it; it is only touched on a miss.  Compilation runs *outside* the
        cache lock -- concurrent hits on other keys are never stalled behind
        a slow compile -- with a per-key in-flight marker so concurrent
        misses on the *same* key wait for the one compile instead of
        duplicating it.
        """
        key = cache_key(model_key, target)
        while True:
            with self._lock:
                program = self._entries.get(key)
                if program is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return program
                pending = self._inflight.get(key)
                if pending is None:
                    self.stats.misses += 1
                    if model is None:
                        raise KeyError(f"no cached program for {key} and no "
                                       "model to compile was provided")
                    self._inflight[key] = pending = threading.Event()
                    owner = True
                else:
                    owner = False
            if not owner:
                # another thread is compiling this key; when it finishes (or
                # fails) re-check the cache -- on failure the loop retries
                # the compile itself
                pending.wait()
                continue
            try:
                # modules are callable, so only non-module callables are factories
                module = (model() if callable(model) and not isinstance(model, Module)
                          else model)
                if self.store is not None:
                    with self._lock:
                        refresh = key in self._refresh
                    program = compile_fn(module, target=target,
                                         store=self.store, store_refresh=refresh)
                else:
                    program = compile_fn(module, target=target)
                program.plan()
                with self._lock:
                    self._insert_locked(key, program)
                    self._refresh.discard(key)
                    if getattr(program, "store_key", None):
                        self._store_keys[key] = program.store_key
                return program
            finally:
                with self._lock:
                    del self._inflight[key]
                pending.set()

    def invalidate(self, model_key: str,
                   target: Optional[HardwareTarget] = None) -> bool:
        """Drop one cached entry; returns whether it existed.

        Redeploying a model key whose *weights* changed must not hit the
        stale program -- the serving frontends call this before a
        ``refresh`` deploy so the next ``get_or_compile`` recompiles.  With
        an artifact store attached the invalidation extends to disk: the
        recorded on-disk entry is deleted and the next compile of this key
        bypasses the store read and rewrites the entry from a live compile.
        """
        key = cache_key(model_key, target)
        with self._lock:
            existed = self._entries.pop(key, None) is not None
            store_key = self._store_keys.pop(key, None)
            if self.store is not None:
                self._refresh.add(key)
        if store_key is not None and self.store is not None:
            self.store.delete(store_key)
        return existed

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._store_keys.clear()
