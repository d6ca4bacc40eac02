"""Content-addressed on-disk store of compiled-program artifacts.

Decomposition is the expensive pure step of the whole pipeline -- mesh
phases are a deterministic function of ``(weights, method)`` -- so the
store persists exactly that step's output.  An entry packs every deployed
weight matrix into five NPZ members (``modes``, ``thetas``, ``phis``,
``out`` and ``sv``: each the concatenation over matrices in deployment
order, left mesh before right), and every fused effective matrix into one
raw ``.npy`` file (:data:`~repro.store.manifest.DENSE_NAME`).  The reader
slices the arrays by the manifest's per-mesh ``dimension`` and
``mzi_count`` and by ``min(rows, cols)``, and maps the dense file once with
``np.load(..., mmap_mode="r")``, handing each matrix a ``(cols, rows)``
view -- N serving replicas on a host then share one physical page-cache
copy of every dense matrix instead of N private allocations.  (``.npy``
beside the zip rather than inside it: memory mapping does not reach
through an NPZ container.)  A warm load therefore reads five members and
maps one file whatever the model's depth.

Entries live at ``root/<key[:2]>/<key>/`` with a validated
``manifest.json`` beside the payloads (:mod:`repro.store.manifest`).
Publication is atomic: the entry is assembled in a sibling ``*.tmp``
directory and ``os.replace``-d into place, so concurrent writers race
cleanly (one rename wins, the loser discards its tmp) and a crashed writer
never leaves a torn entry -- exactly the tmp-then-replace idiom of the
serving tables this repo's ROADMAP points at.  Every read-side failure --
truncated zip, bit-flipped payload, wrong schema version, shape mismatch
-- degrades to a logged miss: the entry is quarantined (or deleted when
quarantining fails) and the caller falls through to live compilation.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import logging
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.compile import HardwareTarget
from repro.photonics.area import mzi_count_matrix
from repro.photonics.mzi_mesh import MeshDecomposition
from repro.photonics.svd_mapping import PhotonicMatrix
from repro.store.errors import ArtifactError, ArtifactMismatchError, StoreKeyError
from repro.store.hashing import file_sha256, policy_document, store_key
from repro.store.manifest import (
    DENSE_NAME,
    MANIFEST_NAME,
    PAYLOAD_MEMBERS,
    PAYLOAD_NAME,
    build_manifest,
    validate_manifest,
)

logger = logging.getLogger("repro.store")

#: per-process counter making concurrent tmp directories of one pid unique
_TMP_COUNTER = itertools.count()


@dataclass
class StoreStats:
    """Read/write outcomes of one :class:`ArtifactStore` instance."""

    hits: int = 0
    misses: int = 0
    saves: int = 0
    corrupt: int = 0            # entries quarantined/deleted on a failed read
    errors: int = 0             # failed writes (read-only store, full disk)
    deletes: int = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "saves": self.saves,
                "corrupt": self.corrupt, "errors": self.errors,
                "deletes": self.deletes}


def _frozen_loaded(array: np.ndarray) -> np.ndarray:
    """Mark a freshly loaded array read-only so mesh construction aliases it."""
    array.flags.writeable = False
    return array


class StoredArtifact:
    """One loaded entry: the deployed matrices, ready to stand in for SVD.

    :meth:`deploy_fn` returns a drop-in replacement for the live
    ``svd_decompose_many`` call at the lowering seam: it serves the stored
    :class:`~repro.photonics.svd_mapping.PhotonicMatrix` objects positionally
    (deployment order is the deterministic rule-walk order the entry was
    captured in), validating each against the weight it is asked to stand in
    for.  A disagreement raises
    :class:`~repro.store.errors.ArtifactMismatchError`, which the compile
    seam turns into quarantine + live recompilation.
    """

    def __init__(self, key: str, matrices: List[PhotonicMatrix]):
        self.key = key
        self.matrices = matrices

    def deploy_fn(self) -> Callable[[Sequence[np.ndarray]], List[PhotonicMatrix]]:
        cursor = [0]

        def deploy(weights: Sequence[np.ndarray]) -> List[PhotonicMatrix]:
            start = cursor[0]
            if start + len(weights) > len(self.matrices):
                raise ArtifactMismatchError(
                    f"entry {self.key[:12]} holds {len(self.matrices)} matrices "
                    f"but the model deploys more")
            served = self.matrices[start:start + len(weights)]
            for position, (weight, matrix) in enumerate(zip(weights, served)):
                shape = np.asarray(weight).shape
                if shape != (matrix.rows, matrix.cols):
                    raise ArtifactMismatchError(
                        f"entry {self.key[:12]} matrix {start + position} is "
                        f"{matrix.rows}x{matrix.cols} but the model deploys "
                        f"a {shape} weight")
            cursor[0] += len(weights)
            return list(served)

        return deploy


class ArtifactStore:
    """A content-addressed directory of precompiled decomposition artifacts.

    Parameters
    ----------
    root:
        Store directory; created lazily on the first save.
    readonly:
        Never write (no population on miss, no quarantine renames that
        would modify the tree).  A store on read-only media also degrades
        to this behaviour automatically -- every failed write is counted
        in :attr:`stats` and logged, never raised to the compile seam.
    """

    def __init__(self, root, readonly: bool = False):
        self.root = Path(root)
        self.readonly = bool(readonly)
        self.stats = StoreStats()

    # ------------------------------------------------------------------ #
    # keys and paths
    # ------------------------------------------------------------------ #
    def key_for(self, model: Any, target: Optional[HardwareTarget] = None) -> str:
        """Content key of one deployment; raises :class:`StoreKeyError` when
        the target has no canonical form (live noise models)."""
        return store_key(model, HardwareTarget() if target is None else target)

    def try_key_for(self, model: Any,
                    target: Optional[HardwareTarget] = None) -> Optional[str]:
        """:meth:`key_for`, with unhashable targets mapped to ``None``."""
        try:
            return self.key_for(model, target)
        except StoreKeyError:
            return None

    def entry_path(self, key: str) -> Path:
        return self.root / key[:2] / key

    def has(self, key: str) -> bool:
        return (self.entry_path(key) / MANIFEST_NAME).is_file()

    __contains__ = has

    def keys(self) -> List[str]:
        """Keys of every published entry under the root."""
        if not self.root.is_dir():
            return []
        return sorted(entry.parent.name
                      for entry in self.root.glob(f"??/*/{MANIFEST_NAME}"))

    # ------------------------------------------------------------------ #
    # read path
    # ------------------------------------------------------------------ #
    def load(self, key: str) -> Optional[StoredArtifact]:
        """The entry for ``key``, or ``None`` (miss or quarantined corruption).

        Validates the manifest and the size + SHA-256 of every payload file
        before deserializing anything, then rebuilds the
        :class:`PhotonicMatrix` objects from slices of the packed arrays,
        each of which must be consumed exactly.  Effective matrices are
        views of the one memory-mapped dense file.
        """
        entry = self.entry_path(key)
        if not (entry / MANIFEST_NAME).is_file():
            self.stats.misses += 1
            return None
        try:
            with open(entry / MANIFEST_NAME, "r", encoding="utf-8") as handle:
                manifest = validate_manifest(json.load(handle), expected_key=key)
            # the payload is read once: the bytes verified are the bytes parsed
            payload_bytes = (entry / PAYLOAD_NAME).read_bytes()
            for name, meta in manifest["files"].items():
                path, is_payload = entry / name, name == PAYLOAD_NAME
                size = len(payload_bytes) if is_payload else path.stat().st_size
                if size != int(meta["bytes"]):
                    raise ArtifactError(f"{name} is {size} bytes, "
                                        f"manifest says {meta['bytes']}")
                digest = (hashlib.sha256(payload_bytes).hexdigest() if is_payload
                          else file_sha256(path))
                if digest != meta["sha256"]:
                    raise ArtifactError(f"{name} fails its SHA-256 digest")
            with np.load(io.BytesIO(payload_bytes), allow_pickle=False) as payload:
                packed = {name: _frozen_loaded(payload[name])
                          for name in PAYLOAD_MEMBERS}
            packed["eff"] = (np.load(entry / DENSE_NAME, mmap_mode="r")
                             if DENSE_NAME in manifest["files"]
                             else np.empty(0, dtype=complex))
            cursor = dict.fromkeys(packed, 0)

            def take(name: str, count: int) -> np.ndarray:
                start = cursor[name]
                cursor[name] = start + count
                return packed[name][start:start + count]

            matrices = [self._build_matrix(take, index, record)
                        for index, record in enumerate(manifest["matrices"])]
            for name, array in packed.items():
                if array.shape != (cursor[name],):
                    raise ArtifactError(f"packed {name!r} has shape {array.shape}"
                                        f" but the manifest reads {cursor[name]}")
        except Exception as error:  # noqa: BLE001 -- any damage means "miss"
            logger.warning("store entry %s is unusable (%s); quarantining and "
                           "falling back to live compilation", key[:12], error)
            self.stats.corrupt += 1
            self.quarantine(key)
            return None
        self.stats.hits += 1
        self._touch(entry)
        return StoredArtifact(key, matrices)

    def _touch(self, entry: Path) -> None:
        """Bump the entry directory's mtime so pruning sees it as recent.

        The directory mtime is the store's LRU clock: saves set it via the
        publishing rename and every hit refreshes it here, so
        :meth:`prune` evicts by last *use*, not last write.  Best-effort --
        read-only media just leaves the write-time ordering in place.
        """
        if self.readonly:
            return
        try:
            os.utime(entry)
        except OSError:
            pass

    def _build_matrix(self, take: Callable[[str, int], np.ndarray], index: int,
                      record: Dict[str, Any]) -> PhotonicMatrix:
        rows, cols = int(record["rows"]), int(record["cols"])
        meshes = {}
        for side in ("left", "right"):
            dimension = int(record[side]["dimension"])
            count = int(record[side]["mzi_count"])
            if count != dimension * (dimension - 1) // 2:
                raise ArtifactError(f"matrix {index} {side} mesh records {count} "
                                    f"MZIs for {dimension} modes")
            meshes[side] = MeshDecomposition(
                dimension=dimension, method=str(record["method"]),
                modes=take("modes", count), thetas=take("thetas", count),
                phis=take("phis", count), output_phases=take("out", dimension))
        singular_values = take("sv", min(rows, cols))
        if singular_values.shape != (min(rows, cols),):
            raise ArtifactError(f"matrix {index} has {singular_values.shape} "
                                f"singular values for a {rows}x{cols} weight")
        matrix = PhotonicMatrix(
            rows=rows, cols=cols, left_mesh=meshes["left"],
            right_mesh=meshes["right"], singular_values=singular_values,
            scale=float(record["scale"]))
        if matrix.mzi_count != mzi_count_matrix(rows, cols) - min(rows, cols):
            raise ArtifactError(f"matrix {index} MZI count disagrees with the "
                                "closed form for its shape")
        if record["dense"]:
            # stored phases are never trials-batched, so the plan runtime
            # fuses this matrix: serve its effective matrix off the mapping
            matrix.seed_effective_weight_t(
                take("eff", cols * rows).reshape(cols, rows))
        return matrix

    # ------------------------------------------------------------------ #
    # write path
    # ------------------------------------------------------------------ #
    def save(self, key: str, matrices: Sequence[PhotonicMatrix], model: Any,
             target: HardwareTarget) -> bool:
        """Publish one entry atomically; returns whether the key is now stored.

        The entry is assembled in a sibling ``<key>.<pid>-<n>.tmp`` directory
        and ``os.replace``-d into place.  Losing the rename race to a
        concurrent writer counts as success (the other writer published the
        identical content-addressed entry); any OS-level failure (read-only
        store, full disk) is logged and counted, never raised.
        """
        if self.readonly:
            return False
        entry = self.entry_path(key)
        tmp = entry.with_name(f"{key}.{os.getpid()}-{next(_TMP_COUNTER)}.tmp")
        try:
            tmp.mkdir(parents=True)
            packed: Dict[str, List[np.ndarray]] = {
                name: [np.empty(0, dtype)] for name, dtype in PAYLOAD_MEMBERS.items()}
            dense: List[np.ndarray] = []
            records = [self._write_matrix(packed, dense, matrix)
                       for matrix in matrices]
            np.savez(tmp / PAYLOAD_NAME, **{name: np.concatenate(parts)
                                            for name, parts in packed.items()})
            names = [PAYLOAD_NAME]
            if dense:
                (tmp / DENSE_NAME).parent.mkdir()
                np.save(tmp / DENSE_NAME, np.concatenate(dense))
                names.append(DENSE_NAME)
            files = {name: {"bytes": (tmp / name).stat().st_size,
                            "sha256": file_sha256(tmp / name)}
                     for name in names}
            from repro import __version__
            manifest = build_manifest(
                key=key, repro_version=__version__,
                target_doc=policy_document(target),
                model_doc={"class": type(model).__name__,
                           "arrays": len(model.state_dict())},
                matrices=records, files=files)
            with open(tmp / MANIFEST_NAME, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
            try:
                os.replace(tmp, entry)
            except OSError:
                # a concurrent writer published the same content first; its
                # entry is identical by construction, so losing the rename
                # race is success -- just discard our duplicate
                if not self.has(key):
                    raise
                shutil.rmtree(tmp, ignore_errors=True)
            self.stats.saves += 1
            return True
        except OSError as error:
            logger.warning("could not publish store entry %s (%s); continuing "
                           "without persisting", key[:12], error)
            self.stats.errors += 1
            shutil.rmtree(tmp, ignore_errors=True)
            return False

    def _write_matrix(self, packed: Dict[str, List[np.ndarray]],
                      dense: List[np.ndarray],
                      matrix: PhotonicMatrix) -> Dict[str, Any]:
        """Append one matrix's arrays to the packed lists; return its record."""
        record: Dict[str, Any] = {
            "rows": matrix.rows, "cols": matrix.cols,
            "scale": float(matrix.scale), "method": matrix.left_mesh.method,
            "dense": matrix.uses_dense_path(),
        }
        for side, mesh in (("left", matrix.left_mesh),
                           ("right", matrix.right_mesh)):
            record[side] = {"dimension": mesh.dimension,
                            "mzi_count": mesh.mzi_count}
            packed["modes"].append(mesh.modes)
            packed["thetas"].append(mesh.thetas)
            packed["phis"].append(mesh.phis)
            packed["out"].append(mesh.output_phases)
        packed["sv"].append(matrix.singular_values)
        if record["dense"]:
            # the plan runtime fuses this stage into one effective matmul;
            # store that exact matrix so warm loads skip the reconstruction
            dense.append(matrix.effective_weight_t().ravel())
        return record

    # ------------------------------------------------------------------ #
    # removal
    # ------------------------------------------------------------------ #
    def delete(self, key: str) -> bool:
        """Drop one entry; returns whether it existed.  Never raises."""
        entry = self.entry_path(key)
        existed = entry.is_dir()
        if existed and not self.readonly:
            shutil.rmtree(entry, ignore_errors=True)
            self.stats.deletes += 1
        return existed

    def prune(self, max_entries: Optional[int] = None,
              max_age: Optional[float] = None) -> Dict[str, int]:
        """Evict old and excess entries; returns a removal report.

        ``max_age`` (seconds) drops every entry whose directory mtime --
        bumped on each hit, so effectively its last use -- is older than
        that; ``max_entries`` then keeps only the most recently used
        entries.  The quarantine tree is subject to the same two bounds
        (quarantined trees are debris awaiting inspection, not addressable
        entries, so they obey the same retention policy).

        Removal never races a concurrent reader into a torn read: each
        victim is first ``os.replace``-d to a non-addressable ``*.prune``
        sibling -- after which readers atomically see a clean miss -- and
        only then deleted.  A reader that opened the manifest just before
        the rename fails mid-read and degrades to a quarantined miss, which
        is the store's normal damage path, never a wrong answer.
        """
        report = {"removed_entries": 0, "removed_quarantined": 0,
                  "kept_entries": 0}
        if self.readonly:
            report["kept_entries"] = len(self.keys())
            return report
        report["removed_entries"] = self._prune_tree(
            [self.entry_path(key) for key in self.keys()],
            max_entries, max_age)
        quarantine_root = self.root / ".quarantine"
        quarantined = sorted(path for path in quarantine_root.iterdir()
                             if path.is_dir()) if quarantine_root.is_dir() else []
        report["removed_quarantined"] = self._prune_tree(
            quarantined, max_entries, max_age)
        report["kept_entries"] = len(self.keys())
        self.stats.deletes += report["removed_entries"]
        return report

    def _prune_tree(self, entries: List[Path], max_entries: Optional[int],
                    max_age: Optional[float]) -> int:
        """Apply the age then LRU bound to one directory list; count removals."""
        import time

        survivors = []
        removed = 0
        now = time.time()
        for entry in entries:
            try:
                mtime = entry.stat().st_mtime
            except OSError:
                continue          # a concurrent prune/writer already moved it
            if max_age is not None and now - mtime > max_age:
                removed += self._remove_entry(entry)
            else:
                survivors.append((mtime, entry))
        if max_entries is not None and len(survivors) > max_entries:
            survivors.sort(reverse=True)      # most recently used first
            for _, entry in survivors[max_entries:]:
                removed += self._remove_entry(entry)
        return removed

    def _remove_entry(self, entry: Path) -> int:
        """Atomically un-address one entry directory, then delete it."""
        doomed = entry.with_name(
            f"{entry.name}.{os.getpid()}-{next(_TMP_COUNTER)}.prune")
        try:
            os.replace(entry, doomed)
        except OSError:
            return 0              # lost a race; someone else removed it
        shutil.rmtree(doomed, ignore_errors=True)
        return 1

    def quarantine(self, key: str) -> None:
        """Move a damaged entry out of the addressable tree (or delete it)."""
        entry = self.entry_path(key)
        if not entry.exists() or self.readonly:
            return
        target = (self.root / ".quarantine"
                  / f"{key}.{os.getpid()}-{next(_TMP_COUNTER)}")
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(entry, target)
        except OSError:
            shutil.rmtree(entry, ignore_errors=True)
