"""Entry manifests of the artifact store.

Each store entry is a directory holding a ``manifest.json`` beside its array
payloads.  The manifest is the entry's self-description *and* its integrity
root: schema version, repo version, the content key the entry was written
under, creation metadata, the hashed target document, one record
per deployed matrix (shapes, scale, per-mesh dimension and MZI count,
whether its effective matrix is in the dense file) and the byte size +
SHA-256 of every payload file.  The records are also the index into the
packed arrays: the reader slices them in record order.  A reader
validates all of it before touching a single array; any disagreement raises
:class:`~repro.store.errors.ArtifactError`, which the store surface turns
into a logged miss plus quarantine -- never a crash.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List

import numpy as np

from repro.store.errors import ArtifactError

#: bumped whenever the entry layout (manifest fields, payload members)
#: changes incompatibly; readers treat any other version as corrupt
SCHEMA_VERSION = 2

MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "payload.npz"
DENSE_NAME = "dense/eff.npy"

#: the payload's members and dtypes: each concatenates every matrix's array
#: in deployment order (left mesh before right for the per-mesh members)
PAYLOAD_MEMBERS = {"modes": np.intp, "thetas": float, "phis": float,
                   "out": complex, "sv": float}


def build_manifest(key: str, repro_version: str,
                   target_doc: Dict[str, Any], model_doc: Dict[str, Any],
                   matrices: List[Dict[str, Any]],
                   files: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Assemble the manifest document for one entry about to be published."""
    return {
        "schema_version": SCHEMA_VERSION,
        "repro_version": repro_version,
        "key": key,
        "created": {"unix_time": time.time(), "pid": os.getpid()},
        "target": target_doc,
        "model": model_doc,
        "matrices": matrices,
        "files": files,
    }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ArtifactError(message)


def validate_manifest(document: Any, expected_key: str) -> Dict[str, Any]:
    """Structural validation of a loaded manifest; returns it on success.

    Checks the schema version, that the entry was written under the key it
    now lives at (a renamed/copied entry must not serve the wrong model) and
    that every matrix record and file record carries the fields the reader
    is about to rely on.
    """
    _require(isinstance(document, dict), "manifest is not a JSON object")
    _require(document.get("schema_version") == SCHEMA_VERSION,
             f"manifest schema version {document.get('schema_version')!r} "
             f"!= supported {SCHEMA_VERSION}")
    _require(document.get("key") == expected_key,
             f"manifest key {document.get('key')!r} does not match the entry "
             f"location {expected_key!r}")
    matrices = document.get("matrices")
    _require(isinstance(matrices, list) and matrices,
             "manifest carries no matrix records")
    for index, record in enumerate(matrices):
        _require(isinstance(record, dict), f"matrix record {index} is not an object")
        for field in ("rows", "cols", "scale", "method", "dense", "left", "right"):
            _require(field in record, f"matrix record {index} lacks {field!r}")
        for side in ("left", "right"):
            mesh = record[side]
            _require(isinstance(mesh, dict) and "dimension" in mesh
                     and "mzi_count" in mesh,
                     f"matrix record {index} has a malformed {side!r} mesh record")
    files = document.get("files")
    _require(isinstance(files, dict) and PAYLOAD_NAME in files,
             "manifest lacks the payload file record")
    for name, meta in files.items():
        _require(isinstance(meta, dict) and "bytes" in meta and "sha256" in meta,
                 f"file record {name!r} lacks bytes/sha256")
    return document
