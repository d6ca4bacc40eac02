"""Content addressing of compiled-program artifacts.

An artifact-store entry is keyed by a stable hash of everything the
decomposition step is a pure function of:

* the **model weights** -- a SHA-256 digest over every parameter and buffer
  of the module's ``state_dict`` (names, dtypes, shapes and raw bytes), so
  two models agree exactly when their deployable weights agree exactly;
* the frozen **HardwareTarget** dataclass -- flattened field by field
  (``dataclasses.fields``, so a target field added later joins the key by
  construction) into a canonical JSON document: sorted keys, no
  whitespace, no floats-with-locale surprises.

The final key is the SHA-256 hex digest of that canonical document.  Targets
carrying a live :class:`~repro.photonics.noise.PhaseNoiseModel` have no
canonical byte representation (the model owns an RNG); hashing one raises
:class:`~repro.store.errors.StoreKeyError` and the compile seam simply
bypasses the store for such targets -- noise is injected *after* the stored
decomposition step anyway.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict

import numpy as np

from repro.store.errors import StoreKeyError

#: bumped when the hashed document layout or the entry layout changes, so
#: entries written by an older layout can never collide with (or shadow)
#: newer ones (2: the compile-options document left the key; 3: entries pack
#: their arrays into five payload members and one dense file)
KEY_LAYOUT_VERSION = 3


def canonical_json(document: Any) -> str:
    """Serialize a JSON-able document to its canonical byte form."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _jsonable(value: Any, field_name: str) -> Any:
    """A canonical JSON value for one policy field, or raise StoreKeyError."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise StoreKeyError(f"policy field {field_name!r} is not finite")
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(item, field_name) for item in value]
    raise StoreKeyError(
        f"policy field {field_name!r} of type {type(value).__name__} has no "
        "canonical JSON form; targets carrying live objects (e.g. a "
        "PhaseNoiseModel) bypass the artifact store")


def policy_document(policy: Any) -> Dict[str, Any]:
    """Flatten a frozen policy dataclass into a canonical-JSON-able dict."""
    document: Dict[str, Any] = {}
    for spec in dataclasses.fields(policy):
        document[spec.name] = _jsonable(getattr(policy, spec.name), spec.name)
    return document


def weights_digest(model: Any) -> str:
    """SHA-256 digest over every parameter and buffer of ``model``.

    Covers names, dtypes, shapes and raw (C-contiguous) bytes, iterated in
    sorted-name order so the digest is independent of module walk order.
    Buffers (batch-norm running statistics) are included: they do not feed
    the decomposition, but folding them into the key keeps it conservative
    -- any weight-affecting mutation of the module changes the key.
    """
    digest = hashlib.sha256()
    state = model.state_dict()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(repr(array.shape).encode("ascii"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def key_document(model: Any, target: Any) -> Dict[str, Any]:
    """The canonical document :func:`store_key` hashes for ``(model, target)``."""
    return {
        "layout": KEY_LAYOUT_VERSION,
        "target": policy_document(target),
        "weights": weights_digest(model),
    }


def store_key(model: Any, target: Any) -> str:
    """The content-addressed entry key of one ``(model, target)``.

    Raises :class:`StoreKeyError` when the target carries a field with no
    canonical form (live noise models); callers treat that as "this
    deployment does not participate in the store".
    """
    document = key_document(model, target)
    return hashlib.sha256(canonical_json(document).encode("ascii")).hexdigest()


def file_sha256(path, chunk_bytes: int = 1 << 20) -> str:
    """SHA-256 hex digest of a file, streamed in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_bytes)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()
