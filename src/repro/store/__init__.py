"""Ahead-of-time compilation artifact store.

``repro.store`` persists the output of the expensive pure step of the
compiler -- SVD factoring + mesh decomposition -- in a content-addressed
on-disk store, so a fleet of serving workers cold-starts from a
memory-mapped disk read instead of re-decomposing every mesh:

* :class:`ArtifactStore` -- the store itself: atomic tmp-then-``os.replace``
  writes, manifest + digest validation on every read, quarantine-and-miss
  on any corruption.
* :class:`StoredArtifact` -- one loaded entry, serving its matrices into
  the lowering walk in place of live decomposition.
* :func:`store_key` / :func:`weights_digest` -- canonical-JSON content
  addressing over ``(model weights, HardwareTarget)``.

Build a store offline with ``python -m repro precompile`` and point
``repro.compile()`` / the serving layers at it (``store=`` / ``--store``).
"""

from repro.store.artifact import ArtifactStore, StoredArtifact, StoreStats
from repro.store.errors import ArtifactError, ArtifactMismatchError, StoreKeyError
from repro.store.hashing import canonical_json, store_key, weights_digest
from repro.store.manifest import SCHEMA_VERSION

__all__ = [
    "ArtifactStore",
    "StoredArtifact",
    "StoreStats",
    "ArtifactError",
    "ArtifactMismatchError",
    "StoreKeyError",
    "canonical_json",
    "store_key",
    "weights_digest",
    "SCHEMA_VERSION",
]
