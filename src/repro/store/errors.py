"""Exceptions of the ahead-of-time compilation artifact store.

Every failure mode of the store degrades to a *cache miss* at the compile
seam -- callers log, fall back to live compilation and (where possible)
quarantine the offending entry.  The exception types exist so the store can
distinguish "this entry is damaged" (:class:`ArtifactError`) from "this entry
is healthy but describes a different model" (:class:`ArtifactMismatchError`,
raised mid-lowering when a served matrix does not fit the weight it is asked
to stand in for) and from "this policy cannot be hashed canonically"
(:class:`StoreKeyError`, e.g. a target carrying a live noise-model RNG).
"""

from __future__ import annotations


class ArtifactError(RuntimeError):
    """An on-disk entry is unreadable, torn, or fails validation."""


class ArtifactMismatchError(ArtifactError):
    """A loaded entry does not match the weights it is deployed against."""


class StoreKeyError(ArtifactError):
    """The (model, target) pair has no canonical content key."""
