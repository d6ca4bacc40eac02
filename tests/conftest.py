"""Shared fixtures for the OplixNet reproduction test-suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.data.dataset import ArrayDataset
from repro.tensor.random import seed_all

# Hypothesis profiles for tests that leave the example count to the profile:
# ``default`` keeps tier-1 time fixed, ``HYPOTHESIS_PROFILE=ci`` runs more
settings.register_profile("default", max_examples=60, deadline=None)
settings.register_profile("ci", max_examples=300, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng() -> np.random.Generator:
    """A freshly seeded generator for each test."""
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def _reset_default_rng():
    """Keep the library-wide default generator deterministic across tests."""
    seed_all(0)
    yield


@pytest.fixture
def tiny_image_dataset(rng) -> ArrayDataset:
    """A tiny 3-channel image classification dataset (2 well-separated classes)."""
    samples, channels, height, width = 40, 3, 8, 8
    labels = np.arange(samples) % 2
    images = rng.normal(0.0, 0.3, size=(samples, channels, height, width))
    images[labels == 1] += 1.5
    return ArrayDataset(images, labels, num_classes=2)


@pytest.fixture
def tiny_flat_dataset(rng) -> ArrayDataset:
    """A tiny single-channel dataset for FCNN-style tests (2 classes)."""
    samples, height, width = 60, 6, 6
    labels = np.arange(samples) % 2
    images = rng.normal(0.0, 0.4, size=(samples, 1, height, width))
    images[labels == 1, :, :3, :] += 1.2
    images[labels == 0, :, 3:, :] += 1.2
    return ArrayDataset(images, labels, num_classes=2)
