"""Procedurally generated image-classification datasets.

These generators stand in for MNIST, CIFAR-10 and CIFAR-100 (unavailable in the
offline reproduction environment).  They are engineered to preserve the two
statistical properties that the OplixNet data-assignment study depends on:

1. **Spatial smoothness** -- each image is a low-pass-filtered random field, so
   vertically adjacent pixels are strongly correlated.  This is what makes the
   paper's *spatial interlace* assignment (packing neighbouring pixels into one
   complex value) lose less information than *spatial symmetric* (packing
   pixels from opposite image corners).
2. **Channel correlation** -- colour channels share a common luminance
   component plus smaller channel-specific detail, so the *channel lossless*
   assignment (packing two colour channels into one complex channel) retains
   class information while the lossy *channel remapping* discards some.

Every dataset is generated deterministically from a seed.  Train and test
splits share class prototypes but use disjoint sample noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset


@dataclass
class SyntheticImageConfig:
    """Configuration of a synthetic image-classification dataset.

    Attributes
    ----------
    num_classes:
        Number of target classes.
    channels, height, width:
        Image geometry (``channels`` is 1 for the MNIST stand-in, 3 for the
        CIFAR stand-ins).
    train_samples, test_samples:
        Total number of samples in each split (balanced over classes).
    smoothness:
        Gaussian blur sigma applied to the random fields; larger values give
        stronger local pixel correlation.
    channel_correlation:
        Fraction (0..1) of each channel that comes from the shared luminance
        field; the rest is channel-specific detail.
    prototype_strength:
        Scale of the class prototype relative to the per-sample variation.
    sample_variation:
        Scale of the smooth per-sample variation field added to the prototype
        (larger values make classes harder to separate).
    noise_level:
        Standard deviation of the white observation noise added per sample.
    jitter:
        Maximum circular shift (pixels) applied per sample, emulating small
        translations.
    seed:
        Seed controlling prototypes and sample noise.
    """

    num_classes: int = 10
    channels: int = 1
    height: int = 28
    width: int = 28
    train_samples: int = 2000
    test_samples: int = 400
    smoothness: float = 2.0
    channel_correlation: float = 0.75
    prototype_strength: float = 1.0
    sample_variation: float = 0.4
    noise_level: float = 0.25
    jitter: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if min(self.channels, self.height, self.width) <= 0:
            raise ValueError("image dimensions must be positive")
        if not 0.0 <= self.channel_correlation <= 1.0:
            raise ValueError("channel_correlation must be in [0, 1]")
        if self.train_samples < self.num_classes or self.test_samples < self.num_classes:
            raise ValueError("need at least one sample per class in each split")


class SyntheticImageDataset:
    """Factory producing train/test :class:`~repro.data.dataset.ArrayDataset` pairs."""

    def __init__(self, config: SyntheticImageConfig):
        self.config = config
        self._prototypes = self._build_prototypes()

    # ------------------------------------------------------------------ #
    # generation
    # ------------------------------------------------------------------ #
    def _smooth_field(self, rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
        from scipy import ndimage     # only data generation needs scipy

        field_values = rng.normal(size=shape)
        smoothed = ndimage.gaussian_filter(field_values, sigma=self.config.smoothness, mode="wrap")
        std = smoothed.std()
        return smoothed / (std + 1e-12)

    def _build_prototypes(self) -> np.ndarray:
        """One smooth multi-channel prototype per class."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        prototypes = np.zeros((cfg.num_classes, cfg.channels, cfg.height, cfg.width))
        for class_index in range(cfg.num_classes):
            luminance = self._smooth_field(rng, (cfg.height, cfg.width))
            for channel in range(cfg.channels):
                detail = self._smooth_field(rng, (cfg.height, cfg.width))
                prototypes[class_index, channel] = (
                    cfg.channel_correlation * luminance
                    + (1.0 - cfg.channel_correlation) * detail
                )
        return prototypes * cfg.prototype_strength

    def _generate_split(self, total: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        rng = np.random.default_rng(seed)
        labels = np.arange(total) % cfg.num_classes
        rng.shuffle(labels)
        images = np.zeros((total, cfg.channels, cfg.height, cfg.width))
        for index, label in enumerate(labels):
            sample = self._prototypes[label].copy()
            if cfg.jitter > 0:
                shift_y = int(rng.integers(-cfg.jitter, cfg.jitter + 1))
                shift_x = int(rng.integers(-cfg.jitter, cfg.jitter + 1))
                sample = np.roll(sample, (shift_y, shift_x), axis=(1, 2))
            # smooth per-sample variation keeps the local-correlation structure
            variation = np.stack([
                self._smooth_field(rng, (cfg.height, cfg.width)) for _ in range(cfg.channels)
            ])
            sample = sample + cfg.sample_variation * variation
            sample = sample + cfg.noise_level * rng.normal(size=sample.shape)
            images[index] = sample
        return images, labels

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def splits(self) -> Tuple[ArrayDataset, ArrayDataset]:
        """Return ``(train, test)`` datasets."""
        cfg = self.config
        train_images, train_labels = self._generate_split(cfg.train_samples, cfg.seed + 1)
        test_images, test_labels = self._generate_split(cfg.test_samples, cfg.seed + 2)
        train = ArrayDataset(train_images, train_labels, num_classes=cfg.num_classes)
        test = ArrayDataset(test_images, test_labels, num_classes=cfg.num_classes)
        return train, test

    @property
    def prototypes(self) -> np.ndarray:
        """Class prototypes of shape ``(num_classes, channels, height, width)``."""
        return self._prototypes


def synthetic_mnist(height: int = 28, width: int = 28, train_samples: int = 2000,
                    test_samples: int = 400, num_classes: int = 10,
                    seed: int = 0) -> Tuple[ArrayDataset, ArrayDataset]:
    """MNIST stand-in: single channel, strong spatial smoothness.

    The default 28x28 size matches the paper's FCNN input (784 features); the
    benchmark harness uses 14x14 variants for the smaller Fig. 7 models.
    """
    config = SyntheticImageConfig(
        num_classes=num_classes, channels=1, height=height, width=width,
        train_samples=train_samples, test_samples=test_samples,
        smoothness=2.5, channel_correlation=1.0, noise_level=0.3, seed=seed,
    )
    return SyntheticImageDataset(config).splits()


def synthetic_cifar10(height: int = 32, width: int = 32, train_samples: int = 2000,
                      test_samples: int = 400, seed: int = 10) -> Tuple[ArrayDataset, ArrayDataset]:
    """CIFAR-10 stand-in: three correlated colour channels, 10 classes."""
    config = SyntheticImageConfig(
        num_classes=10, channels=3, height=height, width=width,
        train_samples=train_samples, test_samples=test_samples,
        smoothness=2.0, channel_correlation=0.6, prototype_strength=0.8,
        sample_variation=0.8, noise_level=0.6, seed=seed,
    )
    return SyntheticImageDataset(config).splits()


def synthetic_cifar100(height: int = 32, width: int = 32, train_samples: int = 4000,
                       test_samples: int = 800, num_classes: int = 100,
                       seed: int = 100) -> Tuple[ArrayDataset, ArrayDataset]:
    """CIFAR-100 stand-in: three correlated colour channels, many classes.

    The benchmark harness typically reduces ``num_classes`` (e.g. to 20) so
    CPU-only training stays tractable; the full 100-class configuration is the
    default for parity with the paper.
    """
    config = SyntheticImageConfig(
        num_classes=num_classes, channels=3, height=height, width=width,
        train_samples=train_samples, test_samples=test_samples,
        smoothness=2.0, channel_correlation=0.6, prototype_strength=0.8,
        sample_variation=0.8, noise_level=0.6, seed=seed,
    )
    return SyntheticImageDataset(config).splits()
