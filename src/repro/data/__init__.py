"""Datasets, data loaders, transforms and synthetic dataset generators.

The execution environment has no copies of MNIST/CIFAR and no network access,
so the paper's datasets are replaced by procedurally generated stand-ins (see
:mod:`repro.data.synthetic` for the substitution rationale):

* :func:`~repro.data.synthetic.synthetic_mnist` -- 1-channel "digit" images
  built from class-specific stroke/blob prototypes with smooth spatial
  correlation (what the spatial assignment schemes exploit).
* :func:`~repro.data.synthetic.synthetic_cifar10` /
  :func:`~repro.data.synthetic.synthetic_cifar100` -- 3-channel object images
  with correlated colour channels (what the channel assignment schemes
  exploit).
"""

from repro.data.dataset import Dataset, ArrayDataset, Subset, train_test_split
from repro.data.loader import DataLoader
from repro.data.transforms import (
    Compose,
    Normalize,
    FlattenImage,
    RandomHorizontalFlip,
    RandomCrop,
    ToFloat,
)
from repro.data.synthetic import (
    SyntheticImageConfig,
    SyntheticImageDataset,
    synthetic_mnist,
    synthetic_cifar10,
    synthetic_cifar100,
)

__all__ = [
    "Dataset",
    "ArrayDataset",
    "Subset",
    "train_test_split",
    "DataLoader",
    "Compose",
    "Normalize",
    "FlattenImage",
    "RandomHorizontalFlip",
    "RandomCrop",
    "ToFloat",
    "SyntheticImageConfig",
    "SyntheticImageDataset",
    "synthetic_mnist",
    "synthetic_cifar10",
    "synthetic_cifar100",
]
