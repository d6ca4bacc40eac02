"""Baseline ONN architectures the paper compares against.

* :mod:`~repro.baselines.offt` -- the FFT-based block-circulant ONN of Gu et
  al. [19] (the comparison of Fig. 7).
* :mod:`~repro.baselines.pruning` -- magnitude pruning of ONN weight matrices
  in the spirit of the lottery-ticket photonic pruning of [18].
"""

from repro.baselines.offt import (
    BlockCirculantLinear,
    OFFTFCNN,
    offt_device_counts,
    offt_parameter_count,
    OFFTDeviceCounts,
)
from repro.baselines.pruning import magnitude_prune_model, pruned_area_report, sparsity_of_model

__all__ = [
    "BlockCirculantLinear",
    "OFFTFCNN",
    "offt_device_counts",
    "offt_parameter_count",
    "OFFTDeviceCounts",
    "magnitude_prune_model",
    "pruned_area_report",
    "sparsity_of_model",
]
