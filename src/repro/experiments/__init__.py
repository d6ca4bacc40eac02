"""Experiment harnesses reproducing every table and figure of the paper.

Each module exposes a ``run_*`` function returning structured results plus a
``format_*`` helper printing the same rows/series the paper reports:

* :mod:`~repro.experiments.table2` -- Table II: accuracy and #MZI of the
  proposed OplixNet versus the original ONN and the RVNN reference.
* :mod:`~repro.experiments.table3` -- Table III: SCVNN accuracy with and
  without SCVNN-CVNN mutual learning.
* :mod:`~repro.experiments.fig7` -- Figure 7: comparison with the OFFT
  architecture [19] on four FCNN configurations.
* :mod:`~repro.experiments.fig8` -- Figure 8: comparison of real-to-complex
  data assignment schemes.
* :mod:`~repro.experiments.fig9` -- Figure 9: comparison of output decoders.
* :mod:`~repro.experiments.ablations` -- additional ablations (distillation
  alpha, mesh decomposition, phase-noise robustness, encoder throughput,
  pruning baseline).
* :mod:`~repro.experiments.deployed` -- deployed-CNN evaluation: the complex
  LeNet-5 lowered onto MZI meshes via im2col, with a batched phase-noise
  Monte-Carlo sweep.

Accuracy numbers are obtained on synthetic dataset stand-ins at CPU scale
(see :mod:`repro.data.synthetic`); MZI/DC/PS counts are always evaluated on the paper's
full-size model configurations, where they match the paper almost exactly.
"""

from repro.experiments.presets import Preset, get_preset, PRESETS
from repro.experiments import reporting

__all__ = ["Preset", "get_preset", "PRESETS", "reporting"]
