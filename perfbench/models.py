"""Model builders for the workloads; every weight comes from the run's seed.

Weights do not change what the runtime costs, but drawing them from the
seed means no two seeds serve or compile the same numbers.
"""

from __future__ import annotations

import numpy as np

from repro.models import ComplexFCNN, ComplexLeNet5, ComplexResNet
from repro.nn.normalization import _BatchNorm


def randomize_batchnorms(model, rng: np.random.Generator) -> None:
    """Give eval-mode batch norms non-trivial statistics to fold."""
    for _name, module in model.named_modules():
        if isinstance(module, _BatchNorm):
            module._set_buffer("running_mean", rng.normal(size=module.num_features) * 0.3)
            module._set_buffer("running_var", rng.uniform(0.5, 2.0, size=module.num_features))


def serve_resnet(rng: np.random.Generator) -> ComplexResNet:
    """ResNet-8, base widths (4, 8, 16), for 3x12x12 images under CL."""
    model = ComplexResNet(depth=8, in_channels=2, num_classes=10,
                          base_widths=(4, 8, 16), rng=rng)
    randomize_batchnorms(model, rng)
    return model


def serve_fcnn(rng: np.random.Generator) -> ComplexFCNN:
    """FCNN 72 -> 96 -> 96 -> 10 for 1x12x12 images under SI (every stage fuses)."""
    return ComplexFCNN(72, (96, 96), 10, decoder="merge", rng=rng)


#: the artifact-store benchmark families: name -> (image shape, scheme)
COMPILE_FAMILIES = {
    "fcnn": ((1, 16, 16), "SI"),
    "lenet5": ((3, 24, 24), "CL"),
    "resnet": ((3, 12, 12), "CL"),
}


def compile_model(name: str, rng: np.random.Generator):
    """One model of :data:`COMPILE_FAMILIES` (FCNN 128-160-160, LeNet-5, ResNet-14)."""
    if name == "fcnn":
        return ComplexFCNN(128, (160, 160), 10, decoder="merge", rng=rng)
    if name == "lenet5":
        return ComplexLeNet5(in_channels=2, num_classes=10, image_size=(24, 24),
                             channels=(3, 8), hidden_sizes=(60, 42),
                             decoder="merge", rng=rng)
    if name == "resnet":
        model = ComplexResNet(depth=14, in_channels=2, num_classes=10,
                              base_widths=(4, 8, 16), decoder="merge", rng=rng)
        randomize_batchnorms(model, rng)
        return model
    raise KeyError(name)


def train_resnet(rng: np.random.Generator) -> ComplexResNet:
    """SCVNN ResNet-8 for 3x32x32 images under SI (3 complex 16x32 maps)."""
    return ComplexResNet(depth=8, in_channels=3, num_classes=10,
                         base_widths=(4, 8, 16), rng=rng)


def mutual_pair(rng: np.random.Generator):
    """LeNet-5 SCVNN student (SI) and a wider CVNN teacher (conventional)."""
    student = ComplexLeNet5(in_channels=3, num_classes=10, image_size=(16, 32),
                            channels=(3, 8), hidden_sizes=(60, 42), rng=rng)
    teacher = ComplexLeNet5(in_channels=3, num_classes=10, image_size=(32, 32),
                            channels=(6, 16), hidden_sizes=(120, 84),
                            decoder="photodiode", rng=rng)
    return student, teacher
