"""LeNet-5 in real and complex flavours (the paper's LeNet-5/CIFAR-10 workload).

The architecture follows the classic LeCun layout adapted to the input size:
two 5x5 convolution + pooling stages followed by three fully connected layers.
The complex variant halves the channel counts and hidden widths (driven by the
channel-lossless assignment) and ends in a learnable decoder head.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.decoders import DecoderHead, build_decoder_head
from repro.nn import AvgPool2d, Conv2d, Flatten, Linear, Module, ReLU, Sequential
from repro.nn.complex import (
    ComplexAvgPool2d,
    ComplexConv2d,
    ComplexSequential,
    ComplexTensor,
    CReLU,
)
from repro.tensor.tensor import Tensor, ensure_tensor


def _lenet_spatial_size(height: int, width: int, kernel: int = 5, padding: int = 0) -> Tuple[int, int]:
    """Spatial size after the two conv(k, padding)/pool(2) stages of LeNet-5."""
    def stage(size: int) -> int:
        return (size + 2 * padding - kernel + 1) // 2

    return stage(stage(height)), stage(stage(width))


class RealLeNet5(Module):
    """Real-valued LeNet-5.

    ``kernel_size``/``padding`` default to the classic 5x5 valid convolutions
    (the configuration whose MZI count matches the paper); the CPU-scale
    benchmark presets switch to 3x3 "same" convolutions so that the network
    still fits the shrunken images.
    """

    def __init__(self, in_channels: int = 3, num_classes: int = 10,
                 image_size: Tuple[int, int] = (32, 32),
                 channels: Sequence[int] = (6, 16),
                 hidden_sizes: Sequence[int] = (120, 84),
                 kernel_size: int = 5, padding: int = 0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.num_classes = int(num_classes)
        conv1_channels, conv2_channels = channels
        out_h, out_w = _lenet_spatial_size(*image_size, kernel=kernel_size, padding=padding)
        if out_h <= 0 or out_w <= 0:
            raise ValueError(f"image size {image_size} is too small for LeNet-5")
        flat_features = conv2_channels * out_h * out_w
        hidden1, hidden2 = hidden_sizes
        self.features = Sequential(
            Conv2d(in_channels, conv1_channels, kernel_size, padding=padding, rng=rng),
            ReLU(), AvgPool2d(2),
            Conv2d(conv1_channels, conv2_channels, kernel_size, padding=padding, rng=rng),
            ReLU(), AvgPool2d(2),
        )
        self.classifier = Sequential(
            Flatten(),
            Linear(flat_features, hidden1, rng=rng), ReLU(),
            Linear(hidden1, hidden2, rng=rng), ReLU(),
            Linear(hidden2, num_classes, rng=rng),
        )

    def forward(self, inputs) -> Tensor:
        inputs = ensure_tensor(inputs)
        return self.classifier(self.features(inputs))


class ComplexLeNet5(Module):
    """Complex-valued LeNet-5 with a learnable decoder head (CVNN / SCVNN).

    ``in_channels`` counts *complex* channels: 3 for the CVNN teacher
    (conventional assignment keeps all colour channels), 2 for the SCVNN with
    channel-lossless assignment, 1 with channel remapping.

    The trained model is deployable onto simulated MZI meshes:
    :func:`repro.compile` lowers the convolution kernels to
    im2col matrices and the trunk/head to SVD mesh pairs (see
    :mod:`repro.core.lowering`).
    """

    def __init__(self, in_channels: int = 2, num_classes: int = 10,
                 image_size: Tuple[int, int] = (32, 32),
                 channels: Sequence[int] = (3, 8),
                 hidden_sizes: Sequence[int] = (60, 42),
                 decoder: str = "merge",
                 kernel_size: int = 5, padding: int = 0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.num_classes = int(num_classes)
        self.decoder_name = decoder
        conv1_channels, conv2_channels = channels
        out_h, out_w = _lenet_spatial_size(*image_size, kernel=kernel_size, padding=padding)
        if out_h <= 0 or out_w <= 0:
            raise ValueError(f"image size {image_size} is too small for LeNet-5")
        flat_features = conv2_channels * out_h * out_w
        hidden1, hidden2 = hidden_sizes
        self.features = ComplexSequential(
            ComplexConv2d(in_channels, conv1_channels, kernel_size, padding=padding, rng=rng),
            CReLU(), ComplexAvgPool2d(2),
            ComplexConv2d(conv1_channels, conv2_channels, kernel_size, padding=padding, rng=rng),
            CReLU(), ComplexAvgPool2d(2),
        )
        self.trunk = ComplexSequential(
            ComplexLinearWithActivation(flat_features, hidden1, rng=rng),
            ComplexLinearWithActivation(hidden1, hidden2, rng=rng),
        )
        self.head: DecoderHead = build_decoder_head(decoder, hidden2, num_classes, rng=rng)

    def forward(self, inputs: ComplexTensor) -> Tensor:
        if not isinstance(inputs, ComplexTensor):
            inputs = ComplexTensor(ensure_tensor(inputs))
        features = self.features(inputs)
        flat = features.flatten(start_dim=1)
        hidden = self.trunk(flat)
        return self.head(hidden)


class ComplexLinearWithActivation(Module):
    """Convenience block: complex linear layer followed by CReLU."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        from repro.nn.complex import ComplexLinear

        self.linear = ComplexLinear(in_features, out_features, rng=rng)
        self.activation = CReLU()

    def forward(self, inputs: ComplexTensor) -> ComplexTensor:
        return self.activation(self.linear(inputs))


# --------------------------------------------------------------------------- #
# photonic lowering
# --------------------------------------------------------------------------- #
from repro.core.lowering import (  # noqa: E402
    FlattenStage,
    LoweringContext,
    register_lowering,
    register_model_lowering,
)


@register_lowering(ComplexLinearWithActivation)
def _lower_linear_with_activation(module: ComplexLinearWithActivation, name: str,
                                  ctx: LoweringContext) -> None:
    """Lower the wrapped linear layer, then its CReLU as its own node."""
    ctx.lower_module(module.linear, name)
    ctx.lower_module(module.activation, f"{name}.activation")


@register_model_lowering(ComplexLeNet5)
def _lower_complex_lenet5(model: ComplexLeNet5, ctx: LoweringContext) -> None:
    """Lower the conv features, the flatten, the linear trunk and the head."""
    ctx.input_kind = "image"
    ctx.lower_chain(model.features, "features")
    ctx.emit("flatten", FlattenStage())
    ctx.lower_chain(model.trunk, "trunk")
    ctx.lower_head(model.head)
