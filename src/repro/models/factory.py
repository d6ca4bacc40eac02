"""Model factory: build RVNN / CVNN / SCVNN variants from a single specification.

The factory encodes the paper's sizing rules:

* **RVNN** uses the real architecture at its full width.
* **CVNN** (the "Orig." conventional ONN and the mutual-learning teacher) uses
  the *complex* architecture at the full width of the real model, with the
  conventional amplitude-only assignment (so it saves no area).
* **SCVNN** (the proposed split ONN) derives its input geometry from the data
  assignment scheme and halves the trunk widths **only when the scheme reduces
  the channel/feature count**:

  - spatial schemes (SI/SH/SS) halve the flattened input of an FCNN, so FCNN
    hidden widths are halved too;
  - channel schemes (CL/CR) halve CNN channel counts, so CNN widths are halved;
  - a spatial scheme applied to a CNN does *not* shrink the convolution
    kernels (their size depends only on channel counts), so CNN widths stay
    full and only the flattened features entering the classifier shrink --
    exactly the behaviour discussed around Fig. 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.assignment import AssignmentScheme, get_scheme
from repro.models.fcnn import ComplexFCNN, RealFCNN
from repro.models.lenet import ComplexLeNet5, RealLeNet5
from repro.models.resnet import ComplexResNet, RealResNet
from repro.nn.module import Module

ARCHITECTURES = ("fcnn", "lenet5", "resnet")
FLAVOURS = ("rvnn", "cvnn", "scvnn")


def _scaled(values: Sequence[int], divider: float) -> Tuple[int, ...]:
    return tuple(max(1, int(math.ceil(v / divider))) for v in values)


def complex_trunk_widths(real_widths: Sequence[int], scale: float) -> Tuple[int, ...]:
    """Complex trunk widths given the real widths and the scheme's width scale.

    ``scale`` is 1.0 when the assignment gives no reduction, 0.5 for the
    lossless pairings and 1/3 for the lossy channel remapping.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError("width scale must be in (0, 1]")
    return tuple(max(1, int(math.ceil(w * scale))) for w in real_widths)


@dataclass
class ModelSpec:
    """Declarative description of one experiment model.

    Attributes
    ----------
    architecture:
        "fcnn", "lenet5" or "resnet".
    flavour:
        "rvnn", "cvnn" or "scvnn".
    input_shape:
        Shape ``(channels, height, width)`` of the *real* dataset images.
    num_classes:
        Number of target classes.
    assignment:
        Data-assignment scheme name; required for the SCVNN flavour, ignored
        (treated as "conventional") otherwise.
    decoder:
        Decoder head for the complex flavours.
    hidden_sizes:
        Hidden widths of the real FCNN (default (100,), the paper's FCNN).
    lenet_channels / lenet_hidden:
        Real LeNet-5 channel counts and classifier widths.
    depth / resnet_widths:
        ResNet depth (6n+2) and real stage widths.
    width_divider:
        Uniform width divider applied to every real width before the
        RVNN/CVNN/SCVNN sizing rules; used by the CPU-scale benchmark harness
        (1 = paper-size model).
    """

    architecture: str
    flavour: str
    input_shape: Tuple[int, int, int]
    num_classes: int
    assignment: Optional[str] = None
    decoder: str = "merge"
    hidden_sizes: Tuple[int, ...] = (100,)
    lenet_channels: Tuple[int, int] = (6, 16)
    lenet_hidden: Tuple[int, int] = (120, 84)
    lenet_kernel: int = 5
    lenet_padding: int = 0
    depth: int = 20
    resnet_widths: Tuple[int, int, int] = (16, 32, 64)
    width_divider: float = 1.0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}; choose from {ARCHITECTURES}")
        if self.flavour not in FLAVOURS:
            raise ValueError(f"unknown flavour {self.flavour!r}; choose from {FLAVOURS}")
        if self.flavour == "scvnn" and self.assignment is None:
            raise ValueError("the SCVNN flavour requires an assignment scheme")
        if self.width_divider < 1:
            raise ValueError("width_divider must be >= 1")

    # ------------------------------------------------------------------ #
    # derived geometry
    # ------------------------------------------------------------------ #
    def scheme(self) -> AssignmentScheme:
        """The data-assignment scheme this spec uses (conventional for RVNN/CVNN)."""
        if self.flavour == "scvnn":
            return get_scheme(self.assignment)
        return get_scheme("conventional")

    def complex_input_shape(self) -> Tuple[int, int, int]:
        """Shape of the complex image fed to the complex model."""
        return self.scheme().output_shape(self.input_shape)

    def real_widths(self) -> dict:
        """Architecture widths of the real model after the width divider."""
        return {
            "hidden_sizes": _scaled(self.hidden_sizes, self.width_divider),
            "lenet_channels": _scaled(self.lenet_channels, self.width_divider),
            "lenet_hidden": _scaled(self.lenet_hidden, self.width_divider),
            "resnet_widths": _scaled(self.resnet_widths, self.width_divider),
        }

    def channel_width_scale(self) -> float:
        """Width scale of convolution channels (and ResNet stage widths).

        Only channel-type assignments shrink CONV kernels; spatial assignments
        leave convolution widths untouched (Section III-B of the paper).
        """
        if self.flavour != "scvnn":
            return 1.0
        scheme = self.scheme()
        return scheme.trunk_width_scale if scheme.reduces_channels else 1.0

    def hidden_width_scale(self) -> float:
        """Width scale of fully connected hidden layers.

        Both channel and spatial assignments shrink the flattened features
        entering the classifier, so the FC hidden widths scale whenever the
        scheme reduces anything.
        """
        if self.flavour != "scvnn":
            return 1.0
        scheme = self.scheme()
        if scheme.reduces_channels or scheme.reduces_spatial:
            return scheme.trunk_width_scale
        return 1.0


def build_model(spec: ModelSpec, rng: Optional[np.random.Generator] = None) -> Module:
    """Instantiate the model described by ``spec``."""
    widths = spec.real_widths()
    if spec.architecture == "fcnn":
        return _build_fcnn(spec, widths, rng)
    if spec.architecture == "lenet5":
        return _build_lenet(spec, widths, rng)
    return _build_resnet(spec, widths, rng)


# --------------------------------------------------------------------------- #
# per-architecture builders
# --------------------------------------------------------------------------- #
def _build_fcnn(spec: ModelSpec, widths: dict, rng) -> Module:
    channels, height, width = spec.input_shape
    real_features = channels * height * width
    hidden = widths["hidden_sizes"]
    if spec.flavour == "rvnn":
        return RealFCNN(real_features, hidden, spec.num_classes, rng=rng)
    complex_channels, complex_height, complex_width = spec.complex_input_shape()
    complex_features = complex_channels * complex_height * complex_width
    complex_hidden = complex_trunk_widths(hidden, spec.hidden_width_scale())
    return ComplexFCNN(complex_features, complex_hidden, spec.num_classes,
                       decoder=spec.decoder, rng=rng)


def _build_lenet(spec: ModelSpec, widths: dict, rng) -> Module:
    channels, height, width = spec.input_shape
    conv_channels = widths["lenet_channels"]
    hidden = widths["lenet_hidden"]
    if spec.flavour == "rvnn":
        return RealLeNet5(in_channels=channels, num_classes=spec.num_classes,
                          image_size=(height, width), channels=conv_channels,
                          hidden_sizes=hidden, kernel_size=spec.lenet_kernel,
                          padding=spec.lenet_padding, rng=rng)
    complex_channels, complex_height, complex_width = spec.complex_input_shape()
    return ComplexLeNet5(in_channels=complex_channels, num_classes=spec.num_classes,
                         image_size=(complex_height, complex_width),
                         channels=complex_trunk_widths(conv_channels, spec.channel_width_scale()),
                         hidden_sizes=complex_trunk_widths(hidden, spec.hidden_width_scale()),
                         decoder=spec.decoder, kernel_size=spec.lenet_kernel,
                         padding=spec.lenet_padding, rng=rng)


def _build_resnet(spec: ModelSpec, widths: dict, rng) -> Module:
    channels, _height, _width = spec.input_shape
    stage_widths = widths["resnet_widths"]
    if spec.flavour == "rvnn":
        return RealResNet(depth=spec.depth, in_channels=channels,
                          num_classes=spec.num_classes, base_widths=stage_widths, rng=rng)
    complex_channels, _ch, _cw = spec.complex_input_shape()
    return ComplexResNet(depth=spec.depth, in_channels=complex_channels,
                         num_classes=spec.num_classes,
                         base_widths=complex_trunk_widths(stage_widths, spec.channel_width_scale()),
                         decoder=spec.decoder, rng=rng)
