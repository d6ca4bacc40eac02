"""Neural-network layers, losses and containers built on :mod:`repro.tensor`.

The real-valued layers here are used for the RVNN reference models of the
paper; the :mod:`repro.nn.complex` subpackage implements the complex-valued
(CVNN) and split complex-valued (SCVNN) layers that OplixNet deploys onto the
optical hardware.
"""

from repro.nn.module import Module, Parameter, Sequential, ModuleList
from repro.nn.linear import Linear, Identity, Flatten
from repro.nn.conv import Conv2d
from repro.nn.pooling import MaxPool2d, AvgPool2d, GlobalAvgPool2d
from repro.nn.activations import ReLU, LeakyReLU, Tanh, Sigmoid, Softmax
from repro.nn.normalization import BatchNorm2d, BatchNorm1d
from repro.nn.dropout import Dropout
from repro.nn.losses import DistillationLoss, cross_entropy, kl_divergence

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "ModuleList",
    "Linear",
    "Identity",
    "Flatten",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Softmax",
    "BatchNorm2d",
    "BatchNorm1d",
    "Dropout",
    "DistillationLoss",
    "cross_entropy",
    "kl_divergence",
]
