"""Configuration objects for training runs and experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass
class TrainingConfig:
    """Hyper-parameters of one training run.

    Only the schedule's size, the learning rate, the distillation mixing
    factor and the seed vary between runs.  The rest of the recipe is fixed
    by the trainers: SGD with momentum 0.9 and weight decay 1e-4, the cosine
    learning-rate schedule over ``epochs``, global gradient-norm clipping at
    5.0 (:class:`~repro.core.training.Trainer`) and KD temperature 2.0
    (:class:`~repro.core.distillation.MutualLearningTrainer`).  The defaults
    are CPU-scale; the paper's GPU-scale schedules simply use more epochs and
    larger batches with the same structure.
    """

    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.05
    #: knowledge-distillation mixing factor alpha of Eqs. (3)/(4); the paper uses 1.0
    distillation_alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.distillation_alpha < 0:
            raise ValueError("distillation_alpha must be non-negative")


@dataclass
class ExperimentConfig:
    """Top-level description of one OplixNet experiment.

    Combines the model architecture, the dataset stand-in, the data assignment
    scheme, the decoder and the training schedule.  The experiment harnesses in
    :mod:`repro.experiments` construct these for every table/figure entry.
    """

    name: str
    architecture: str = "fcnn"
    dataset: str = "mnist"              # "mnist", "cifar10" or "cifar100"
    num_classes: int = 10
    image_size: Tuple[int, int] = (28, 28)
    channels: int = 1
    assignment: str = "SI"
    decoder: str = "merge"
    depth: int = 20
    width_divider: float = 1.0
    #: LeNet convolution geometry; the paper uses 5x5 valid convolutions, the
    #: CPU-scale presets switch to 3x3 "same" so small images remain usable
    lenet_kernel: int = 5
    lenet_padding: int = 0
    train_samples: int = 1500
    test_samples: int = 300
    training: TrainingConfig = field(default_factory=TrainingConfig)
    teacher_depth: Optional[int] = None   # e.g. 56 for the ResNet teachers
    seed: int = 0

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        return (self.channels, *self.image_size)
