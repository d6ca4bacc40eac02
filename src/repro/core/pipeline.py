"""End-to-end OplixNet pipeline (the workflow of Fig. 2).

:class:`OplixNet` ties the pieces together for one experiment configuration:

1. generate the dataset stand-in,
2. build the SCVNN student (with its data-assignment scheme and decoder), the
   CVNN teacher and the reference models,
3. train with SCVNN-CVNN mutual learning (or plain cross-entropy),
4. report accuracy, the MZI area comparison against the conventional ONN, and
5. optionally deploy the trained FCNN student onto the simulated photonic
   circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.assignment import AssignmentScheme, get_scheme
from repro.core.area_analysis import compare_area, model_area_report
from repro.core.compile import CompiledProgram, HardwareTarget
from repro.core.compile import compile as compile_model
from repro.core.config import ExperimentConfig
from repro.core.distillation import MutualLearningResult, MutualLearningTrainer
from repro.core.training import Trainer, TrainingHistory, evaluate_accuracy
from repro.data import ArrayDataset, DataLoader, synthetic_cifar10, synthetic_cifar100, synthetic_mnist
from repro.nn.module import Module


@dataclass
class PipelineResult:
    """Everything the pipeline produces for one configuration."""

    student_accuracy: float
    teacher_accuracy: Optional[float]
    rvnn_accuracy: Optional[float]
    baseline_accuracy: Optional[float]
    area: Dict[str, float]
    student_history: Optional[TrainingHistory] = None
    mutual_result: Optional[MutualLearningResult] = None


class OplixNet:
    """The OplixNet framework driver for a single experiment configuration."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._datasets: Optional[Tuple[ArrayDataset, ArrayDataset]] = None

    # ------------------------------------------------------------------ #
    # data
    # ------------------------------------------------------------------ #
    def datasets(self) -> Tuple[ArrayDataset, ArrayDataset]:
        """Build (and cache) the train/test datasets for this configuration."""
        if self._datasets is None:
            cfg = self.config
            height, width = cfg.image_size
            if cfg.dataset == "mnist":
                self._datasets = synthetic_mnist(height=height, width=width,
                                                 train_samples=cfg.train_samples,
                                                 test_samples=cfg.test_samples,
                                                 num_classes=cfg.num_classes, seed=cfg.seed)
            elif cfg.dataset == "cifar10":
                self._datasets = synthetic_cifar10(height=height, width=width,
                                                   train_samples=cfg.train_samples,
                                                   test_samples=cfg.test_samples, seed=cfg.seed)
            elif cfg.dataset == "cifar100":
                self._datasets = synthetic_cifar100(height=height, width=width,
                                                    train_samples=cfg.train_samples,
                                                    test_samples=cfg.test_samples,
                                                    num_classes=cfg.num_classes, seed=cfg.seed)
            else:
                raise ValueError(f"unknown dataset {cfg.dataset!r}")
        return self._datasets

    def loaders(self) -> Tuple[DataLoader, DataLoader]:
        train, test = self.datasets()
        cfg = self.config
        train_loader = DataLoader(train, batch_size=cfg.training.batch_size, shuffle=True,
                                  rng=np.random.default_rng(cfg.training.seed))
        test_loader = DataLoader(test, batch_size=cfg.training.batch_size, shuffle=False)
        return train_loader, test_loader

    # ------------------------------------------------------------------ #
    # model construction
    # ------------------------------------------------------------------ #
    def _spec(self, flavour: str, assignment: Optional[str] = None,
              decoder: Optional[str] = None, depth: Optional[int] = None):
        from repro.models import ModelSpec  # imported lazily to avoid a cycle

        cfg = self.config
        return ModelSpec(
            architecture=cfg.architecture,
            flavour=flavour,
            input_shape=cfg.input_shape,
            num_classes=cfg.num_classes,
            assignment=assignment,
            decoder=decoder if decoder is not None else cfg.decoder,
            depth=depth if depth is not None else cfg.depth,
            width_divider=cfg.width_divider,
            lenet_kernel=cfg.lenet_kernel,
            lenet_padding=cfg.lenet_padding,
        )

    @staticmethod
    def _build(spec, rng) -> Module:
        from repro.models import build_model  # imported lazily to avoid a cycle

        return build_model(spec, rng=rng)

    def build_student(self) -> Module:
        """The proposed SCVNN with the configured assignment and decoder."""
        return self._build(self._spec("scvnn", assignment=self.config.assignment),
                           np.random.default_rng(self.config.seed + 1))

    def build_teacher(self) -> Module:
        """The CVNN mutual-learning teacher (larger depth when configured)."""
        return self._build(self._spec("cvnn", decoder="photodiode",
                                      depth=self.config.teacher_depth),
                           np.random.default_rng(self.config.seed + 2))

    def build_baseline_cvnn(self) -> Module:
        """The conventional ONN baseline ("Orig." of Table II)."""
        return self._build(self._spec("cvnn", decoder="photodiode"),
                           np.random.default_rng(self.config.seed + 3))

    def build_rvnn(self) -> Module:
        """The real-valued software reference."""
        return self._build(self._spec("rvnn"),
                           np.random.default_rng(self.config.seed + 4))

    def student_scheme(self) -> AssignmentScheme:
        return get_scheme(self.config.assignment)

    # ------------------------------------------------------------------ #
    # training entry points
    # ------------------------------------------------------------------ #
    def train_student(self, mutual_learning: bool = True, verbose: bool = False):
        """Train the SCVNN (optionally with CVNN mutual learning).

        Returns ``(student model, history-or-mutual-result)``.
        """
        train_loader, test_loader = self.loaders()
        student = self.build_student()
        if mutual_learning:
            teacher = self.build_teacher()
            trainer = MutualLearningTrainer(student, teacher, self.config.training,
                                            student_scheme=self.student_scheme())
            result = trainer.fit(train_loader, test_loader, verbose=verbose)
            return student, result
        trainer = Trainer(student, self.config.training, scheme=self.student_scheme())
        history = trainer.fit(train_loader, test_loader, verbose=verbose)
        return student, history

    def train_reference(self, flavour: str, verbose: bool = False):
        """Train one of the reference models ("rvnn" or "cvnn") without distillation."""
        train_loader, test_loader = self.loaders()
        if flavour == "rvnn":
            model, scheme = self.build_rvnn(), None
        elif flavour == "cvnn":
            model, scheme = self.build_baseline_cvnn(), get_scheme("conventional")
        else:
            raise ValueError("flavour must be 'rvnn' or 'cvnn'")
        trainer = Trainer(model, self.config.training, scheme=scheme)
        history = trainer.fit(train_loader, test_loader, verbose=verbose)
        return model, history

    # ------------------------------------------------------------------ #
    # analysis / deployment
    # ------------------------------------------------------------------ #
    def area_summary(self) -> Dict[str, float]:
        """MZI area of the proposed SCVNN versus the conventional ONN baseline."""
        return compare_area(self.build_student(), self.build_baseline_cvnn())

    def run(self, mutual_learning: bool = True, train_references: bool = False,
            verbose: bool = False) -> PipelineResult:
        """Run the full pipeline and gather every headline number."""
        _train_loader, test_loader = self.loaders()
        student, outcome = self.train_student(mutual_learning=mutual_learning, verbose=verbose)
        student_accuracy = evaluate_accuracy(student, test_loader, self.student_scheme())

        teacher_accuracy = None
        history = None
        mutual = None
        if isinstance(outcome, MutualLearningResult):
            mutual = outcome
            teacher_accuracy = outcome.teacher_test_accuracy
        else:
            history = outcome

        rvnn_accuracy = None
        baseline_accuracy = None
        if train_references:
            _rvnn_model, rvnn_history = self.train_reference("rvnn", verbose=verbose)
            rvnn_accuracy = rvnn_history.final_test_accuracy
            _cvnn_model, cvnn_history = self.train_reference("cvnn", verbose=verbose)
            baseline_accuracy = cvnn_history.final_test_accuracy

        return PipelineResult(
            student_accuracy=student_accuracy,
            teacher_accuracy=teacher_accuracy,
            rvnn_accuracy=rvnn_accuracy,
            baseline_accuracy=baseline_accuracy,
            area=self.area_summary(),
            student_history=history,
            mutual_result=mutual,
        )

    def deploy(self, student: Module, method: str = "clements") -> CompiledProgram:
        """Compile a trained student onto the simulated photonic circuit.

        Routes through :func:`repro.compile`, so fully connected,
        convolutional and residual students all deploy.
        """
        return compile_model(student, target=HardwareTarget(method=method))
