"""Pin tests of the one reference switch, ``REPRO_FORCE_REFERENCE``.

:func:`repro.reference.enabled` is the only reader of the variable, and
every switched fast path consults it: under the switch, spies show each
oracle actually running (seed im2col/col2im, the 4-real-op complex layers,
the composed batch-norm graph, the numpy mesh paths and the eager training
tape, for ``Trainer`` and ``MutualLearningTrainer`` alike).  The batch-norm
fast path is additionally pinned bit-identical to its composed reference.
"""

import io
import tokenize
from pathlib import Path

import numpy as np
import pytest

from repro import reference
from repro.assignment import get_scheme
from repro.core.config import TrainingConfig
from repro.core.distillation import MutualLearningTrainer
from repro.core.training import Trainer
from repro.data import DataLoader
from repro.data.dataset import ArrayDataset
from repro.models import ComplexFCNN, ComplexResNet
from repro.nn import BatchNorm1d, BatchNorm2d, normalization
from repro.nn.complex import ComplexConv2d, ComplexLinear, ComplexTensor, cfunctional
from repro.photonics import _native
from repro.photonics._native import build
from repro.tensor import Tensor, functional as F
from repro.tensor.tensor import trace_tape

SRC = Path(__file__).resolve().parents[1] / "src"


def _spy(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that counts its calls."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _forbid(monkeypatch, module, name):
    """Make ``module.name`` fail the test if anything calls it."""
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} ran under REPRO_FORCE_REFERENCE")

    monkeypatch.setattr(module, name, forbidden)


@pytest.fixture
def forced(monkeypatch):
    monkeypatch.setenv("REPRO_FORCE_REFERENCE", "1")
    return monkeypatch


class TestOneSwitch:
    @pytest.mark.parametrize("module,name", [
        (F, "_REFERENCE_MODE"),
        (F, "reference_kernels_enabled"),
        (F, "use_reference_kernels"),
        (normalization, "_COMPOSED_MODE"),
        (normalization, "use_composed_batch_norm"),
        (normalization, "composed_batch_norm_enabled"),
        (_native, "force_reference_enabled"),
        (build, "force_reference_enabled"),
        (build, "_env_truthy"),
    ])
    def test_deleted_gate_is_gone(self, module, name):
        assert not hasattr(module, name)
        assert name not in getattr(module, "__all__", ())

    def test_one_module_reads_the_variable(self):
        readers = set()
        for path in sorted(SRC.rglob("*.py")):
            tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            for token in tokens:
                if (token.type == tokenize.STRING
                        and token.string.strip("\"'") == "REPRO_FORCE_REFERENCE"):
                    readers.add(path.relative_to(SRC).as_posix())
        assert readers == {"repro/reference.py"}

    @pytest.mark.parametrize("value,expected", [
        (None, False), ("", False), ("0", False), ("false", False),
        ("No", False), ("off", False), ("1", True), ("yes", True), ("TRUE", True),
    ])
    def test_enabled_is_reread_per_call(self, monkeypatch, value, expected):
        if value is None:
            monkeypatch.delenv("REPRO_FORCE_REFERENCE", raising=False)
        else:
            monkeypatch.setenv("REPRO_FORCE_REFERENCE", value)
        assert reference.enabled() is expected
        assert _native.build_info()["forced_reference"] is expected


class TestRoutedOracles:
    def test_im2col_and_col2im(self, forced, rng):
        gathers = _spy(forced, F, "im2col_reference")
        scatters = _spy(forced, F, "col2im_reference")
        _forbid(forced, F, "_col2im_fast")
        x = rng.normal(size=(2, 3, 6, 6))
        columns, _ = F.im2col(x, (3, 3), (1, 1), (1, 1))
        F.col2im(columns, x.shape, (3, 3), (1, 1), (1, 1))
        assert gathers == ["im2col_reference"]
        assert scatters == ["col2im_reference"]

    def test_backward_closures_capture_the_reference_adjoint(self, forced, rng):
        scatters = _spy(forced, F, "col2im_reference")
        _forbid(forced, F, "_col2im_fast")
        x = Tensor(rng.normal(size=(2, 2, 8, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        out = F.conv2d(x, w, None, stride=1, padding=1)
        out = F.avg_pool2d(F.max_pool2d(out, 2), 2)
        forced.delenv("REPRO_FORCE_REFERENCE")  # captured at forward time
        out.sum().backward()
        assert len(scatters) == 3                # conv, max-pool, avg-pool

    def test_complex_layers(self, forced, rng):
        linear_calls = _spy(forced, cfunctional, "complex_linear_reference")
        conv_calls = _spy(forced, cfunctional, "complex_conv2d_reference")
        _forbid(forced, cfunctional, "complex_linear")
        _forbid(forced, cfunctional, "complex_conv2d")
        conv = ComplexConv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
        linear = ComplexLinear(4, 2, rng=np.random.default_rng(1))
        x = ComplexTensor(Tensor(rng.normal(size=(2, 2, 5, 5))),
                          Tensor(rng.normal(size=(2, 2, 5, 5))))
        conv(x)
        linear(ComplexTensor(Tensor(rng.normal(size=(3, 4))),
                             Tensor(rng.normal(size=(3, 4)))))
        assert conv_calls == ["complex_conv2d_reference"]
        assert linear_calls == ["complex_linear_reference"]

    def test_batch_norm_runs_the_composed_graph(self, forced, rng):
        _forbid(forced, F, "batch_norm")
        layer = BatchNorm2d(3)
        with trace_tape() as trace:
            layer(Tensor(rng.normal(size=(4, 3, 5, 5)), requires_grad=True))
        ops = [entry.op for entry in trace.entries]
        assert "batch_norm" not in ops
        assert {"mean", "var", "sqrt", "div"} <= set(ops)

    def test_native_kernel_is_off(self, forced):
        assert _native.kernel() is None

    def test_trainer_runs_the_eager_tape(self, forced):
        gathers = _spy(forced, F, "im2col_reference")
        _forbid(forced, F, "batch_norm")
        _forbid(forced, F, "_col2im_fast")
        rng = np.random.default_rng(3)
        labels = np.arange(16) % 2
        images = rng.normal(size=(16, 2, 16, 8))
        model = ComplexResNet(depth=8, in_channels=2, num_classes=2,
                              base_widths=(2, 4, 8), decoder="merge",
                              rng=np.random.default_rng(7))
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, scheme=get_scheme("SI"))
        trainer.fit(DataLoader(ArrayDataset(images, labels, num_classes=2),
                               batch_size=8, shuffle=False))
        stats = trainer.plan_stats
        assert stats["enabled"] is False
        assert stats["compiled"] == 0
        assert stats["fallback_reason"] is None
        assert gathers                           # the seed kernels trained it
        forced.delenv("REPRO_FORCE_REFERENCE")
        assert trainer.plan_stats["enabled"] is True

    def test_mutual_learning_runs_the_eager_step(self, forced):
        eager_steps = _spy(forced, MutualLearningTrainer, "_mutual_step")
        _forbid(forced, MutualLearningTrainer, "_planned_step")
        _forbid(forced, MutualLearningTrainer, "_trace_step")
        rng = np.random.default_rng(3)
        labels = np.arange(16) % 2
        images = rng.normal(size=(16, 1, 6, 6))
        student = ComplexFCNN(18, (6,), 2, rng=np.random.default_rng(7))
        teacher = ComplexFCNN(36, (8,), 2, decoder="photodiode",
                              rng=np.random.default_rng(8))
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        trainer = MutualLearningTrainer(student, teacher, config,
                                        student_scheme=get_scheme("SI"))
        trainer.fit(DataLoader(ArrayDataset(images, labels, num_classes=2),
                               batch_size=8, shuffle=False))
        assert eager_steps == ["_mutual_step"] * 2
        stats = trainer.plan_stats
        assert stats["enabled"] is False
        assert stats["compiled"] == 0
        forced.delenv("REPRO_FORCE_REFERENCE")
        assert trainer.plan_stats["enabled"] is True


class TestBatchNormPinnedToComposed:
    """The fused batch-norm node is bit-identical to the composed graph."""

    @pytest.mark.parametrize("layer_cls,shape", [
        (BatchNorm1d, (6, 4)),
        (BatchNorm2d, (3, 4, 5, 5)),
    ])
    @pytest.mark.parametrize("affine", [True, False])
    def test_outputs_gradients_and_buffers(self, monkeypatch, layer_cls, shape,
                                           affine):
        data_rng = np.random.default_rng(11)
        x = data_rng.normal(1.0, 2.0, size=shape)
        upstream = data_rng.normal(size=shape)

        def run(forced):
            if forced:
                monkeypatch.setenv("REPRO_FORCE_REFERENCE", "1")
            else:
                monkeypatch.delenv("REPRO_FORCE_REFERENCE", raising=False)
            layer = layer_cls(shape[1], momentum=0.3, affine=affine)
            if affine:
                layer.weight.data[...] = data_rng.normal(size=shape[1])
                layer.bias.data[...] = data_rng.normal(size=shape[1])
            inputs = Tensor(x.copy(), requires_grad=True)
            results = {}
            for step in range(2):               # buffers update twice
                out = layer(inputs)
                (out * Tensor(upstream)).sum().backward()
                results[f"out{step}"] = out.data.copy()
            results["grad_input"] = inputs.grad.copy()
            if affine:
                results["grad_weight"] = layer.weight.grad.copy()
                results["grad_bias"] = layer.bias.grad.copy()
            results["running_mean"] = layer.running_mean.copy()
            results["running_var"] = layer.running_var.copy()
            return results

        state = data_rng.bit_generator.state
        fused = run(forced=False)
        data_rng.bit_generator.state = state
        composed = run(forced=True)
        assert fused.keys() == composed.keys()
        for name, value in fused.items():
            assert np.array_equal(value, composed[name]), name
