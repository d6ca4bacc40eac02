"""Tests of the compiled training step (tape-to-plan lowering).

The contract under test: a :class:`~repro.core.training.Trainer` with
``compile_train_step=True`` must produce **bit-identical** training
trajectories to the eager tape — same per-epoch losses, same final
parameters, same batch-norm running buffers — while actually replaying a
compiled plan (not silently falling back to eager).
"""

import numpy as np
import pytest

from repro.assignment import get_scheme
from repro.core.config import TrainingConfig
from repro.core.decoders import build_decoder_head
from repro.core.train_plan import (PlanUnsupported, _conv_input_gradient,
                                   _conv_scratch, compile_train_step)
from repro.core.training import Trainer, prepare_batch
from repro.data import DataLoader
from repro.data.dataset import ArrayDataset
from repro.models import ComplexFCNN, ComplexLeNet5, ComplexResNet
from repro.nn import Dropout, Linear, Module, ReLU, Sequential
from repro.nn.complex import ComplexConv2d, ComplexLinear, CReLU
from repro.nn.complex.cfunctional import _unpack_pair
from repro.nn.losses import cross_entropy
from repro.optim import SGD
from repro.tensor import Tensor, no_grad, ops
from repro.tensor import functional as F
from repro.tensor.random import seed_all
from repro.tensor.tensor import mark_trace_input, trace_tape


@pytest.fixture(autouse=True)
def _fast_kernels(monkeypatch):
    """The plan contract is stated over the fast kernels.

    Under ``REPRO_FORCE_REFERENCE`` every trainer runs the eager tape, so
    the forced-reference leg would have no plan to compare against.
    """
    monkeypatch.delenv("REPRO_FORCE_REFERENCE", raising=False)


def flat_dataset(rng):
    samples, height, width = 60, 6, 6
    labels = np.arange(samples) % 2
    images = rng.normal(0.0, 0.4, size=(samples, 1, height, width))
    images[labels == 1, :, :3, :] += 1.2
    images[labels == 0, :, 3:, :] += 1.2
    return ArrayDataset(images, labels, num_classes=2)


def image_dataset(rng):
    samples = 40
    labels = np.arange(samples) % 2
    images = rng.normal(0.0, 0.4, size=(samples, 2, 32, 16))
    images[labels == 1, :, :16] += 1.0
    return ArrayDataset(images, labels, num_classes=2)


class _SharedComplexLinear(Module):
    """One ComplexLinear applied twice: its weight and bias gradients accumulate."""

    def __init__(self, rng):
        super().__init__()
        self.shared = ComplexLinear(18, 18, rng=rng)
        self.activation = CReLU()
        self.head = build_decoder_head("merge", 18, 2, rng=rng)

    def forward(self, inputs):
        hidden = self.activation(self.shared(inputs.flatten(start_dim=1)))
        return self.head(self.shared(hidden))


class _FanOutComplexLinear(Module):
    """One activation feeds two ComplexLinears: its input gradient accumulates."""

    def __init__(self, rng):
        super().__init__()
        self.encoder = ComplexLinear(18, 12, rng=rng)
        self.activation = CReLU()
        self.left = ComplexLinear(12, 8, rng=rng)
        self.right = ComplexLinear(12, 8, bias=False, rng=rng)
        self.head = build_decoder_head("merge", 8, 2, rng=rng)

    def forward(self, inputs):
        hidden = self.activation(self.encoder(inputs.flatten(start_dim=1)))
        return self.head(self.left(hidden) + self.right(hidden))


#: models trained on the flat 6x6 dataset (18 complex features under SI)
FLAT_MODELS = ("fcnn", "shared_linear", "fanout_linear")


def build_model(name):
    rng = np.random.default_rng(7)
    if name == "fcnn":
        return ComplexFCNN(18, (12,), 2, decoder="merge", rng=rng)
    if name == "shared_linear":
        return _SharedComplexLinear(rng)
    if name == "fanout_linear":
        return _FanOutComplexLinear(rng)
    if name == "lenet":
        return ComplexLeNet5(in_channels=2, num_classes=2, image_size=(16, 16),
                             channels=(3, 8), hidden_sizes=(30, 21),
                             kernel_size=3, padding=1, rng=rng)
    return ComplexResNet(depth=8, in_channels=2, num_classes=2,
                         base_widths=(2, 4, 8), decoder="merge", rng=rng)


def fit_once(name, compiled, optimizer="sgd", scheduler="none", epochs=2):
    """One full training run from a fixed seed; returns (model, trainer, history)."""
    seed_all(0)
    rng = np.random.default_rng(1234)
    dataset = flat_dataset(rng) if name in FLAT_MODELS else image_dataset(rng)
    model = build_model(name)
    config = TrainingConfig(epochs=epochs, batch_size=16, learning_rate=0.05,
                            optimizer=optimizer, scheduler=scheduler, seed=0)
    trainer = Trainer(model, config, scheme=get_scheme("SI"),
                      compile_train_step=compiled)
    loader = DataLoader(dataset, batch_size=16, shuffle=True,
                        rng=np.random.default_rng(0))
    history = trainer.fit(loader)
    return model, trainer, history


def assert_state_dicts_equal(eager_model, planned_model):
    eager_state = eager_model.state_dict()
    planned_state = planned_model.state_dict()
    assert eager_state.keys() == planned_state.keys()
    mismatched = [key for key in eager_state
                  if not np.array_equal(np.asarray(eager_state[key]),
                                        np.asarray(planned_state[key]))]
    assert not mismatched, f"state diverged at {mismatched}"


class TestTrajectoryParity:
    """Planned and eager runs must be bit-identical, not merely close."""

    @pytest.mark.parametrize("name,optimizer", [
        ("fcnn", "sgd"),
        ("lenet", "sgd"),
        ("lenet", "adam"),
        # padded 3x3 and unpadded 1x1 convs share the arena's padded image:
        # a border left stale by another conv would break these two
        ("resnet", "sgd"),
        ("resnet", "adam"),
    ])
    def test_multi_epoch_trajectory_is_bit_identical(self, name, optimizer):
        eager_model, _, eager_history = fit_once(name, False, optimizer)
        planned_model, planned_trainer, planned_history = fit_once(name, True, optimizer)
        stats = planned_trainer.plan_stats
        assert stats["fallback_reason"] is None
        assert stats["compiled"] >= 1
        # exact float equality: the plan replays the same instruction stream
        assert planned_history.train_loss == eager_history.train_loss
        assert planned_history.train_accuracy == eager_history.train_accuracy
        # state_dict covers parameters AND batch-norm running buffers
        assert_state_dicts_equal(eager_model, planned_model)

    @pytest.mark.parametrize("name,specialized", [
        ("shared_linear", 3),  # both uses of the layer and the merge head
        ("fanout_linear", 4),  # encoder, both branches and the merge head
    ])
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_accumulated_complex_linear_gradients_are_bit_identical(
            self, name, specialized, optimizer):
        eager_model, _, eager_history = fit_once(name, False, optimizer)
        planned_model, planned_trainer, planned_history = fit_once(name, True, optimizer)
        stats = planned_trainer.plan_stats
        assert stats["fallback_reason"] is None
        assert stats["compiled"] >= 1
        # every complex-linear backward, accumulating ones included, writes
        # into its gradient slots instead of copying the closure's results
        for plan_stats in stats["plans"].values():
            assert plan_stats["specialized_backward"] == specialized
        assert planned_history.train_loss == eager_history.train_loss
        assert planned_history.train_accuracy == eager_history.train_accuracy
        assert_state_dicts_equal(eager_model, planned_model)

    @pytest.mark.parametrize("name,shape", [
        # forward, backward, fused activations, specialized backward
        ("fcnn", (18, 24, 2, 2)),
        ("lenet", (25, 45, 8, 5)),
        ("resnet", (50, 86, 14, 28)),
    ])
    def test_plan_shape_is_pinned(self, name, shape):
        _, trainer, _ = fit_once(name, True, epochs=1)
        plans = trainer.plan_stats["plans"]
        assert len(plans) == 2  # the full and the tail batch
        for plan_stats in plans.values():
            assert (plan_stats["forward_instructions"],
                    plan_stats["backward_instructions"],
                    plan_stats["fused_activations"],
                    plan_stats["specialized_backward"]) == shape

    def test_tail_batch_gets_its_own_plan(self):
        # 40 samples at batch 16 -> shapes (16, ...) and (8, ...): two plans
        _, trainer, _ = fit_once("lenet", True)
        assert trainer.plan_stats["compiled"] == 2
        for plan_stats in trainer.plan_stats["plans"].values():
            assert plan_stats["forward_instructions"] > 0
            assert plan_stats["backward_instructions"] > 0

    def test_plan_uses_specialized_kernels(self):
        _, trainer, _ = fit_once("resnet", True, epochs=1)
        plans = trainer.plan_stats["plans"]
        assert plans
        for plan_stats in plans.values():
            # conv / linear / batch-norm backwards lower to dedicated builders
            assert plan_stats["specialized_backward"] > 0
            # each relu fuses into the instruction producing its input
            assert plan_stats["fused_activations"] > 0
            assert plan_stats["parameter_gradients"] > 0


class TestScratchArena:
    """Per-instruction temporaries live in one arena per plan."""

    def test_resnet_mixes_padded_and_unpadded_convs(self):
        geometries = {(module.kernel_size, module.padding)
                      for _name, module in build_model("resnet").named_modules()
                      if isinstance(module, ComplexConv2d)}
        assert {((3, 3), (1, 1)), ((1, 1), (0, 0))} <= geometries

    def test_scratch_does_not_grow_with_depth(self):
        rng = np.random.default_rng(1234)
        loader = DataLoader(image_dataset(rng), batch_size=16, shuffle=False)
        config = TrainingConfig(epochs=1, batch_size=16, learning_rate=0.05, seed=0)
        scratch = {}
        for depth in (8, 14):
            model = ComplexResNet(depth=depth, in_channels=2, num_classes=2,
                                  base_widths=(2, 4, 8), decoder="merge",
                                  rng=np.random.default_rng(7))
            trainer = Trainer(model, config, scheme=get_scheme("SI"))
            trainer.fit(loader)
            stats = trainer.plan_stats
            assert stats["compiled"] == 2
            assert stats["scratch_bytes"] == sum(
                plan["scratch_bytes"] for plan in stats["plans"].values())
            scratch[depth] = stats["scratch_bytes"]
        # deeper stages repeat the same geometries: the arena stays the size
        # of the largest layer's temporaries
        assert scratch[8] > 0
        assert scratch[14] == scratch[8]


class TestPlannedGradients:
    """The plan's backward pass must agree with finite differences."""

    def _compiled_plan(self):
        seed_all(0)
        rng = np.random.default_rng(1234)
        model = ComplexFCNN(18, (12,), 2, decoder="merge", rng=rng)
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, scheme=get_scheme("SI"),
                          compile_train_step=True)
        trainer.optimizer.lr = 0.0  # keep the parameters frozen at the trace point
        images = rng.normal(size=(8, 1, 6, 6))
        labels = rng.integers(0, 2, size=8)
        trainer.model.train()
        trainer.train_step(images, labels)  # trace + compile
        assert trainer.plan_stats["compiled"] == 1, trainer.plan_stats
        plan = next(iter(trainer._plans.values()))
        inputs = trainer._plan_inputs(images, labels, plan.input_meta)
        return model, plan, inputs

    def test_execute_without_update_leaves_grads_bound(self):
        model, plan, inputs = self._compiled_plan()
        before = {name: parameter.data.copy()
                  for name, parameter in model.named_parameters()}
        plan.execute(inputs, update=False)
        for name, parameter in model.named_parameters():
            assert parameter.grad is not None, name
            assert parameter.grad.shape == parameter.data.shape
            assert np.array_equal(parameter.data, before[name]), name
        # the grad buffers are persistent: re-executing rebinds the same arrays
        bound = {name: parameter.grad for name, parameter in model.named_parameters()}
        plan.execute(inputs, update=False)
        for name, parameter in model.named_parameters():
            assert parameter.grad is bound[name], name

    def test_planned_backward_matches_finite_differences(self):
        model, plan, inputs = self._compiled_plan()
        loss, _ = plan.execute(inputs, update=False)
        assert np.isfinite(loss)
        analytic = {name: parameter.grad.copy()
                    for name, parameter in model.named_parameters()}
        step = 1e-6
        rng = np.random.default_rng(3)
        for name, parameter in model.named_parameters():
            flat = parameter.data.reshape(-1)
            for index in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                original = flat[index]
                flat[index] = original + step
                loss_plus, _ = plan.execute(inputs, update=False)
                flat[index] = original - step
                loss_minus, _ = plan.execute(inputs, update=False)
                flat[index] = original
                numeric = (loss_plus - loss_minus) / (2.0 * step)
                expected = analytic[name].reshape(-1)[index]
                assert numeric == pytest.approx(expected, rel=1e-4, abs=1e-6), name


class TestPlanCol2im:
    """The per-channel conv input gradient equals eager ``col2im(W.T @ G)`` exactly."""

    @pytest.mark.parametrize("limit", [0, np.inf], ids=["shifted", "bincount"])
    @pytest.mark.parametrize("in_channels,out_channels,size,kernel,stride,padding", [
        (4, 4, (16, 32), (3, 3), (1, 1), (1, 1)),   # ResNet-8 stage 0
        (4, 8, (16, 32), (3, 3), (2, 2), (1, 1)),   # ResNet-8 strided stage entry
        (4, 8, (16, 32), (1, 1), (2, 2), (0, 0)),   # ResNet-8 strided 1x1 shortcut
        (3, 3, (16, 32), (5, 5), (1, 1), (0, 0)),   # LeNet-5 student conv1
        (3, 8, (6, 14), (5, 5), (1, 1), (0, 0)),    # LeNet-5 student conv2
        (6, 16, (14, 14), (5, 5), (1, 1), (0, 0)),  # LeNet-5 teacher conv2
        (5, 3, (7, 9), (3, 2), (2, 1), (1, 0)),     # odd channels, uneven geometry
        (3, 2, (8, 8), (1, 1), (1, 1), (0, 0)),     # odd channels, 1x1 pairs span planes
        (2, 4, (8, 8), (2, 2), (2, 2), (0, 0)),     # eager: exact-tiling permutation
    ], ids=["resnet-3x3", "resnet-3x3-s2", "resnet-1x1-s2", "lenet-conv1",
            "lenet-conv2", "lenet-teacher", "odd-uneven", "odd-1x1", "tiling"])
    def test_matches_eager_col2im(self, monkeypatch, limit, in_channels, out_channels,
                                  size, kernel, stride, padding):
        # the eager adjoint scatters through bincount below the block limit
        # and by shifted accumulation above it: pin each strategy in turn
        monkeypatch.setattr(F, "COL2IM_BINCOUNT_BLOCK_LIMIT", limit)
        batch, stacked = 64, 2 * in_channels
        stacked_shape = (batch, stacked) + size
        out_h, out_w = F._checked_output_size(stacked_shape, kernel, stride, padding)
        patch = in_channels * kernel[0] * kernel[1]
        params = {"stacked_shape": stacked_shape, "kernel": kernel,
                  "padding": padding, "out_hw": (out_h, out_w),
                  "out_channels": out_channels, "patch": patch}
        shapes = _conv_scratch(params)
        tile, accumulator = np.empty(shapes["tile"]), np.empty(shapes["accumulator"])
        rng = np.random.default_rng(0)
        w_block = np.empty((2 * out_channels, 2 * patch))
        grad_matrix = np.empty((2 * out_channels, out_h * out_w * batch))
        gradient = np.empty(stacked_shape)
        # the real plane is a first write, the imaginary plane accumulates
        destinations = [(gradient[:, channel], channel < in_channels)
                        for channel in range(stacked)]
        run = _conv_input_gradient(w_block, grad_matrix, tile, accumulator,
                                   stacked_shape, kernel, stride, padding,
                                   destinations)
        for _ in range(2):
            w_block[...] = rng.normal(size=w_block.shape)
            grad_matrix[...] = rng.normal(size=grad_matrix.shape)
            base = rng.normal(size=(batch, in_channels) + size)
            gradient[:, in_channels:] = base
            # stale scratch contents must never reach the result
            tile.fill(np.nan)
            accumulator.fill(np.nan)
            run()
            expected = F.col2im(w_block.T @ grad_matrix, stacked_shape, kernel,
                                stride, padding)
            assert np.array_equal(gradient[:, :in_channels], expected[:, :in_channels])
            assert np.array_equal(gradient[:, in_channels:],
                                  base + expected[:, in_channels:])


class TestForwardFinishSplit:
    """``execute`` is ``forward`` (to the logits) followed by ``finish``."""

    def test_forward_returns_the_logits_and_finish_completes_the_step(self, rng):
        seed_all(0)
        model = ComplexFCNN(18, (12,), 2, decoder="merge",
                            rng=np.random.default_rng(7))
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, scheme=get_scheme("SI"))
        images = rng.normal(size=(8, 1, 6, 6))
        labels = rng.integers(0, 2, size=8)
        trainer.model.train()
        trainer.train_step(images, labels)               # trace + compile
        plan = next(iter(trainer._plans.values()))
        assert plan.stats["loss_tail_instructions"] > 0
        inputs = trainer._plan_inputs(images, labels, plan.input_meta)
        with no_grad():
            expected = model(prepare_batch(images, get_scheme("SI"))).data
        assert np.array_equal(plan.forward(inputs), expected)
        split_loss, _ = plan.finish({}, update=False)
        whole_loss, _ = plan.execute(inputs, update=False)
        assert split_loss == whole_loss

    def test_late_input_before_the_logits_is_rejected(self, rng):
        model = Linear(3, 2, rng=np.random.default_rng(7))
        optimizer = SGD(model.parameters(), lr=0.1)
        with trace_tape() as trace:
            inputs = Tensor(rng.normal(size=(4, 3)))
            mark_trace_input(inputs, "input")
            peer = Tensor(rng.normal(size=(4, 2)))
            mark_trace_input(peer, "kl_peer_probs", {"late": True})
            logits = model(inputs) + peer
            loss = cross_entropy(logits, np.array([0, 1, 1, 0]))
        loss.backward()
        with pytest.raises(PlanUnsupported, match="late input 'kl_peer_probs'"):
            compile_train_step(trace, loss, logits, optimizer)

    def test_reference_switch_refuses_to_compile(self, monkeypatch, rng):
        # under the reference switch every step runs on the eager tape, so
        # a plan would never run: the compiler refuses instead of lowering
        model = Linear(3, 2, rng=np.random.default_rng(7))
        optimizer = SGD(model.parameters(), lr=0.1)
        with trace_tape() as trace:
            inputs = Tensor(rng.normal(size=(4, 3)))
            mark_trace_input(inputs, "input")
            logits = model(inputs)
            loss = cross_entropy(logits, np.array([0, 1, 1, 0]))
        loss.backward()
        monkeypatch.setenv("REPRO_FORCE_REFERENCE", "1")
        with pytest.raises(PlanUnsupported, match="REPRO_FORCE_REFERENCE"):
            compile_train_step(trace, loss, logits, optimizer)


_MATRIX = np.random.default_rng(5).normal(size=(3, 5))
_KERNEL = np.random.default_rng(6).normal(size=(3, 2, 3, 3))

#: one minimal step per op the plan replays: ``(id, input shape, positive
#: inputs, op)``, where ``op(h, x)`` builds the op's node from the
#: parameter-scaled input ``h = w * x`` and the marked input ``x``
REPLAYED_OPS = [
    ("add", (4, 3), False, lambda h, x: h + x),
    ("sub", (4, 3), False, lambda h, x: h - x),
    ("mul", (4, 3), False, lambda h, x: h * x),
    ("div", (4, 3), True, lambda h, x: h / x),
    ("maximum", (4, 3), False, lambda h, x: ops.maximum(h, x)),
    ("neg", (4, 3), False, lambda h, x: -h),
    ("exp", (4, 3), False, lambda h, x: ops.exp(h)),
    ("log", (4, 3), True, lambda h, x: ops.log(h)),
    ("sqrt", (4, 3), True, lambda h, x: ops.sqrt(h)),
    ("abs", (4, 3), False, lambda h, x: ops.abs(h)),
    ("tanh", (4, 3), False, lambda h, x: ops.tanh(h)),
    ("sin", (4, 3), False, lambda h, x: ops.sin(h)),
    ("cos", (4, 3), False, lambda h, x: ops.cos(h)),
    ("sigmoid", (4, 3), False, lambda h, x: ops.sigmoid(h)),
    ("relu", (4, 3), False, lambda h, x: ops.relu(h)),
    ("leaky_relu", (4, 3), False, lambda h, x: ops.leaky_relu(h, 0.1)),
    ("power", (4, 3), True, lambda h, x: h ** 1.5),
    ("clip", (4, 3), False, lambda h, x: ops.clip(h, -0.3, 0.4)),
    ("matmul", (4, 3), False, lambda h, x: h @ Tensor(_MATRIX)),
    ("sum", (4, 3), False, lambda h, x: ops.sum(h, axis=1)),
    ("mean", (4, 3), False, lambda h, x: ops.mean(h, axis=0, keepdims=True)),
    ("var", (4, 3), False, lambda h, x: ops.var(h, axis=1)),
    ("max", (4, 3), False, lambda h, x: ops.max(h, axis=1)),
    ("min", (4, 3), False, lambda h, x: ops.min(h, axis=0, keepdims=True)),
    ("logsumexp", (4, 3), False, lambda h, x: ops.logsumexp(h, axis=1)),
    ("logsumexp-keepdims", (4, 3), False,
     lambda h, x: ops.logsumexp(h, axis=-1, keepdims=True)),
    ("reshape", (4, 3), False, lambda h, x: h.reshape(12)),
    ("reshape-copy", (4, 3), False, lambda h, x: h.T.reshape(12)),
    ("transpose", (4, 3), False, lambda h, x: h.transpose(1, 0)),
    ("getitem", (4, 3), False, lambda h, x: h[1:3, ::2]),
    ("getitem-advanced", (4, 3), False, lambda h, x: h[np.array([2, 0, 2])]),
    ("pick", (2, 4, 3), False, lambda h, x: _unpack_pair(h).imag),
    ("concatenate", (4, 3), False, lambda h, x: ops.concatenate([h, x], axis=1)),
    ("stack", (4, 3), False, lambda h, x: ops.stack([x, h], axis=1)),
    ("pad", (4, 3), False, lambda h, x: ops.pad(h, ((1, 0), (0, 2)), 0.5)),
    ("conv2d", (2, 2, 5, 5), False,
     lambda h, x: F.conv2d(h, Tensor(_KERNEL), padding=1)),
    ("max_pool2d", (2, 3, 4, 4), False, lambda h, x: F.max_pool2d(h, 2)),
]


def assert_planned_op_equals_eager(rng, shape, positive, op):
    """Compile ``w * x -> op -> sum``, replay it on a fresh batch, compare to eager."""
    def draw():
        return rng.uniform(0.5, 1.5, size=shape) if positive else rng.normal(size=shape)

    weight = Tensor(rng.uniform(0.5, 1.5, size=shape), requires_grad=True)
    optimizer = SGD([weight], lr=0.1)
    with trace_tape() as trace:
        inputs = Tensor(draw())
        mark_trace_input(inputs, "input")
        logits = weight * inputs
        node = op(logits, inputs)
        loss = ops.sum(node)
    loss.backward()
    plan = compile_train_step(trace, loss, logits, optimizer)
    traced_node = node.data.copy()

    fresh = draw()
    planned_loss, _ = plan.execute({"input": fresh}, update=False)
    planned_node = node.data.copy()
    planned_grad = weight.grad.copy()

    weight.grad = None
    fresh_inputs = Tensor(fresh)
    eager_node = op(weight * fresh_inputs, fresh_inputs)
    eager_loss = ops.sum(eager_node)
    eager_loss.backward()
    # the plan recomputed the node from the fresh batch
    assert not np.array_equal(planned_node, traced_node)
    np.testing.assert_allclose(planned_node, eager_node.data, rtol=0, atol=0)
    assert planned_loss == float(eager_loss.data)
    np.testing.assert_allclose(planned_grad, weight.grad, rtol=0, atol=0)


class TestEveryReplayedOp:
    """Each op the plan replays matches the eager tape bit for bit on its own."""

    @pytest.mark.parametrize("shape,positive,op", [case[1:] for case in REPLAYED_OPS],
                             ids=[case[0] for case in REPLAYED_OPS])
    def test_planned_op_equals_eager(self, rng, shape, positive, op):
        assert_planned_op_equals_eager(rng, shape, positive, op)

    @pytest.mark.parametrize("op", [ops.exp, ops.sqrt, ops.tanh, ops.sigmoid],
                             ids=["exp", "sqrt", "tanh", "sigmoid"])
    def test_zero_d_output_read_by_backward_is_replayed(self, rng, op):
        # these closures read the op's output: for a 0-d node it must be the
        # node's buffer, not a scalar copy frozen at trace time
        assert_planned_op_equals_eager(rng, (4, 3), True, lambda h, x: op(ops.mean(h)))

    def test_op_without_forward_kernel_is_refused(self, rng):
        weight = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with trace_tape() as trace:
            inputs = Tensor(rng.normal(size=(4, 3)))
            mark_trace_input(inputs, "input")
            logits = weight * inputs
            loss = ops.sum(ops.where(inputs.data > 0, logits, inputs))
        loss.backward()
        with pytest.raises(PlanUnsupported, match="records no forward kernel"):
            compile_train_step(trace, loss, logits, SGD([weight], lr=0.1))


class TestSchedulerInteraction:
    """The learning rate is read per step, never baked into the plan."""

    def test_cosine_schedule_trajectory_is_bit_identical(self):
        eager_model, _, eager_history = fit_once("fcnn", False, scheduler="cosine",
                                                 epochs=3)
        planned_model, planned_trainer, planned_history = fit_once(
            "fcnn", True, scheduler="cosine", epochs=3)
        assert planned_trainer.plan_stats["compiled"] >= 1
        assert planned_history.train_loss == eager_history.train_loss
        assert_state_dicts_equal(eager_model, planned_model)

    def test_manual_lr_change_affects_compiled_plan(self, rng):
        seed_all(0)
        model = ComplexFCNN(18, (12,), 2, decoder="merge",
                            rng=np.random.default_rng(7))
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, scheme=get_scheme("SI"),
                          compile_train_step=True)
        images = rng.normal(size=(8, 1, 6, 6))
        labels = rng.integers(0, 2, size=8)
        trainer.model.train()
        trainer.train_step(images, labels)
        assert trainer.plan_stats["compiled"] == 1
        trainer.optimizer.lr = 0.0  # a plan with lr baked in would keep moving
        before = {name: parameter.data.copy()
                  for name, parameter in model.named_parameters()}
        trainer.train_step(images, labels)
        for name, parameter in model.named_parameters():
            assert np.array_equal(parameter.data, before[name]), name


class _DropoutNet(Module):
    """A real-valued net whose dropout mask makes the trace volatile."""

    def __init__(self, rng):
        super().__init__()
        self.network = Sequential(Linear(36, 16, rng=rng), ReLU(),
                                  Dropout(0.5, rng=rng), Linear(16, 2, rng=rng))

    def forward(self, inputs):
        return self.network(inputs.flatten(start_dim=1))


class TestFallback:
    def test_volatile_trace_falls_back_to_eager(self, rng):
        model = _DropoutNet(np.random.default_rng(7))
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, compile_train_step=True)
        images = rng.normal(size=(8, 1, 6, 6))
        labels = rng.integers(0, 2, size=8)
        trainer.model.train()
        loss, _ = trainer.train_step(images, labels)
        assert np.isfinite(loss)
        stats = trainer.plan_stats
        assert stats["compiled"] == 0
        assert stats["fallback_reason"] is not None
        assert "dropout" in stats["fallback_reason"]
        # training keeps working on the eager path
        loss, _ = trainer.train_step(images, labels)
        assert np.isfinite(loss)
        assert trainer.plan_stats["compiled"] == 0

    def test_eval_mode_skips_the_plan(self, rng):
        model = ComplexFCNN(18, (12,), 2, decoder="merge",
                            rng=np.random.default_rng(7))
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, scheme=get_scheme("SI"),
                          compile_train_step=True)
        images = rng.normal(size=(8, 1, 6, 6))
        labels = rng.integers(0, 2, size=8)
        trainer.model.eval()
        trainer.train_step(images, labels)
        assert trainer.plan_stats["compiled"] == 0
