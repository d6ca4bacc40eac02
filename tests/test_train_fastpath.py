"""Tests of the training hot-path kernels.

Three invariants pin the fast path to its executable references:

* the fused complex kernels (`complex_linear`'s Karatsuba product,
  `complex_conv2d`'s block product) match the 4-real-op Eq. (2) formulation -- values and
  *gradients* -- to 1e-8 across stride/padding/bias combinations;
* the sliding-window `im2col` and the bincount/reshape `col2im` agree with
  the seed index-table/`np.add.at` implementations exactly;
* the in-place optimizer steps produce bit-identical trajectories to the
  allocating `step_reference` implementations.
"""

import inspect

import numpy as np
import pytest

from repro.nn.complex import (
    ComplexConv2d,
    ComplexLinear,
    ComplexTensor,
    complex_conv2d,
    complex_linear,
)
from repro.nn.module import Parameter
from repro.optim import SGD, Adam, AdamW
from repro.tensor import Tensor, functional as F, gradcheck
from repro.tensor.functional import (
    col2im,
    col2im_reference,
    im2col,
    im2col_reference,
)
from repro.tensor.tensor import trace_tape

CONV_CASES = [
    # (stride, padding, bias)
    (1, 0, True),
    (1, 1, False),
    (2, 1, True),
    (2, 0, False),
    (1, 2, True),
]


def _grads(layer, xr, xi, forward):
    layer.zero_grad()
    real = Tensor(xr, requires_grad=True)
    imag = Tensor(xi, requires_grad=True)
    forward(ComplexTensor(real, imag)).power().sum().backward()
    grads = {name: parameter.grad.copy() for name, parameter in layer.named_parameters()}
    grads["input_real"] = real.grad.copy()
    grads["input_imag"] = imag.grad.copy()
    return grads


class TestFusedComplexConv2d:
    @pytest.mark.parametrize("stride,padding,bias", CONV_CASES)
    def test_gradient_parity_with_reference(self, rng, stride, padding, bias):
        layer = ComplexConv2d(2, 3, 3, stride=stride, padding=padding, bias=bias,
                              rng=np.random.default_rng(7))
        xr = rng.normal(size=(2, 2, 6, 7))
        xi = rng.normal(size=(2, 2, 6, 7))

        fused = lambda x: complex_conv2d(  # noqa: E731
            x, layer.weight_real, layer.weight_imag, layer.bias_real, layer.bias_imag,
            stride=stride, padding=padding)
        out = fused(ComplexTensor(Tensor(xr), Tensor(xi)))
        reference = layer.forward_reference(ComplexTensor(Tensor(xr), Tensor(xi)))
        assert np.allclose(out.to_complex_array(), reference.to_complex_array(), atol=1e-10)

        fused_grads = _grads(layer, xr, xi, fused)
        reference_grads = _grads(layer, xr, xi, layer.forward_reference)
        assert set(fused_grads) == set(reference_grads)
        for name, value in reference_grads.items():
            assert np.allclose(fused_grads[name], value, atol=1e-8), name

    def test_finite_difference_gradients(self, rng):
        layer = ComplexConv2d(1, 2, 3, stride=2, padding=1, rng=np.random.default_rng(3))
        real = Tensor(rng.normal(size=(1, 1, 5, 5)), requires_grad=True)
        imag = Tensor(rng.normal(size=(1, 1, 5, 5)), requires_grad=True)
        gradcheck(lambda: layer(ComplexTensor(real, imag)).power().sum(),
                  [real, imag, layer.weight_real, layer.weight_imag,
                   layer.bias_real, layer.bias_imag], atol=1e-4)

    def test_layer_routes_through_fused_kernel(self, rng, monkeypatch):
        layer = ComplexConv2d(2, 3, 3, rng=np.random.default_rng(5))
        xr, xi = rng.normal(size=(2, 2, 6, 6)), rng.normal(size=(2, 2, 6, 6))
        monkeypatch.delenv("REPRO_FORCE_REFERENCE", raising=False)
        fast = layer(ComplexTensor(Tensor(xr), Tensor(xi)))
        monkeypatch.setenv("REPRO_FORCE_REFERENCE", "1")
        slow = layer(ComplexTensor(Tensor(xr), Tensor(xi)))
        assert np.allclose(fast.to_complex_array(), slow.to_complex_array(), atol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        layer = ComplexConv2d(3, 2, 3, rng=np.random.default_rng(1))
        x = ComplexTensor(Tensor(rng.normal(size=(1, 2, 5, 5))))
        with pytest.raises(ValueError):
            layer(x)

    def test_block_product_is_the_only_strategy(self, rng):
        layer = ComplexConv2d(1, 1, 3, rng=np.random.default_rng(1))
        x = ComplexTensor(Tensor(rng.normal(size=(1, 1, 5, 5))))
        assert list(inspect.signature(complex_conv2d).parameters) == [
            "inputs", "weight_real", "weight_imag", "bias_real", "bias_imag",
            "stride", "padding"]
        with trace_tape() as trace:
            complex_conv2d(x, layer.weight_real, layer.weight_imag)
        [entry] = [entry for entry in trace.entries if entry.op == "complex_conv2d"]
        # the tape records the block matrix the train-plan replay refreshes,
        # and no strategy switch for it to branch on
        assert "w_block" in entry.params["cache"]
        assert "product" not in entry.params


class TestFusedComplexLinear:
    @pytest.mark.parametrize("bias", [True, False])
    def test_gradient_parity_with_reference(self, rng, bias):
        layer = ComplexLinear(6, 4, bias=bias, rng=np.random.default_rng(11))
        xr = rng.normal(size=(5, 6))
        xi = rng.normal(size=(5, 6))

        fused = lambda x: complex_linear(  # noqa: E731
            x, layer.weight_real, layer.weight_imag, layer.bias_real, layer.bias_imag)
        out = fused(ComplexTensor(Tensor(xr), Tensor(xi)))
        reference = layer.forward_reference(ComplexTensor(Tensor(xr), Tensor(xi)))
        assert np.allclose(out.to_complex_array(), reference.to_complex_array(), atol=1e-10)

        fused_grads = _grads(layer, xr, xi, fused)
        reference_grads = _grads(layer, xr, xi, layer.forward_reference)
        for name, value in reference_grads.items():
            assert np.allclose(fused_grads[name], value, atol=1e-8), name

    def test_finite_difference_gradients(self, rng):
        layer = ComplexLinear(3, 2, rng=np.random.default_rng(13))
        real = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        imag = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        gradcheck(lambda: layer(ComplexTensor(real, imag)).power().sum(),
                  [real, imag, layer.weight_real, layer.weight_imag,
                   layer.bias_real, layer.bias_imag], atol=1e-4)

    def test_only_real_output_used_still_correct(self, rng):
        """Gradients stay exact when only one packed output part is consumed."""
        layer = ComplexLinear(4, 3, bias=False, rng=np.random.default_rng(17))
        xr = rng.normal(size=(5, 4))
        xi = rng.normal(size=(5, 4))

        layer.zero_grad()
        out = layer(ComplexTensor(Tensor(xr), Tensor(xi)))
        (out.real ** 2).sum().backward()
        fused = {name: p.grad.copy() for name, p in layer.named_parameters()}
        layer.zero_grad()
        reference = layer.forward_reference(ComplexTensor(Tensor(xr), Tensor(xi)))
        (reference.real ** 2).sum().backward()
        for name, parameter in layer.named_parameters():
            assert np.allclose(fused[name], parameter.grad, atol=1e-8), name


class TestIm2ColFastPath:
    GEOMETRIES = [
        # kernel, stride, padding: covers the bincount, shifted-accumulation
        # and exact-tiling (reshape) adjoint paths
        ((3, 3), (1, 1), (0, 0)),
        ((3, 3), (2, 2), (1, 1)),
        ((2, 4), (1, 2), (2, 0)),
        ((2, 2), (2, 2), (0, 0)),   # exact tiling -> pure reshape adjoint
        ((3, 3), (3, 3), (0, 0)),   # exact tiling
    ]

    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    def test_matches_reference_exactly(self, rng, kernel, stride, padding):
        x = rng.normal(size=(3, 2, 6, 8))
        fast, size_fast = im2col(x, kernel, stride, padding)
        seed, size_seed = im2col_reference(x, kernel, stride, padding)
        assert size_fast == size_seed
        assert np.array_equal(fast, seed)

        y = rng.normal(size=fast.shape)
        assert np.allclose(col2im(y, x.shape, kernel, stride, padding),
                           col2im_reference(y, x.shape, kernel, stride, padding),
                           atol=1e-12)

    def test_large_block_shifted_path(self, rng):
        """Force the shifted-accumulation branch with a big spatial plane."""
        x = rng.normal(size=(16, 2, 32, 32))
        cols, _ = im2col(x, (5, 5), (1, 1), (0, 0))
        y = rng.normal(size=cols.shape)
        assert np.allclose(col2im(y, x.shape, (5, 5), (1, 1), (0, 0)),
                           col2im_reference(y, x.shape, (5, 5), (1, 1), (0, 0)),
                           atol=1e-12)

    def test_complex_columns_scatter(self, rng):
        shape = (2, 2, 5, 5)
        cols, _ = im2col(np.zeros(shape), (3, 3), (1, 1), (0, 0))
        y = rng.normal(size=cols.shape) + 1j * rng.normal(size=cols.shape)
        assert np.allclose(col2im(y, shape, (3, 3), (1, 1), (0, 0)),
                           col2im_reference(y, shape, (3, 3), (1, 1), (0, 0)),
                           atol=1e-12)

    def test_adjoint_identity(self, rng):
        """<im2col(x), y> == <x, col2im(y)> on every dispatch path."""
        for kernel, stride, padding in self.GEOMETRIES:
            shape = (2, 3, 6, 8)
            x = rng.normal(size=shape)
            cols, _ = im2col(x, kernel, stride, padding)
            y = rng.normal(size=cols.shape)
            lhs = float((cols * y).sum())
            rhs = float((x * col2im(y, shape, kernel, stride, padding)).sum())
            assert np.isclose(lhs, rhs)

    def test_reference_mode_round_trips_backward(self, rng, monkeypatch):
        """A pass recorded under reference kernels backpropagates through them."""
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.2, requires_grad=True)
        monkeypatch.setenv("REPRO_FORCE_REFERENCE", "1")
        out = F.conv2d(x, w, None, stride=1, padding=1)
        monkeypatch.delenv("REPRO_FORCE_REFERENCE")
        (out ** 2).sum().backward()
        reference_grad = x.grad.copy()
        x.zero_grad(); w.zero_grad()
        (F.conv2d(x, w, None, stride=1, padding=1) ** 2).sum().backward()
        assert np.allclose(reference_grad, x.grad, atol=1e-10)


def _paired_parameters(rng, count=3):
    """Two identical parameter sets plus a deterministic gradient schedule."""
    shapes = [(4, 3), (7,), (2, 3, 3, 3)][:count]
    data = [rng.normal(size=shape) for shape in shapes]
    fast = [Parameter(array.copy()) for array in data]
    slow = [Parameter(array.copy()) for array in data]
    return fast, slow


def _run_trajectory(optimizer, parameters, reference: bool, steps, rng):
    for _ in range(steps):
        for parameter in parameters:
            # deterministic pseudo-gradient tied to the parameter value so the
            # two trajectories only stay together if the updates are identical
            parameter.grad = np.sin(parameter.data) + 0.1 * parameter.data
        if reference:
            optimizer.step_reference()
        else:
            optimizer.step()


class TestInPlaceOptimizerEquivalence:
    @pytest.mark.parametrize("kwargs", [
        dict(lr=0.1),
        dict(lr=0.05, momentum=0.9),
        dict(lr=0.05, momentum=0.9, nesterov=True),
        dict(lr=0.1, weight_decay=0.01),
        dict(lr=0.05, momentum=0.9, weight_decay=0.01, nesterov=True),
    ])
    def test_sgd_bit_identical_to_reference(self, rng, kwargs):
        fast, slow = _paired_parameters(rng)
        _run_trajectory(SGD(fast, **kwargs), fast, False, 10, rng)
        _run_trajectory(SGD(slow, **kwargs), slow, True, 10, rng)
        for a, b in zip(fast, slow):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("cls,kwargs", [
        (Adam, dict(lr=0.01)),
        (Adam, dict(lr=0.01, weight_decay=0.02)),
        (AdamW, dict(lr=0.01, weight_decay=0.02)),
    ])
    def test_adam_bit_identical_to_reference(self, rng, cls, kwargs):
        fast, slow = _paired_parameters(rng)
        _run_trajectory(cls(fast, **kwargs), fast, False, 10, rng)
        _run_trajectory(cls(slow, **kwargs), slow, True, 10, rng)
        for a, b in zip(fast, slow):
            assert np.array_equal(a.data, b.data)

    def test_step_updates_in_place(self, rng):
        """The parameter's array object is mutated, never rebound."""
        parameter = Parameter(rng.normal(size=(5,)))
        buffer_before = parameter.data
        optimizer = SGD([parameter], lr=0.1, momentum=0.9)
        parameter.grad = np.ones(5)
        optimizer.step()
        assert parameter.data is buffer_before

    def test_moments_update_in_place(self, rng):
        parameter = Parameter(rng.normal(size=(4,)))
        optimizer = Adam([parameter], lr=0.01)
        moment1_before = optimizer._moment1[0]
        parameter.grad = np.ones(4)
        optimizer.step()
        assert optimizer._moment1[0] is moment1_before
        assert np.any(moment1_before != 0.0)
