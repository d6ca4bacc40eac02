"""Tests of the SGD optimizer and the cosine learning-rate schedule."""

import numpy as np
import pytest

import repro.optim
from repro.nn.module import Parameter
from repro.optim import SGD, CosineAnnealingLR
from repro.tensor import Tensor


def quadratic_loss(parameter):
    return ((parameter - 3.0) ** 2).sum()


def train(optimizer, parameter, steps=200):
    for _ in range(steps):
        optimizer.zero_grad()
        loss = quadratic_loss(parameter)
        loss.backward()
        optimizer.step()
    return float(quadratic_loss(parameter).data)


class TestSGD:
    def test_plain_sgd_converges_on_quadratic(self):
        parameter = Parameter(np.zeros(4))
        assert train(SGD([parameter], lr=0.1), parameter) < 1e-6
        assert np.allclose(parameter.data, 3.0)

    def test_momentum_converges(self):
        parameter = Parameter(np.zeros(4))
        assert train(SGD([parameter], lr=0.05, momentum=0.9), parameter) < 1e-6

    def test_single_step_matches_manual_update(self):
        parameter = Parameter(np.array([1.0]))
        optimizer = SGD([parameter], lr=0.5)
        quadratic_loss(parameter).backward()
        optimizer.step()
        # gradient of (x-3)^2 at 1 is -4, so x <- 1 - 0.5 * (-4) = 3
        assert np.allclose(parameter.data, 3.0)

    def test_weight_decay_shrinks_parameters(self):
        parameter = Parameter(np.array([10.0]))
        optimizer = SGD([parameter], lr=0.1, weight_decay=0.5)
        parameter.grad = np.zeros(1)
        optimizer.step()
        assert parameter.data[0] < 10.0

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(lr=-0.1),
        dict(lr=0.1, momentum=-0.9),
        dict(lr=0.1, weight_decay=-1e-4),
    ], ids=["lr", "momentum", "weight_decay"])
    def test_negative_hyperparameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], **kwargs)

    def test_nesterov_is_not_an_option(self):
        with pytest.raises(TypeError):
            SGD([Parameter(np.zeros(1))], lr=0.1, momentum=0.9, nesterov=True)

    @pytest.mark.parametrize("momentum,weight_decay", [
        (0.0, 0.0), (0.9, 0.0), (0.0, 1e-4), (0.9, 1e-4),
    ])
    def test_steps_match_the_closed_form(self, momentum, weight_decay):
        """``v <- m v + (g + wd p)``, ``p <- p - lr v``, worked by hand."""
        lr, x, velocity = 0.05, 1.0, 0.0
        parameter = Parameter(np.array([x]))
        optimizer = SGD([parameter], lr=lr, momentum=momentum, weight_decay=weight_decay)
        for _ in range(3):
            optimizer.zero_grad()
            quadratic_loss(parameter).backward()
            optimizer.step()
            velocity = momentum * velocity + (2.0 * (x - 3.0) + weight_decay * x)
            x -= lr * velocity
            assert parameter.data[0] == pytest.approx(x, rel=1e-12)

    def test_learning_rate_changed_between_steps_takes_effect(self):
        """The schedule writes ``optimizer.lr``; the next step must read it."""
        parameter = Parameter(np.array([0.0]))
        optimizer = SGD([parameter], lr=1.0)
        parameter.grad = np.array([1.0])
        optimizer.step()
        optimizer.lr = 0.25
        optimizer.step()
        assert parameter.data[0] == pytest.approx(-1.25)

    def test_parameters_without_grad_are_skipped(self):
        used = Parameter(np.zeros(2))
        unused = Parameter(np.ones(2))
        optimizer = SGD([used, unused], lr=0.1)
        quadratic_loss(used).backward()
        optimizer.step()
        assert np.allclose(unused.data, 1.0)


class TestGradClipping:
    def test_clip_reduces_norm(self):
        parameter = Parameter(np.zeros(3))
        optimizer = SGD([parameter], lr=0.1)
        parameter.grad = np.array([3.0, 4.0, 0.0])
        norm = optimizer.clip_grad_norm(1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(parameter.grad) == pytest.approx(1.0, rel=1e-6)

    def test_clip_noop_when_below_threshold(self):
        parameter = Parameter(np.zeros(2))
        optimizer = SGD([parameter], lr=0.1)
        parameter.grad = np.array([0.1, 0.1])
        optimizer.clip_grad_norm(10.0)
        assert np.allclose(parameter.grad, [0.1, 0.1])


class TestSchedulers:
    def _optimizer(self, lr=1.0):
        return SGD([Parameter(np.zeros(1))], lr=lr)

    def test_cosine_annealing_endpoints(self):
        optimizer = self._optimizer()
        scheduler = CosineAnnealingLR(optimizer, total_epochs=10)
        values = [scheduler.step() for _ in range(10)]
        assert values[0] < 1.0
        assert values[-1] == pytest.approx(0.0, abs=1e-12)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            CosineAnnealingLR(self._optimizer(), total_epochs=0)

    @pytest.mark.parametrize("total_epochs", [1, 3, 10])
    def test_cosine_matches_the_closed_form(self, total_epochs):
        scheduler = CosineAnnealingLR(self._optimizer(lr=0.05), total_epochs=total_epochs)
        for epoch in range(1, total_epochs + 1):
            expected = 0.5 * 0.05 * (1.0 + np.cos(np.pi * epoch / total_epochs))
            assert scheduler.step() == pytest.approx(expected, abs=1e-15)

    def test_step_sets_the_optimizer_learning_rate(self):
        optimizer = self._optimizer(lr=0.1)
        scheduler = CosineAnnealingLR(optimizer, total_epochs=4)
        for _ in range(3):
            returned = scheduler.step()
            assert optimizer.lr == returned
        assert scheduler.base_lr == 0.1

    def test_learning_rate_stays_zero_after_the_last_epoch(self):
        optimizer = self._optimizer()
        scheduler = CosineAnnealingLR(optimizer, total_epochs=2)
        values = [scheduler.step() for _ in range(4)]
        assert values[1:] == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)

    def test_min_lr_is_not_an_option(self):
        with pytest.raises(TypeError):
            CosineAnnealingLR(self._optimizer(), total_epochs=10, min_lr=0.01)


def test_optim_exports_only_the_recipe():
    assert sorted(repro.optim.__all__) == ["CosineAnnealingLR", "SGD"]
