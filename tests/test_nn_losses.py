"""Tests of loss functions, including the distillation losses of Eqs. (3)/(4)."""

import numpy as np
import pytest
from scipy.special import log_softmax as scipy_log_softmax, softmax as scipy_softmax

from repro.nn.losses import DistillationLoss, cross_entropy, kl_divergence, peer_distribution
from repro.tensor import Tensor, functional as F, gradcheck
from repro.tensor.tensor import trace_tape


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        expected = -scipy_log_softmax(logits, axis=1)[np.arange(6), labels].mean()
        loss = cross_entropy(Tensor(logits), labels)
        assert float(loss.data) == pytest.approx(expected)

    def test_perfect_prediction_is_near_zero(self):
        logits = np.full((3, 3), -50.0)
        logits[np.arange(3), np.arange(3)] = 50.0
        loss = cross_entropy(Tensor(logits), np.arange(3))
        assert float(loss.data) < 1e-6

    def test_label_smoothing_is_not_an_option(self, rng):
        with pytest.raises(TypeError):
            cross_entropy(Tensor(rng.normal(size=(2, 3))), np.zeros(2, dtype=int),
                          label_smoothing=0.1)

    def test_gradients(self, rng):
        logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        labels = rng.integers(0, 5, size=4)
        gradcheck(lambda: cross_entropy(logits, labels), [logits])

    def test_batch_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(rng.normal(size=(4, 3))), np.zeros(5, dtype=int))

class TestKLDivergence:
    def test_zero_when_distributions_match(self, rng):
        logits = rng.normal(size=(4, 6))
        divergence = kl_divergence(Tensor(logits), Tensor(logits.copy()), temperature=2.0)
        assert float(divergence.data) == pytest.approx(0.0, abs=1e-10)

    def test_non_negative(self, rng):
        for _ in range(5):
            student = Tensor(rng.normal(size=(3, 5)))
            teacher = Tensor(rng.normal(size=(3, 5)))
            assert float(kl_divergence(student, teacher).data) >= -1e-12

    def test_matches_manual_kl(self, rng):
        student = rng.normal(size=(2, 4))
        teacher = rng.normal(size=(2, 4))
        temperature = 3.0
        p = scipy_softmax(teacher / temperature, axis=1)
        log_p = scipy_log_softmax(teacher / temperature, axis=1)
        log_q = scipy_log_softmax(student / temperature, axis=1)
        expected = (p * (log_p - log_q)).sum(axis=1).mean() * temperature ** 2
        ours = kl_divergence(Tensor(student), Tensor(teacher), temperature=temperature)
        assert float(ours.data) == pytest.approx(expected)

    def test_gradient_flows_only_to_student(self, rng):
        student = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        teacher = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        kl_divergence(student, teacher).backward()
        assert student.grad is not None
        assert teacher.grad is None

    def test_invalid_temperature(self, rng):
        with pytest.raises(ValueError):
            kl_divergence(Tensor(rng.normal(size=(2, 2))), Tensor(rng.normal(size=(2, 2))),
                          temperature=0.0)

    @pytest.mark.parametrize("temperature", [1.0, 2.0, 4.0])
    def test_matches_the_softmax_formulation(self, rng, temperature):
        """The numpy peer distribution agrees with the graph-built one."""
        student = Tensor(rng.normal(size=(8, 10)) * 3.0, requires_grad=True)
        teacher = rng.normal(size=(8, 10)) * 3.0
        scaled = Tensor(teacher / temperature)
        student_log_probs = F.log_softmax(student / temperature, axis=-1)
        old = ((F.softmax(scaled, axis=-1)
                * (F.log_softmax(scaled, axis=-1) - student_log_probs))
               .sum(axis=-1).mean() * temperature ** 2)
        new = kl_divergence(student, Tensor(teacher), temperature=temperature)
        assert abs(float(new.data) - float(old.data)) <= 1e-15
        probs, log_probs = peer_distribution(teacher, temperature)
        assert np.abs(probs - F.softmax(scaled, axis=-1).data).max() <= 1e-15
        assert np.abs(log_probs - F.log_softmax(scaled, axis=-1).data).max() <= 1e-15

    def test_traced_distillation_step_is_replayable(self, rng):
        """No ``volatile`` reason; the peer leaves are late trace inputs."""
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with trace_tape() as trace:
            loss = DistillationLoss(alpha=1.0, temperature=2.0)(
                logits, np.array([0, 1, 2, 0]), Tensor(rng.normal(size=(4, 3))))
        loss.backward()
        assert trace.volatile == []
        assert set(trace.inputs) == {"cross_entropy_targets", "kl_peer_probs",
                                     "kl_peer_log_probs"}
        for key in ("kl_peer_probs", "kl_peer_log_probs"):
            assert trace.inputs[key][1] == {"temperature": 2.0, "late": True}

class TestDistillationLoss:
    def test_alpha_zero_equals_cross_entropy(self, rng):
        logits = Tensor(rng.normal(size=(4, 5)))
        peer = Tensor(rng.normal(size=(4, 5)))
        labels = rng.integers(0, 5, size=4)
        loss = DistillationLoss(alpha=0.0)(logits, labels, peer)
        assert float(loss.data) == pytest.approx(float(cross_entropy(logits, labels).data))

    def test_no_peer_equals_cross_entropy(self, rng):
        logits = Tensor(rng.normal(size=(4, 5)))
        labels = rng.integers(0, 5, size=4)
        loss = DistillationLoss(alpha=1.0)(logits, labels, None)
        assert float(loss.data) == pytest.approx(float(cross_entropy(logits, labels).data))

    def test_combined_is_ce_plus_alpha_kl(self, rng):
        logits = Tensor(rng.normal(size=(4, 5)))
        peer = Tensor(rng.normal(size=(4, 5)))
        labels = rng.integers(0, 5, size=4)
        alpha, temperature = 0.7, 2.0
        combined = DistillationLoss(alpha=alpha, temperature=temperature)(logits, labels, peer)
        expected = (float(cross_entropy(logits, labels).data)
                    + alpha * float(kl_divergence(logits, peer, temperature=temperature).data))
        assert float(combined.data) == pytest.approx(expected)

    def test_label_smoothing_is_not_an_option(self):
        with pytest.raises(TypeError):
            DistillationLoss(alpha=1.0, temperature=2.0, label_smoothing=0.1)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            DistillationLoss(alpha=-1.0)
