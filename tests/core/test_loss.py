"""The skip-gram negative-sampling objective (Eq. 13) and softplus."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import skip_gram_loss, softplus
from repro.nn import Embedding, Tensor
from repro.verify.gradcheck import check_gradients


class TestSoftplus:
    def test_matches_reference(self):
        x = Tensor(np.linspace(-5, 5, 31))
        expected = np.log1p(np.exp(x.data))
        np.testing.assert_allclose(softplus(x).data, expected, atol=1e-12)

    def test_stable_for_large_inputs(self):
        x = Tensor(np.asarray([-800.0, 800.0]))
        out = softplus(x).data
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(800.0)
        assert np.all(np.isfinite(out))

    def test_gradient(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5,)), requires_grad=True)
        check_gradients(lambda: softplus(x).sum(), [x])

    def test_negative_log_sigmoid_identity(self):
        """-log(sigmoid(x)) == softplus(-x), the form used by the loss."""
        x = np.linspace(-4, 4, 17)
        lhs = -np.log(1 / (1 + np.exp(-x)))
        rhs = softplus(Tensor(-x)).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestSkipGramLoss:
    def setup_method(self):
        self.table = Embedding(20, 8, rng=0)
        rng = np.random.default_rng(1)
        self.targets = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
        self.contexts = np.arange(6)
        self.negatives = rng.integers(0, 20, size=(6, 4))

    def test_scalar_output(self):
        loss = skip_gram_loss(self.targets, self.table, self.contexts, self.negatives)
        assert loss.shape == ()
        assert np.isfinite(loss.item())

    def test_positive(self):
        loss = skip_gram_loss(self.targets, self.table, self.contexts, self.negatives)
        assert loss.item() > 0

    def test_gradients_flow(self):
        loss = skip_gram_loss(self.targets, self.table, self.contexts, self.negatives)
        loss.backward()
        assert self.targets.grad is not None
        assert self.table.weight.grad is not None

    def test_loss_decreases_when_aligned(self):
        """Targets aligned with positive contexts score lower loss."""
        aligned = Tensor(self.table.weight.data[self.contexts] * 3.0)
        rng = np.random.default_rng(2)
        random = Tensor(rng.normal(size=aligned.shape))
        loss_aligned = skip_gram_loss(
            aligned, self.table, self.contexts, self.negatives
        ).item()
        loss_random = skip_gram_loss(
            random, self.table, self.contexts, self.negatives
        ).item()
        assert loss_aligned < loss_random

    def test_more_negatives_higher_loss(self):
        rng = np.random.default_rng(3)
        few = rng.integers(0, 20, size=(6, 1))
        many = rng.integers(0, 20, size=(6, 10))
        loss_few = skip_gram_loss(self.targets, self.table, self.contexts, few).item()
        loss_many = skip_gram_loss(self.targets, self.table, self.contexts, many).item()
        assert loss_many > loss_few

    def test_gradcheck(self):
        check_gradients(
            lambda: skip_gram_loss(
                self.targets, self.table, self.contexts, self.negatives
            ),
            [self.targets, self.table.weight],
        )
