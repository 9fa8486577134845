"""Layer behaviour: Linear, Embedding, Dropout, LayerNorm, attention, Sequential."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    ReLU,
    SelfAttention,
    Sequential,
    Tensor,
)
from repro.verify.gradcheck import check_gradients


class TestLinear:
    def test_output_shape(self):
        layer = Linear(4, 3, rng=0)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_batched_input(self):
        layer = Linear(4, 3, rng=0)
        out = layer(Tensor(np.ones((2, 5, 4))))
        assert out.shape == (2, 5, 3)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, rng=0)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((2, 4))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_gradients(self):
        layer = Linear(3, 2, rng=0)
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3)), requires_grad=True)
        check_gradients(lambda: layer(x).sum(), [x, layer.weight, layer.bias])


class TestEmbedding:
    def test_lookup_shape(self):
        table = Embedding(10, 6, rng=0)
        out = table(np.asarray([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 6)

    def test_lookup_matches_weight_rows(self):
        table = Embedding(10, 6, rng=0)
        out = table(np.asarray([3]))
        np.testing.assert_array_equal(out.data[0], table.weight.data[3])

    def test_gradient_reaches_only_used_rows(self):
        table = Embedding(5, 2, rng=0)
        table(np.asarray([1, 3])).sum().backward()
        grad = table.weight.grad
        assert np.all(grad[[0, 2, 4]] == 0)
        assert np.all(grad[[1, 3]] == 1)


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5, rng=0)
        layer.eval()
        x = Tensor(np.ones((4, 4)))
        np.testing.assert_array_equal(layer(x).data, x.data)

    def test_train_mode_zeroes_and_scales(self):
        layer = Dropout(0.5, rng=0)
        x = Tensor(np.ones((100, 100)))
        out = layer(x).data
        assert set(np.unique(out)).issubset({0.0, 2.0})
        # Roughly half survive.
        assert 0.4 < (out > 0).mean() < 0.6

    def test_zero_probability_is_identity(self):
        layer = Dropout(0.0)
        x = Tensor(np.ones((3, 3)))
        np.testing.assert_array_equal(layer(x).data, x.data)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestLayerNorm:
    def test_normalises_last_axis(self):
        layer = LayerNorm(8)
        x = Tensor(np.random.default_rng(0).normal(2.0, 3.0, size=(4, 8)))
        out = layer(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gradients(self):
        layer = LayerNorm(4)
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda: (layer(x) ** 2).sum(), [x, layer.gamma, layer.beta])


class TestSelfAttention:
    def test_output_shape(self):
        attn = SelfAttention(6, 4, rng=0)
        out = attn(Tensor(np.random.default_rng(0).normal(size=(2, 5, 6))))
        assert out.shape == (2, 5, 4)

    def test_attention_weights_are_distributions(self):
        attn = SelfAttention(6, 4, rng=0)
        attn(Tensor(np.random.default_rng(0).normal(size=(2, 5, 6))))
        weights = attn.last_attention_weights
        assert weights.shape == (2, 5, 5)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0)
        assert np.all(weights >= 0)

    def test_gradients(self):
        attn = SelfAttention(3, 2, rng=0)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 3)), requires_grad=True)
        check_gradients(lambda: attn(x).sum(), [x, attn.query.weight, attn.value.weight])

    def test_permutation_equivariance(self):
        """Self-attention commutes with permutations of the sequence."""
        attn = SelfAttention(5, 4, rng=0)
        x = np.random.default_rng(2).normal(size=(1, 4, 5))
        out = attn(Tensor(x)).data
        perm = np.asarray([2, 0, 3, 1])
        out_perm = attn(Tensor(x[:, perm])).data
        np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-10)


class TestSequential:
    def test_applies_in_order(self):
        seq = Sequential(Linear(3, 5, rng=0), ReLU(), Linear(5, 2, rng=1))
        out = seq(Tensor(np.ones((4, 3))))
        assert out.shape == (4, 2)
