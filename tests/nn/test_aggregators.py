"""The three neighborhood aggregators of Sect. III-C."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    LSTMAggregator,
    MaxPoolAggregator,
    MeanAggregator,
    Tensor,
    make_aggregator,
)
from repro.verify.gradcheck import check_gradients

KINDS = ["mean", "pool", "lstm"]


@pytest.mark.parametrize("kind", KINDS)
class TestAllAggregators:
    def test_output_shape(self, kind):
        agg = make_aggregator(kind, 4, 6, rng=0)
        out = agg(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 5, 4))))
        assert out.shape == (3, 6)

    def test_gradients_flow_to_both_inputs(self, kind):
        agg = make_aggregator(kind, 3, 8, rng=0)
        rng = np.random.default_rng(1)
        # A large batch guarantees some ReLU units fire.
        self_feats = Tensor(rng.normal(size=(16, 3)), requires_grad=True)
        neigh = Tensor(rng.normal(size=(16, 4, 3)), requires_grad=True)
        agg(self_feats, neigh).sum().backward()
        assert self_feats.grad is not None and np.any(self_feats.grad != 0)
        assert neigh.grad is not None and np.any(neigh.grad != 0)

    def test_output_nonnegative(self, kind):
        """All aggregators end in ReLU."""
        agg = make_aggregator(kind, 3, 5, rng=0)
        rng = np.random.default_rng(2)
        out = agg(Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 6, 3))))
        assert np.all(out.data >= 0)


class TestMeanAggregator:
    def test_neighbor_permutation_invariance(self):
        agg = MeanAggregator(3, 4, rng=0)
        rng = np.random.default_rng(1)
        self_feats = Tensor(rng.normal(size=(2, 3)))
        neigh = rng.normal(size=(2, 5, 3))
        out1 = agg(self_feats, Tensor(neigh)).data
        out2 = agg(self_feats, Tensor(neigh[:, ::-1].copy())).data
        np.testing.assert_allclose(out1, out2)

    def test_gradcheck(self):
        agg = MeanAggregator(2, 2, rng=0)
        rng = np.random.default_rng(3)
        s = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        n = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
        check_gradients(lambda: agg(s, n).sum(), [s, n])


class TestMaxPoolAggregator:
    def test_neighbor_permutation_invariance(self):
        agg = MaxPoolAggregator(3, 4, rng=0)
        rng = np.random.default_rng(1)
        self_feats = Tensor(rng.normal(size=(2, 3)))
        neigh = rng.normal(size=(2, 5, 3))
        out1 = agg(self_feats, Tensor(neigh)).data
        out2 = agg(self_feats, Tensor(neigh[:, ::-1].copy())).data
        np.testing.assert_allclose(out1, out2)


class TestLSTMAggregator:
    def test_order_sensitivity(self):
        """Unlike mean/pool, the LSTM aggregator is order-sensitive."""
        agg = LSTMAggregator(3, 4, rng=0)
        rng = np.random.default_rng(1)
        self_feats = Tensor(rng.normal(size=(1, 3)))
        neigh = rng.normal(size=(1, 5, 3))
        out1 = agg(self_feats, Tensor(neigh)).data
        out2 = agg(self_feats, Tensor(neigh[:, ::-1].copy())).data
        assert not np.allclose(out1, out2)

    def test_gradcheck(self):
        agg = LSTMAggregator(2, 2, rng=0)
        rng = np.random.default_rng(3)
        s = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
        n = Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)
        check_gradients(lambda: agg(s, n).sum(), [s, n], atol=1e-3, rtol=1e-3)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_aggregator("median", 2, 2)
