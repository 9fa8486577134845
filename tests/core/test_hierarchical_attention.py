"""Metapath- and relationship-level attention (Eqs. 6-10)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MetapathLevelAttention, RelationshipLevelAttention
from repro.nn import Tensor
from repro.nn.tensor import stack


def flows(n_flows, batch=4, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=(batch, dim)), requires_grad=True)
            for _ in range(n_flows)]


class TestMetapathLevelAttention:
    def test_output_shape(self):
        attn = MetapathLevelAttention(6, rng=0)
        out = attn(flows(3))
        assert out.shape == (4, 6)

    def test_flow_importance_is_distribution(self):
        attn = MetapathLevelAttention(6, rng=0)
        attn(flows(3))
        importance = attn.last_flow_importance
        assert importance.shape == (3,)
        assert importance.sum() == pytest.approx(1.0)
        assert np.all(importance >= 0)

    def test_disabled_is_uniform_mean(self):
        attn = MetapathLevelAttention(6, enabled=False)
        inputs = flows(4)
        out = attn(inputs)
        expected = np.mean([t.data for t in inputs], axis=0)
        np.testing.assert_allclose(out.data, expected)
        np.testing.assert_allclose(attn.last_flow_importance, 0.25)

    def test_single_flow_works(self):
        attn = MetapathLevelAttention(6, rng=0)
        out = attn(flows(1))
        assert out.shape == (4, 6)
        assert attn.last_flow_importance.shape == (1,)

    def test_gradients_reach_every_flow(self):
        attn = MetapathLevelAttention(6, rng=0)
        inputs = flows(3)
        attn(inputs).sum().backward()
        for tensor in inputs:
            assert tensor.grad is not None
            assert np.any(tensor.grad != 0)

    def test_disabled_has_no_parameters(self):
        assert MetapathLevelAttention(6, enabled=False).num_parameters() == 0
        assert MetapathLevelAttention(6, enabled=True).num_parameters() > 0


class TestRelationshipLevelAttention:
    def test_output_shape(self):
        attn = RelationshipLevelAttention(6, rng=0)
        out = attn(stack(flows(4), axis=1))
        assert out.shape == (4, 4, 6)

    def test_disabled_is_identity_stack(self):
        attn = RelationshipLevelAttention(6, enabled=False)
        inputs = flows(3)
        out = attn(stack(inputs, axis=1))
        for idx, tensor in enumerate(inputs):
            np.testing.assert_allclose(out.data[:, idx], tensor.data)

    def test_relation_importance_is_distribution(self):
        attn = RelationshipLevelAttention(6, rng=0)
        attn(stack(flows(5), axis=1))
        importance = attn.last_relation_importance
        assert importance.shape == (5,)
        assert importance.sum() == pytest.approx(1.0)

    def test_enabled_mixes_relations(self):
        """With attention on, each output position depends on all inputs."""
        attn = RelationshipLevelAttention(4, rng=0)
        inputs = flows(3, batch=2, dim=4)
        attn(stack(inputs, axis=1))[:, 0, :].sum().backward()
        # Output slot 0 must receive gradient from slots 1 and 2 too.
        assert np.any(inputs[1].grad != 0)
        assert np.any(inputs[2].grad != 0)

    def test_disabled_does_not_mix(self):
        attn = RelationshipLevelAttention(4, enabled=False)
        inputs = flows(3, batch=2, dim=4)
        attn(stack(inputs, axis=1))[:, 0, :].sum().backward()
        assert np.all(inputs[1].grad == 0)
        assert np.all(inputs[2].grad == 0)
