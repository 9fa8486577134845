"""HybridGNN model behaviour: forward, ablations, attention readout, cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HybridGNN, HybridGNNConfig
from repro.errors import TrainingError


@pytest.fixture
def model(taobao_dataset, taobao_split, tiny_hybrid_config):
    return HybridGNN(
        taobao_split.train_graph,
        taobao_dataset.all_schemes(),
        tiny_hybrid_config,
        rng=0,
    )


class TestForward:
    def test_output_shape(self, model):
        out = model(np.arange(10), "page_view")
        assert out.shape == (10, model.config.base_dim)

    def test_mixed_type_batch(self, model, taobao_split):
        graph = taobao_split.train_graph
        users = graph.nodes_of_type("user")[:3]
        items = graph.nodes_of_type("item")[:3]
        batch = np.concatenate([items, users])  # deliberately interleaved types
        out = model(batch, "purchase")
        assert out.shape == (6, model.config.base_dim)

    def test_mixed_batch_matches_pure_batches(self, taobao_dataset, taobao_split):
        """Stitching per-type groups must preserve row order.

        Sampling is stochastic, so compare the deterministic part: the base
        embedding contribution is row-aligned if stitching is correct.  We
        test alignment by checking each row only depends on its own node via
        the base table (perturb one base row, only that output row moves
        deterministically)."""
        config = HybridGNNConfig(
            base_dim=8, edge_dim=4, metapath_fanouts=(2, 2, 2, 2, 2, 2),
            exploration_fanout=2, exploration_depth=1,
        )
        model = HybridGNN(
            taobao_split.train_graph, taobao_dataset.all_schemes(), config, rng=0
        )
        graph = taobao_split.train_graph
        batch = np.concatenate(
            [graph.nodes_of_type("item")[:2], graph.nodes_of_type("user")[:2]]
        )
        before = model(batch, "page_view").data.copy()
        model.base.weight.data[batch[0]] += 100.0
        after = model(batch, "page_view").data
        # Row 0 must shift by ~100 in base-embedding space; rows 1-3 must not.
        assert np.abs(after[0] - before[0]).max() > 50.0
        for row in range(1, 4):
            assert np.abs(after[row] - before[row]).max() < 50.0

    def test_unknown_relation_rejected(self, model):
        with pytest.raises(TrainingError):
            model(np.arange(3), "likes")

    def test_different_relations_give_different_embeddings(self, model):
        nodes = np.arange(8)
        a = model(nodes, "page_view").data
        b = model(nodes, "purchase").data
        assert not np.allclose(a, b)


class TestAblationVariants:
    def test_no_metapath_attention(self, taobao_dataset, taobao_split):
        config = HybridGNNConfig(
            base_dim=8, edge_dim=4, use_metapath_attention=False,
            metapath_fanouts=(2, 2), exploration_fanout=2, exploration_depth=1,
        )
        model = HybridGNN(
            taobao_split.train_graph, taobao_dataset.all_schemes(), config, rng=0
        )
        assert model(np.arange(4), "page_view").shape == (4, 8)
        assert model.metapath_attention.attention is None

    def test_no_relationship_attention(self, taobao_dataset, taobao_split):
        config = HybridGNNConfig(
            base_dim=8, edge_dim=4, use_relationship_attention=False,
            metapath_fanouts=(2, 2), exploration_fanout=2, exploration_depth=1,
        )
        model = HybridGNN(
            taobao_split.train_graph, taobao_dataset.all_schemes(), config, rng=0
        )
        assert model(np.arange(4), "page_view").shape == (4, 8)

    def test_no_randomized_exploration(self, taobao_dataset, taobao_split):
        config = HybridGNNConfig(
            base_dim=8, edge_dim=4, use_randomized_exploration=False,
            metapath_fanouts=(2, 2), exploration_fanout=2,
        )
        model = HybridGNN(
            taobao_split.train_graph, taobao_dataset.all_schemes(), config, rng=0
        )
        assert model.exploration_flow is None
        assert model(np.arange(4), "page_view").shape == (4, 8)

    def test_no_hybrid_flows(self, taobao_dataset, taobao_split):
        config = HybridGNNConfig(
            base_dim=8, edge_dim=4, use_hybrid_flows=False,
            metapath_fanouts=(2, 2), exploration_fanout=2, exploration_depth=1,
        )
        model = HybridGNN(
            taobao_split.train_graph, taobao_dataset.all_schemes(), config, rng=0
        )
        from repro.core.hybrid_aggregation import RandomNeighborFlow

        for node_type in taobao_split.train_graph.schema.node_types:
            groups = list(model.flows[node_type])
            assert len(groups) == 1
            flows = list(groups[0].stacks)
            assert len(flows) == 1
            assert isinstance(flows[0], RandomNeighborFlow)
            assert flows[0].relations == model.relations
        assert model(np.arange(4), "page_view").shape == (4, 8)

    def test_missing_schemes_rejected(self, taobao_split, tiny_hybrid_config):
        with pytest.raises(TrainingError):
            HybridGNN(taobao_split.train_graph, {}, tiny_hybrid_config, rng=0)


class TestEmbeddingCache:
    def test_cache_consistency(self, model, taobao_split):
        nodes = np.arange(6)
        first = model.node_embeddings(nodes, "page_view")
        second = model.node_embeddings(nodes, "page_view")
        np.testing.assert_array_equal(first, second)

    def test_cache_invalidation_changes_samples(self, model):
        nodes = np.arange(6)
        first = model.node_embeddings(nodes, "page_view").copy()
        model.invalidate_cache()
        model.base.weight.data += 1.0
        second = model.node_embeddings(nodes, "page_view")
        assert not np.allclose(first, second)

    def test_embeddings_cover_all_nodes(self, model, taobao_split):
        all_nodes = np.arange(taobao_split.train_graph.num_nodes)
        emb = model.node_embeddings(all_nodes, "favorite")
        assert emb.shape == (len(all_nodes), model.config.base_dim)
        assert np.all(np.isfinite(emb))


class TestAttentionReadout:
    def test_metapath_scores_form_distribution(self, model):
        scores = model.metapath_attention_scores("page_view", "user", rng=0)
        assert "random" in scores
        assert "U-I-U" in scores
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)

    def test_item_start_type_uses_iui(self, model):
        scores = model.metapath_attention_scores("page_view", "item", rng=0)
        assert "I-U-I" in scores

    def test_relationship_scores_form_distribution(self, model, taobao_split):
        scores = model.relationship_attention_scores(rng=0)
        assert set(scores) == set(taobao_split.train_graph.schema.relationships)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)


class TestTrainerProtocol:
    def test_num_negatives_property(self, model):
        assert model.num_negatives == model.config.num_negatives

    def test_state_dict_roundtrip(self, model):
        state = model.state_dict()
        for param in model.parameters():
            param.data += 0.5
        model.load_state_dict(state)
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, state[name])
