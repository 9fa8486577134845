"""Metapath-guided neighbor sampling (paper Def. 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MetapathError
from repro.graph import MetapathScheme
from repro.sampling import MetapathNeighborSampler, stack_blocks


@pytest.fixture
def uiu_sampler(taobao_dataset):
    scheme = taobao_dataset.schemes_for("page_view")[0]  # U-I-U
    return MetapathNeighborSampler(taobao_dataset.graph, scheme, [3, 2], rng=0)


class TestSampleLayers:
    def test_layer_shapes(self, uiu_sampler, taobao_dataset):
        users = taobao_dataset.graph.nodes_of_type("user")[:5]
        blocks = uiu_sampler.sample_layers(np.concatenate([users, users[:2]]))
        np.testing.assert_array_equal(blocks.nodes[0], np.sort(users))
        np.testing.assert_array_equal(blocks.nodes[0][blocks.batch[:5]], users)
        np.testing.assert_array_equal(blocks.batch[5:], blocks.batch[:2])
        assert blocks.children[0].shape == (5, 3)
        assert blocks.children[1].shape == (len(blocks.nodes[1]), 2)
        assert blocks.expand(1).shape == (7, 3)
        assert blocks.expand(2).shape == (7, 6)

    def test_levels_are_sorted_unique_and_children_address_them(self, uiu_sampler,
                                                                taobao_dataset):
        users = taobao_dataset.graph.nodes_of_type("user")[:8]
        blocks = uiu_sampler.sample_layers(users)
        for level in blocks.nodes:
            assert np.all(np.diff(level) > 0)
        for k, children in enumerate(blocks.children):
            assert children.min() >= 0 and children.max() < len(blocks.nodes[k + 1])
            assert np.array_equal(np.unique(children), np.arange(len(blocks.nodes[k + 1])))

    def test_layer_types_follow_scheme(self, uiu_sampler, taobao_dataset):
        graph = taobao_dataset.graph
        users = graph.nodes_of_type("user")[:5]
        blocks = uiu_sampler.sample_layers(users)
        level1_types = {graph.node_type(int(v)) for v in blocks.nodes[1]}
        # Items, except where a user had no item neighbor (self fallback).
        assert level1_types <= {"item", "user"}
        # At least some genuine item neighbors must appear.
        assert "item" in level1_types

    def test_sampled_neighbors_are_guided_neighbors(self, uiu_sampler, taobao_dataset):
        graph = taobao_dataset.graph
        user = int(graph.nodes_of_type("user")[0])
        exact = set(uiu_sampler.guided_neighbors(user, 1).tolist())
        if not exact:
            pytest.skip("start node has no guided neighbors")
        blocks = uiu_sampler.sample_layers(np.asarray([user]))
        sampled = set(blocks.expand(1).reshape(-1).tolist())
        assert sampled <= exact | {user}

    def test_fallback_for_node_without_neighbors(self, taobao_dataset):
        graph = taobao_dataset.graph
        scheme = taobao_dataset.schemes_for("download" if "download" in
                                            graph.schema.relationships else
                                            "purchase")[0]
        sampler = MetapathNeighborSampler(graph, scheme, [2, 2], rng=0)
        users = graph.nodes_of_type("user")
        # Find a user with no 'purchase' neighbors (sparse relation).
        isolated = [u for u in users if graph.degree(int(u), scheme.relations[0]) == 0]
        if not isolated:
            pytest.skip("all users active under the sparse relation")
        blocks = sampler.sample_layers(np.asarray(isolated[:1]))
        np.testing.assert_array_equal(blocks.expand(1)[0], [isolated[0]] * 2)


class TestStackBlocks:
    def test_pads_with_own_nodes_and_offsets_rows(self, taobao_dataset):
        graph = taobao_dataset.graph
        users = graph.nodes_of_type("user")[:6]
        slices = [
            MetapathNeighborSampler(graph, taobao_dataset.schemes_for(r)[0], [3, 2],
                                    rng=seed).sample_layers(users)
            for seed, r in enumerate(graph.schema.relationships)
        ]
        stacked = stack_blocks(slices)
        for k, level in enumerate(stacked.nodes):
            assert level.shape == (len(slices), max(len(b.nodes[k]) for b in slices))
            for row, block in zip(level, slices):
                np.testing.assert_array_equal(row[:len(block.nodes[k])], block.nodes[k])
                assert set(row.tolist()) == set(block.nodes[k].tolist())
        for s, block in enumerate(slices):
            np.testing.assert_array_equal(stacked.expand(2)[s], block.expand(2))


class TestGuidedNeighbors:
    def test_step_zero_is_self(self, uiu_sampler, taobao_dataset):
        user = int(taobao_dataset.graph.nodes_of_type("user")[0])
        np.testing.assert_array_equal(uiu_sampler.guided_neighbors(user, 0), [user])

    def test_step_one_are_typed_relationship_neighbors(self, uiu_sampler, taobao_dataset):
        graph = taobao_dataset.graph
        user = int(graph.nodes_of_type("user")[0])
        guided = uiu_sampler.guided_neighbors(user, 1)
        direct = graph.neighbors(user, "page_view")
        item_code = graph.schema.node_type_index("item")
        expected = sorted(
            int(v) for v in direct if graph.node_type_codes[v] == item_code
        )
        assert guided.tolist() == expected

    def test_out_of_range_step_rejected(self, uiu_sampler):
        with pytest.raises(MetapathError):
            uiu_sampler.guided_neighbors(0, 5)


class TestValidation:
    def test_fanout_count_mismatch(self, taobao_dataset):
        scheme = taobao_dataset.schemes_for("page_view")[0]
        with pytest.raises(MetapathError):
            MetapathNeighborSampler(taobao_dataset.graph, scheme, [3])

    def test_nonpositive_fanout(self, taobao_dataset):
        scheme = taobao_dataset.schemes_for("page_view")[0]
        with pytest.raises(MetapathError):
            MetapathNeighborSampler(taobao_dataset.graph, scheme, [3, 0])

    def test_scheme_must_match_schema(self, small_graph):
        scheme = MetapathScheme.intra(["user", "video", "user"], "view")
        with pytest.raises(MetapathError):
            MetapathNeighborSampler(small_graph, scheme, [2, 2])
