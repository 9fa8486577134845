"""Randomized inter-relationship exploration (paper Sect. III-B, Eqs. 1-2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sampling import PAD, RandomizedExploration


class TestTransitionProbabilities:
    def test_eq1_uniform_over_active_relationships(self, small_graph):
        explorer = RandomizedExploration(small_graph, rng=0)
        # Node 0 has neighbors under both relationships.
        probs = explorer.transition_probabilities(0)
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_eq1_zero_for_empty_relationships(self, small_graph):
        explorer = RandomizedExploration(small_graph, rng=0)
        # Node 6 only has a 'view' neighbor.
        probs = explorer.transition_probabilities(6)
        np.testing.assert_allclose(probs, [1.0, 0.0])

    def test_eq1_all_zero_for_isolated_node(self, small_schema):
        from repro.graph import GraphBuilder

        builder = GraphBuilder(small_schema)
        builder.add_nodes("user", 2)
        builder.add_nodes("item", 1)
        builder.add_edge(0, 2, "view")
        graph = builder.build()
        explorer = RandomizedExploration(graph, rng=0)
        np.testing.assert_allclose(explorer.transition_probabilities(1), [0.0, 0.0])


class TestStep:
    def test_step_moves_along_some_relationship(self, small_graph):
        explorer = RandomizedExploration(small_graph, rng=0)
        nodes = np.asarray([0, 1, 2])
        next_nodes, chosen = explorer.step(nodes)
        for before, after, rel_idx in zip(nodes, next_nodes, chosen):
            relation = small_graph.schema.relationships[rel_idx]
            assert small_graph.has_edge(int(before), int(after), relation)

    def test_isolated_node_stays(self, small_schema):
        from repro.graph import GraphBuilder

        builder = GraphBuilder(small_schema)
        builder.add_nodes("user", 2)
        builder.add_nodes("item", 1)
        builder.add_edge(0, 2, "view")
        graph = builder.build()
        explorer = RandomizedExploration(graph, rng=0)
        next_nodes, chosen = explorer.step(np.asarray([1]))
        assert next_nodes[0] == 1
        assert chosen[0] == -1

    def test_empirical_relation_distribution_matches_eq1(self, small_graph):
        """Phase-1 sampling should be uniform over active relationships."""
        explorer = RandomizedExploration(small_graph, rng=0)
        nodes = np.zeros(4000, dtype=np.int64)  # node 0: both relations active
        _, chosen = explorer.step(nodes)
        frequencies = np.bincount(chosen, minlength=2) / len(nodes)
        np.testing.assert_allclose(frequencies, [0.5, 0.5], atol=0.05)

    def test_empirical_neighbor_distribution_matches_eq2(self, small_graph):
        """Phase-2 sampling is uniform over N_r(v)."""
        explorer = RandomizedExploration(small_graph, rng=1)
        nodes = np.zeros(6000, dtype=np.int64)
        next_nodes, chosen = explorer.step(nodes)
        # Conditioned on relation 'view' (index 0), node 0's neighbors are 3, 4.
        view_targets = next_nodes[chosen == 0]
        counts = np.bincount(view_targets, minlength=7)
        assert counts[3] > 0 and counts[4] > 0
        ratio = counts[3] / counts[4]
        assert 0.8 < ratio < 1.25


class TestWalkAndLayers:
    def test_walk_crosses_relationships(self, taobao_dataset):
        """On a multiplex graph, long exploration walks should use more than
        one relationship (the whole point of inter-relationship sampling)."""
        explorer = RandomizedExploration(taobao_dataset.graph, rng=0)
        _, _, relations = explorer.walk_matrix(np.arange(40), 12)
        used = set(relations[:, 1:][relations[:, 1:] != PAD].tolist())
        assert len(used) > 1

    def test_walk_edges_exist(self, small_graph):
        explorer = RandomizedExploration(small_graph, rng=0)
        matrix, lengths, relations = explorer.walk_matrix(np.asarray([0]), 10)
        path = matrix[0, : lengths[0]].tolist()
        names = [explorer._relations[r] for r in relations[0, 1: lengths[0]]]
        for (u, v), relation in zip(zip(path, path[1:]), names):
            assert small_graph.has_edge(u, v, relation)

    def test_sample_layers_shapes(self, small_graph):
        explorer = RandomizedExploration(small_graph, rng=0)
        blocks = explorer.sample_layers(np.asarray([0, 1, 2, 3, 1]), 2, [3, 2])
        np.testing.assert_array_equal(blocks.nodes[0], [0, 1, 2, 3])
        assert blocks.children[0].shape == (4, 3)
        assert blocks.children[1].shape == (len(blocks.nodes[1]), 2)
        assert blocks.expand(1).shape == (5, 3)
        assert blocks.expand(2).shape == (5, 6)

    def test_sample_layers_depth_mismatch_rejected(self, small_graph):
        explorer = RandomizedExploration(small_graph, rng=0)
        with pytest.raises(ValueError):
            explorer.sample_layers(np.asarray([0]), 2, [3])

    def test_layer_entries_are_neighbors_of_parents(self, small_graph):
        explorer = RandomizedExploration(small_graph, rng=0)
        blocks = explorer.sample_layers(np.asarray([0, 1]), 1, [4])
        for row, parent in zip(blocks.expand(1), [0, 1]):
            for child in row:
                connected = any(
                    small_graph.has_edge(int(parent), int(child), rel)
                    for rel in small_graph.schema.relationships
                )
                assert connected or child == parent
