"""Random-walk samplers: uniform, node2vec-biased and metapath-guided."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MetapathError
from repro.graph import MetapathScheme
from repro.sampling import (
    MetapathWalker,
    Node2VecWalker,
    UniformRandomWalker,
    relationship_walk_matrix,
)


def _walk(walker, start, length):
    """One walk from ``start`` as a list (a one-row ``walk_matrix``)."""
    matrix, lengths = walker.walk_matrix(np.asarray([start]), length)
    return matrix[0, : lengths[0]].tolist()


class TestUniformWalker:
    def test_walk_stays_on_edges(self, small_graph):
        walker = UniformRandomWalker(small_graph, rng=0)
        walk = _walk(walker, 0, 10)
        for u, v in zip(walk, walk[1:]):
            assert any(
                small_graph.has_edge(u, v, rel)
                for rel in small_graph.schema.relationships
            )

    def test_walk_length_bounded(self, small_graph):
        walker = UniformRandomWalker(small_graph, rng=0)
        assert len(_walk(walker, 0, 5)) <= 5

    def test_walk_from_isolated_node_stops(self, small_schema):
        from repro.graph import GraphBuilder

        builder = GraphBuilder(small_schema)
        builder.add_nodes("user", 2)
        builder.add_nodes("item", 1)
        builder.add_edge(0, 2, "view")
        graph = builder.build()
        walker = UniformRandomWalker(graph, rng=0)
        assert _walk(walker, 1, 10) == [1]

    def test_relation_restricted_walk(self, small_graph):
        walker = UniformRandomWalker(small_graph, relation="buy", rng=0)
        walk = _walk(walker, 0, 8)
        for u, v in zip(walk, walk[1:]):
            assert small_graph.has_edge(u, v, "buy")

    def test_walks_covers_all_nodes(self, small_graph):
        walker = UniformRandomWalker(small_graph, rng=0)
        matrix, _ = walker.walks_matrix(num_walks=2, length=4)
        assert len(matrix) == 2 * small_graph.num_nodes
        assert set(matrix[:, 0].tolist()) == set(range(small_graph.num_nodes))

    def test_deterministic_with_seed(self, small_graph):
        m1, n1 = UniformRandomWalker(small_graph, rng=42).walks_matrix(1, 6)
        m2, n2 = UniformRandomWalker(small_graph, rng=42).walks_matrix(1, 6)
        assert np.array_equal(m1, m2) and np.array_equal(n1, n2)


class TestNode2VecWalker:
    def test_walk_stays_on_edges(self, small_graph):
        walker = Node2VecWalker(small_graph, p=2.0, q=0.5, rng=0)
        walk = _walk(walker, 0, 10)
        for u, v in zip(walk, walk[1:]):
            assert any(
                small_graph.has_edge(u, v, rel)
                for rel in small_graph.schema.relationships
            )

    def test_invalid_pq_rejected(self, small_graph):
        with pytest.raises(ValueError):
            Node2VecWalker(small_graph, p=0.0)
        with pytest.raises(ValueError):
            Node2VecWalker(small_graph, q=-1.0)

    def test_high_p_discourages_backtracking(self, taobao_dataset):
        """With p >> 1 the walk should backtrack less than with p << 1."""
        graph = taobao_dataset.graph

        def backtrack_rate(p):
            walker = Node2VecWalker(graph, p=p, q=1.0, rng=3)
            backtracks = total = 0
            matrix, lengths = walker.walks_matrix(1, 10, nodes=np.arange(0, 60))
            for walk, n in zip(matrix.tolist(), lengths.tolist()):
                for i in range(2, n):
                    total += 1
                    backtracks += walk[i] == walk[i - 2]
            return backtracks / max(1, total)

        assert backtrack_rate(20.0) < backtrack_rate(0.05)


class TestMetapathWalker:
    def test_walk_follows_type_pattern(self, taobao_dataset):
        graph = taobao_dataset.graph
        scheme = taobao_dataset.schemes_for("page_view")[0]  # U-I-U
        walker = MetapathWalker(graph, scheme, rng=0)
        start = int(graph.nodes_of_type("user")[0])
        walk = _walk(walker, start, 9)
        expected_cycle = ["user", "item"]
        for position, node in enumerate(walk):
            assert graph.node_type(node) == expected_cycle[position % 2]

    def test_walk_stays_in_relationship_subgraph(self, taobao_dataset):
        graph = taobao_dataset.graph
        scheme = taobao_dataset.schemes_for("purchase")[0]
        walker = MetapathWalker(graph, scheme, rng=0)
        start = int(graph.nodes_of_type("user")[0])
        walk = _walk(walker, start, 7)
        for u, v in zip(walk, walk[1:]):
            assert graph.has_edge(u, v, "purchase")

    def test_wrong_start_type_rejected(self, taobao_dataset):
        graph = taobao_dataset.graph
        scheme = taobao_dataset.schemes_for("page_view")[0]  # starts at user
        walker = MetapathWalker(graph, scheme, rng=0)
        item = int(graph.nodes_of_type("item")[0])
        with pytest.raises(MetapathError):
            _walk(walker, item, 5)

    def test_inter_relationship_scheme_rejected(self, taobao_dataset):
        graph = taobao_dataset.graph
        scheme = MetapathScheme(
            ["user", "item", "user"], ["page_view", "purchase"]
        )
        with pytest.raises(MetapathError):
            MetapathWalker(graph, scheme)

    def test_relationship_walks_pools_schemes(self, taobao_dataset):
        graph = taobao_dataset.graph
        schemes = taobao_dataset.schemes_for("page_view")
        matrix, _ = relationship_walk_matrix(graph, schemes, num_walks=1,
                                             length=5, rng=0)
        starts = {graph.node_type(int(start)) for start in matrix[:, 0]}
        assert starts == {"user", "item"}  # U-I-U starts + I-U-I starts
