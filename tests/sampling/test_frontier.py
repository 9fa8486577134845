"""Batched frontier walk engine: equivalence with the scalar references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import GraphBuilder, GraphSchema
from repro.sampling import (
    PAD,
    MetapathWalker,
    Node2VecWalker,
    RandomizedExploration,
    UniformRandomWalker,
    concat_matrices,
    context_pairs,
    run_frontier,
)
from repro.verify.references import (
    _node2vec_edge_weights,
    _reference_context_pairs,
    _reference_exploration_walk,
    _reference_metapath_walk,
)


def _padded(walks):
    """List walks as a ``(matrix, lengths)`` pair padded with PAD."""
    lengths = np.asarray([len(w) for w in walks], dtype=np.int64)
    matrix = np.full((len(walks), max([1, *lengths.tolist()])), PAD, dtype=np.int64)
    for row, walk in zip(matrix, walks):
        row[: len(walk)] = walk
    return matrix, lengths


def _rows(matrix, lengths):
    return [row[:n] for row, n in zip(matrix.tolist(), lengths.tolist())]


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------
class TestRunFrontier:
    def test_walk_matrix_shape_and_padding(self):
        def step(nodes, position, walker_ids):
            return nodes + 1, np.ones(nodes.size, dtype=bool)

        matrix, lengths = run_frontier(np.asarray([0, 10]), 4, step)
        assert matrix.shape == (2, 4)
        assert np.array_equal(matrix, [[0, 1, 2, 3], [10, 11, 12, 13]])
        assert np.array_equal(lengths, [4, 4])

    def test_dead_walkers_masked_not_terminated(self):
        # Walker 1 dies at position 1; walker 0 keeps going.
        def step(nodes, position, walker_ids):
            moved = walker_ids != 1
            return nodes + 1, moved

        matrix, lengths = run_frontier(np.asarray([0, 100, 200]), 4, step)
        assert np.array_equal(lengths, [4, 1, 4])
        assert np.array_equal(matrix[1], [100, PAD, PAD, PAD])
        assert np.array_equal(matrix[0], [0, 1, 2, 3])

    def test_all_dead_stops_stepping(self):
        calls = []

        def step(nodes, position, walker_ids):
            calls.append(position)
            return nodes, np.zeros(nodes.size, dtype=bool)

        matrix, lengths = run_frontier(np.asarray([5, 6]), 10, step)
        assert calls == [1]  # no further calls once the frontier is empty
        assert np.array_equal(lengths, [1, 1])

    def test_empty_starts(self):
        matrix, lengths = run_frontier(np.empty(0, dtype=np.int64), 5, None)
        assert matrix.shape[0] == 0 and lengths.shape == (0,)

    def test_walks_matrix_round_trip(self, small_schema):
        """Every row holds its walk's nodes then PAD, and ``lengths`` says
        where the walk ends."""
        builder = GraphBuilder(small_schema)
        builder.add_nodes("user", 2)
        builder.add_nodes("item", 1)
        builder.add_edge(0, 2, "view")
        graph = builder.build()  # node 1 is isolated
        matrix, lengths = UniformRandomWalker(graph, rng=0).walks_matrix(2, 5)
        assert matrix.shape == (6, 5)
        for row, n in zip(matrix, lengths):
            assert np.all(row[:n] != PAD) and np.all(row[n:] == PAD)
        assert sorted(lengths.tolist()) == [1, 1, 5, 5, 5, 5]

    def test_concat_matrices_repads(self):
        a = _padded([[1, 2, 3]])
        b = _padded([[4], [5, 6]])
        matrix, lengths = concat_matrices([a, b])
        assert matrix.shape == (3, 3)
        assert np.array_equal(lengths, [3, 1, 2])
        assert _rows(matrix, lengths) == [[1, 2, 3], [4], [5, 6]]


# ----------------------------------------------------------------------
# Seeded reproducibility: same rng seed -> same walk matrix
# ----------------------------------------------------------------------
class TestReproducibility:
    def test_uniform_walk_matrix_deterministic(self, small_graph):
        starts = np.arange(small_graph.num_nodes)
        m1 = UniformRandomWalker(small_graph, rng=42).walk_matrix(starts, 8)
        m2 = UniformRandomWalker(small_graph, rng=42).walk_matrix(starts, 8)
        assert np.array_equal(m1[0], m2[0])
        assert np.array_equal(m1[1], m2[1])

    def test_node2vec_walk_matrix_deterministic(self, taobao_dataset):
        graph = taobao_dataset.graph
        starts = np.arange(60)
        m1 = Node2VecWalker(graph, p=2.0, q=0.5, rng=7).walk_matrix(starts, 10)
        m2 = Node2VecWalker(graph, p=2.0, q=0.5, rng=7).walk_matrix(starts, 10)
        assert np.array_equal(m1[0], m2[0])

    def test_metapath_walks_matrix_deterministic(self, taobao_dataset):
        graph = taobao_dataset.graph
        scheme = taobao_dataset.schemes_for("page_view")[0]
        m1 = MetapathWalker(graph, scheme, rng=3).walks_matrix(2, 7)
        m2 = MetapathWalker(graph, scheme, rng=3).walks_matrix(2, 7)
        assert np.array_equal(m1[0], m2[0])


# ----------------------------------------------------------------------
# Batched walkers vs scalar references
# ----------------------------------------------------------------------
class TestMetapathEquivalence:
    def test_same_type_sequences_as_reference(self, taobao_dataset):
        graph = taobao_dataset.graph
        scheme = taobao_dataset.schemes_for("page_view")[0]  # U-I-U
        walker = MetapathWalker(graph, scheme, rng=0)
        starts = graph.nodes_of_type("user")
        matrix, lengths = walker.walk_matrix(starts, 9)
        reference = [_reference_metapath_walk(walker, int(s), 9) for s in starts]
        codes = graph.node_type_codes
        for row, n, ref in zip(matrix, lengths, reference):
            batched_types = codes[row[:n]].tolist()
            ref_types = codes[np.asarray(ref)].tolist()
            # Same cyclic type pattern at every shared position.
            shared = min(len(batched_types), len(ref_types))
            assert batched_types[:shared] == ref_types[:shared]

    def test_batched_walks_stay_in_relationship(self, taobao_dataset):
        graph = taobao_dataset.graph
        scheme = taobao_dataset.schemes_for("purchase")[0]
        walker = MetapathWalker(graph, scheme, rng=0)
        matrix, lengths = walker.walks_matrix(1, 7)
        for row, n in zip(matrix, lengths):
            for u, v in zip(row[: n - 1], row[1:n]):
                assert graph.has_edge(int(u), int(v), "purchase")


class TestTransitionDistributions:
    """Batched engine draws from the same distributions as the references."""

    @staticmethod
    def _star_graph(degree: int):
        schema = GraphSchema(["node"], ["link"])
        builder = GraphBuilder(schema)
        builder.add_nodes("node", degree + 1)
        for leaf in range(1, degree + 1):
            builder.add_edge(0, leaf, "link")
        return builder.build()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 10_000))
    def test_uniform_first_step_distribution(self, degree, seed):
        graph = self._star_graph(degree)
        walker = UniformRandomWalker(graph, rng=seed)
        draws = 400 * degree
        matrix, _ = walker.walk_matrix(np.zeros(draws, dtype=np.int64), 2)
        counts = np.bincount(matrix[:, 1], minlength=degree + 1)[1:]
        expected = draws / degree
        assert counts.min() > 0.5 * expected
        assert counts.max() < 2.0 * expected

    @staticmethod
    def _per_node_distribution(walker, prev, cur, num_nodes):
        """Exact next-node distribution, summing over parallel-edge slots."""
        candidates = walker._neighbors(cur)
        slot_probs = _node2vec_edge_weights(walker, prev, candidates)
        slot_probs = slot_probs / slot_probs.sum()
        exact = np.zeros(num_nodes)
        np.add.at(exact, candidates, slot_probs)
        return exact

    def test_node2vec_second_step_matches_reference(self, taobao_dataset):
        """Empirical (prev, cur) -> next frequencies agree between paths."""
        graph = taobao_dataset.graph
        # Find a (prev, cur) pair where cur has several neighbors.
        walker = Node2VecWalker(graph, p=4.0, q=0.25, rng=0)
        degrees = np.diff(walker._indptr)
        cur = int(np.argmax(degrees))
        prev = int(walker._neighbors(cur)[0])
        exact = self._per_node_distribution(walker, prev, cur, graph.num_nodes)

        trials = 6000
        prev_arr = np.full(trials, prev, dtype=np.int64)
        cur_arr = np.full(trials, cur, dtype=np.int64)
        nxt, moved = walker._biased_step(prev_arr, cur_arr)
        assert moved.all()
        empirical = np.zeros(graph.num_nodes)
        np.add.at(empirical, nxt, 1.0 / trials)
        np.testing.assert_allclose(empirical, exact, atol=0.035)

    def test_node2vec_alias_fallback_matches_reference(self, taobao_dataset):
        """A frontier of one walker, where an alias-table fallback once
        took over, draws from the same distribution as a large one."""
        graph = taobao_dataset.graph
        walker = Node2VecWalker(graph, p=4.0, q=0.25, rng=0)
        degrees = np.diff(walker._indptr)
        cur = int(np.argmax(degrees))
        prev = int(walker._neighbors(cur)[0])
        exact = self._per_node_distribution(walker, prev, cur, graph.num_nodes)

        trials = 6000
        hits = np.zeros(graph.num_nodes)
        for _ in range(trials):  # a frontier of one walker per step
            nxt, moved = walker._biased_step(
                np.asarray([prev], dtype=np.int64), np.asarray([cur], dtype=np.int64)
            )
            hits[nxt[0]] += 1.0 / trials
        np.testing.assert_allclose(hits, exact, atol=0.035)

    def test_exploration_batched_matches_scalar_walk(self, taobao_dataset):
        graph = taobao_dataset.graph
        exploration = RandomizedExploration(graph, rng=5)
        matrix, lengths, relations = exploration.walk_matrix(np.arange(40), 6)
        names = exploration._relations
        for row, n, rels in zip(matrix, lengths, relations):
            for t in range(1, int(n)):
                relation = names[int(rels[t])]
                assert graph.has_edge(int(row[t - 1]), int(row[t]), relation)
            assert np.all(rels[int(n):] == PAD)

    def test_exploration_reference_still_valid(self, taobao_dataset):
        graph = taobao_dataset.graph
        exploration = RandomizedExploration(graph, rng=5)
        path, rels = _reference_exploration_walk(exploration, 0, 6)
        assert len(rels) == len(path) - 1
        for (u, v), relation in zip(zip(path, path[1:]), rels):
            assert graph.has_edge(u, v, relation)


# ----------------------------------------------------------------------
# context_pairs: vectorised window extraction is bit-identical to the loop
# ----------------------------------------------------------------------
class TestContextPairEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 30), min_size=0, max_size=14),
            min_size=0, max_size=10,
        ),
        st.integers(1, 6),
    )
    def test_exactly_identical_to_reference(self, corpus, window):
        batched = context_pairs(_padded(corpus), window)
        reference = _reference_context_pairs(corpus, window)
        assert batched.dtype == reference.dtype
        assert np.array_equal(batched, reference)

    def test_matrix_input_identical_to_list_input(self, small_graph):
        """The walker's matrix gives the reference's pairs of its rows as
        lists, whatever width the matrix is padded to."""
        walker = UniformRandomWalker(small_graph, rng=11)
        matrix, lengths = walker.walks_matrix(3, 8)
        reference = _reference_context_pairs(_rows(matrix, lengths), 3)
        widened = np.pad(matrix, ((0, 0), (0, 4)), constant_values=PAD)
        assert np.array_equal(context_pairs((matrix, lengths), 3), reference)
        assert np.array_equal(context_pairs((widened, lengths), 3), reference)

    def test_walk_corpus_equivalence(self, taobao_dataset):
        """End-to-end: random-walk corpus pairs identical across paths."""
        graph = taobao_dataset.graph
        matrix, lengths = UniformRandomWalker(graph, rng=2).walks_matrix(2, 10)
        assert np.array_equal(
            context_pairs((matrix, lengths), 4),
            _reference_context_pairs(_rows(matrix, lengths), 4),
        )


# ----------------------------------------------------------------------
# walks_matrix: one shared round loop for every walker
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["uniform", "node2vec", "metapath"])
def test_walks_matrix_equals_permuted_rounds(taobao_dataset, kind):
    """``walks_matrix`` stacks per-round ``walk_matrix(rng.permutation(starts))``
    blocks, drawing from the walker's generator in that order."""
    graph = taobao_dataset.graph
    scheme = taobao_dataset.schemes_for("page_view")[0]
    every_node = np.arange(graph.num_nodes)
    make, starts = {
        "uniform": (lambda: UniformRandomWalker(graph, rng=5), every_node),
        "node2vec": (lambda: Node2VecWalker(graph, p=2.0, q=0.5, rng=5), every_node),
        "metapath": (lambda: MetapathWalker(graph, scheme, rng=5),
                     graph.nodes_of_type(scheme.start_type)),
    }[kind]
    pooled, pooled_lengths = make().walks_matrix(3, 7)
    twin = make()
    rounds = [twin.walk_matrix(twin._rng.permutation(starts), 7) for _ in range(3)]
    assert np.array_equal(pooled, np.concatenate([m for m, _ in rounds]))
    assert np.array_equal(pooled_lengths, np.concatenate([n for _, n in rounds]))
