"""Property-based tests for the sampling primitives (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.adjacency import sample_uniform_neighbors, step_uniform


@st.composite
def csr_adjacency(draw):
    """A random small CSR adjacency (not necessarily symmetric)."""
    num_nodes = draw(st.integers(2, 8))
    rows = []
    indices = []
    indptr = [0]
    for node in range(num_nodes):
        degree = draw(st.integers(0, 4))
        neighbors = draw(
            st.lists(st.integers(0, num_nodes - 1), min_size=degree,
                     max_size=degree)
        )
        indices.extend(neighbors)
        indptr.append(len(indices))
    return (
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.int64),
        num_nodes,
    )


@settings(max_examples=60, deadline=None)
@given(csr_adjacency(), st.integers(1, 5), st.integers(0, 10_000))
def test_sampled_neighbors_come_from_adjacency(adj, count, seed):
    indptr, indices, num_nodes = adj
    rng = np.random.default_rng(seed)
    nodes = np.arange(num_nodes)
    sampled = sample_uniform_neighbors(indptr, indices, nodes, count, rng)
    assert sampled.shape == (num_nodes, count)
    for node in range(num_nodes):
        neighbors = set(indices[indptr[node]: indptr[node + 1]].tolist())
        for value in sampled[node]:
            if neighbors:
                assert int(value) in neighbors
            else:
                assert int(value) == node  # self fallback


@settings(max_examples=60, deadline=None)
@given(csr_adjacency(), st.integers(0, 10_000))
def test_step_uniform_moves_only_along_edges(adj, seed):
    indptr, indices, num_nodes = adj
    rng = np.random.default_rng(seed)
    nodes = np.arange(num_nodes)
    next_nodes, moved = step_uniform(indptr, indices, nodes, rng)
    for node in range(num_nodes):
        neighbors = set(indices[indptr[node]: indptr[node + 1]].tolist())
        if moved[node]:
            assert int(next_nodes[node]) in neighbors
        else:
            assert not neighbors
            assert next_nodes[node] == node


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), st.integers(1, 6), st.integers(0, 1000))
def test_sampling_is_uniform_over_neighbors(degree, count, seed):
    """Chi-square-lite: with many draws each neighbor appears roughly equally."""
    indptr = np.asarray([0, degree], dtype=np.int64)
    indices = np.arange(1, degree + 1, dtype=np.int64) % (degree + 1)
    rng = np.random.default_rng(seed)
    draws = sample_uniform_neighbors(
        indptr, indices, np.zeros(4000 // count, dtype=np.int64), count, rng
    ).reshape(-1)
    counts = np.bincount(draws, minlength=degree + 2)[1: degree + 1]
    expected = len(draws) / degree
    assert counts.min() > 0.3 * expected
    assert counts.max() < 3.0 * expected


class TestContextPairProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=2, max_size=15),
           st.integers(1, 5))
    def test_pairs_symmetric(self, walk, window):
        from repro.sampling import context_pairs

        walks = (np.asarray([walk]), np.asarray([len(walk)]))
        pairs = {tuple(p) for p in context_pairs(walks, window).tolist()}
        for center, context in pairs:
            assert (context, center) in pairs

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=2, max_size=15),
           st.integers(1, 5))
    def test_pairs_within_window(self, walk, window):
        from repro.sampling import context_pairs

        pairs = context_pairs((np.asarray([walk]), np.asarray([len(walk)])), window)
        for center, context in pairs.tolist():
            # Some position pair within the window must justify this pair.
            ok = any(
                walk[i] == center and walk[k] == context
                for i in range(len(walk))
                for k in range(max(0, i - window), min(len(walk), i + window + 1))
                if k != i
            )
            assert ok
