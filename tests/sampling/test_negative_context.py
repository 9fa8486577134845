"""Negative sampling distributions and skip-gram context extraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.sampling import PAD, UnigramNegativeSampler, context_pairs


def _pairs(walks, window):
    """``context_pairs`` of list walks, padded into the matrix form."""
    lengths = np.asarray([len(w) for w in walks], dtype=np.int64)
    matrix = np.full((len(walks), max([1, *lengths.tolist()])), PAD, dtype=np.int64)
    for row, walk in zip(matrix, walks):
        row[: len(walk)] = walk
    return context_pairs((matrix, lengths), window)


class TestUnigramNegativeSampler:
    def test_sample_shapes(self, small_graph):
        sampler = UnigramNegativeSampler(small_graph, rng=0)
        assert sampler.sample(10).shape == (10,)
        assert sampler.sample(10, node_type="item").shape == (10,)

    def test_typed_sampling_respects_type(self, small_graph):
        sampler = UnigramNegativeSampler(small_graph, rng=0)
        draws = sampler.sample(200, node_type="item")
        assert set(draws.tolist()) <= {3, 4, 5, 6}

    def test_sample_like_matches_types(self, small_graph):
        sampler = UnigramNegativeSampler(small_graph, rng=0)
        nodes = np.asarray([0, 3, 1, 4])  # user, item, user, item
        negatives = sampler.sample_like(nodes, 5)
        assert negatives.shape == (4, 5)
        for node, row in zip(nodes, negatives):
            expected = small_graph.node_type(int(node))
            for neg in row:
                assert small_graph.node_type(int(neg)) == expected

    def test_degree_biased(self, taobao_dataset):
        """Higher-degree nodes should be drawn more often (power 0.75)."""
        graph = taobao_dataset.graph
        sampler = UnigramNegativeSampler(graph, rng=0)
        draws = sampler.sample(30_000)
        counts = np.bincount(draws, minlength=graph.num_nodes)
        degrees = graph.degrees()
        top = np.argsort(degrees)[-15:]
        bottom = np.argsort(degrees)[:15]
        assert counts[top].mean() > counts[bottom].mean()

    def test_uniform_when_power_zero(self, small_graph):
        sampler = UnigramNegativeSampler(small_graph, power=0.0, rng=0)
        draws = sampler.sample(20_000)
        counts = np.bincount(draws, minlength=small_graph.num_nodes)
        assert counts.min() > 0.8 * counts.mean()

    def test_invalid_size_rejected(self, small_graph):
        sampler = UnigramNegativeSampler(small_graph, rng=0)
        with pytest.raises(SamplingError):
            sampler.sample(0)


class TestContextPairs:
    def test_window_one(self):
        pairs = _pairs([[1, 2, 3]], window=1)
        as_set = {tuple(p) for p in pairs.tolist()}
        assert as_set == {(1, 2), (2, 1), (2, 3), (3, 2)}

    def test_window_two_includes_skips(self):
        pairs = _pairs([[1, 2, 3]], window=2)
        as_set = {tuple(p) for p in pairs.tolist()}
        assert (1, 3) in as_set and (3, 1) in as_set

    def test_empty_and_singleton_walks(self):
        assert _pairs([[], [7]], window=2).shape == (0, 2)

    def test_pair_count_formula(self):
        """A walk of length L with window w has sum over i of |C(v_i)| pairs."""
        walk = list(range(10))
        pairs = _pairs([walk], window=3)
        expected = sum(
            min(len(walk), i + 4) - max(0, i - 3) - 1 for i in range(len(walk))
        )
        assert len(pairs) == expected

    def test_invalid_window_rejected(self):
        with pytest.raises(SamplingError):
            _pairs([[1, 2]], window=0)

