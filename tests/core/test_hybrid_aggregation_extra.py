"""Extra coverage for the hybrid aggregation flows: gradients & determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hybrid_aggregation import ExplorationFlow, MetapathFlow
from repro.nn import Embedding


class TestFlowGradients:
    def test_metapath_flow_trains_feature_table(self, taobao_dataset):
        graph = taobao_dataset.graph
        scheme = taobao_dataset.schemes_for("page_view")[0]
        features = Embedding(graph.num_nodes, 6, rng=0)
        flow = MetapathFlow(graph, [scheme], features, 6, (3, 2), rng=0)
        users = graph.nodes_of_type("user")[:8]
        flow(users).sum().backward()
        assert features.weight.grad is not None
        touched = np.flatnonzero(np.abs(features.weight.grad).sum(axis=1))
        # The batch nodes themselves must receive gradient (self features
        # always participate via the aggregator's self path).
        assert set(users.tolist()) <= set(touched.tolist())

    def test_exploration_flow_trains_aggregators(self, taobao_dataset):
        graph = taobao_dataset.graph
        features = Embedding(graph.num_nodes, 6, rng=0)
        flow = ExplorationFlow(graph, features, 6, depth=2, fanout=3, rng=0)
        flow(np.arange(8)).sum().backward()
        for aggregator in flow.aggregators:
            assert aggregator.combine.weight.grad is not None


class TestFlowDeterminism:
    def test_same_rng_seed_same_output(self, taobao_dataset):
        graph = taobao_dataset.graph
        scheme = taobao_dataset.schemes_for("page_view")[0]

        def build_and_run():
            features = Embedding(graph.num_nodes, 6, rng=1)
            flow = MetapathFlow(graph, [scheme], features, 6, (3, 2), rng=2)
            return flow(graph.nodes_of_type("user")[:5]).data

        np.testing.assert_array_equal(build_and_run(), build_and_run())

    def test_consecutive_calls_resample(self, taobao_dataset):
        """Two forward passes sample different neighborhoods (stochastic)."""
        graph = taobao_dataset.graph
        scheme = taobao_dataset.schemes_for("page_view")[0]
        features = Embedding(graph.num_nodes, 6, rng=1)
        flow = MetapathFlow(graph, [scheme], features, 6, (3, 2), rng=2)
        users = graph.nodes_of_type("user")[:5]
        a = flow(users).data
        b = flow(users).data
        assert not np.allclose(a, b)


class TestFlowShapesAcrossSchemes:
    @pytest.mark.parametrize("pattern_index", [0, 1, 4])
    def test_imdb_scheme_lengths(self, pattern_index):
        """IMDb mixes 2-hop and 4-hop schemes; all must aggregate cleanly."""
        from repro.datasets import load_dataset

        ds = load_dataset("imdb", scale=0.2, seed=0)
        graph = ds.graph
        schemes = ds.schemes_for("credit")
        scheme = schemes[pattern_index]
        features = Embedding(graph.num_nodes, 4, rng=0)
        flow = MetapathFlow(
            graph, [scheme], features, 4, (3, 2, 2, 2), rng=0
        )
        starts = graph.nodes_of_type(scheme.start_type)[:4]
        out = flow(starts)
        assert out.shape == (1, 4, 4)
        assert np.all(np.isfinite(out.data))
