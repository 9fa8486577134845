"""Hybrid aggregation flows (Eqs. 3-5) and the layered aggregation kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hybrid_aggregation import (
    ExplorationFlow,
    MetapathFlow,
    RandomNeighborFlow,
    aggregate_layers,
)
from repro.nn import Embedding, MeanAggregator, ModuleList


@pytest.fixture
def features():
    return Embedding(200, 6, rng=0)


class TestAggregateLayers:
    def test_output_shape(self, features):
        layers = [
            np.arange(4),
            np.arange(12).reshape(4, 3),
            np.arange(24).reshape(4, 6),
        ]
        aggs = ModuleList([MeanAggregator(6, 6, rng=0), MeanAggregator(6, 6, rng=1)])
        out = aggregate_layers(layers, [3, 2], features, aggs)
        assert out.shape == (4, 6)

    def test_single_hop(self, features):
        layers = [np.arange(5), np.arange(15).reshape(5, 3)]
        aggs = ModuleList([MeanAggregator(6, 6, rng=0)])
        out = aggregate_layers(layers, [3], features, aggs)
        assert out.shape == (5, 6)

    def test_gradients_reach_feature_table(self, features):
        layers = [np.arange(3), np.arange(9).reshape(3, 3)]
        aggs = ModuleList([MeanAggregator(6, 6, rng=0)])
        out = aggregate_layers(layers, [3], features, aggs)
        out.sum().backward()
        assert features.weight.grad is not None
        assert np.any(features.weight.grad != 0)


class TestMetapathFlow:
    def test_forward_shape(self, taobao_dataset):
        graph = taobao_dataset.graph
        scheme = taobao_dataset.schemes_for("page_view")[0]
        features = Embedding(graph.num_nodes, 6, rng=0)
        flow = MetapathFlow(graph, [scheme], features, 6, (3, 2), rng=0)
        users = graph.nodes_of_type("user")[:7]
        out = flow(users)
        assert out.shape == (1, 7, 6)

    def test_label_and_start_type(self, taobao_dataset):
        graph = taobao_dataset.graph
        scheme = taobao_dataset.schemes_for("page_view")[0]
        features = Embedding(graph.num_nodes, 6, rng=0)
        flow = MetapathFlow(graph, [scheme], features, 6, (3, 2), rng=0)
        assert flow.labels == ["U-I-U"]
        assert flow.start_type == "user"

    def test_too_few_fanouts_rejected(self, taobao_dataset):
        graph = taobao_dataset.graph
        scheme = taobao_dataset.schemes_for("page_view")[0]
        features = Embedding(graph.num_nodes, 6, rng=0)
        with pytest.raises(ValueError):
            MetapathFlow(graph, [scheme], features, 6, (3,), rng=0)

    @pytest.mark.parametrize("aggregator", ["mean", "pool", "lstm"])
    def test_all_aggregator_kinds(self, taobao_dataset, aggregator):
        graph = taobao_dataset.graph
        scheme = taobao_dataset.schemes_for("page_view")[0]
        features = Embedding(graph.num_nodes, 4, rng=0)
        flow = MetapathFlow(
            graph, [scheme], features, 4, (2, 2), aggregator=aggregator, rng=0
        )
        out = flow(graph.nodes_of_type("user")[:3])
        assert out.shape == (1, 3, 4)


class TestExplorationFlow:
    def test_forward_shape(self, taobao_dataset):
        graph = taobao_dataset.graph
        features = Embedding(graph.num_nodes, 6, rng=0)
        flow = ExplorationFlow(graph, features, 6, depth=2, fanout=3, rng=0)
        out = flow(np.arange(9))
        assert out.shape == (9, 6)

    def test_depth_one(self, taobao_dataset):
        graph = taobao_dataset.graph
        features = Embedding(graph.num_nodes, 6, rng=0)
        flow = ExplorationFlow(graph, features, 6, depth=1, fanout=4, rng=0)
        assert flow(np.arange(5)).shape == (5, 6)

    def test_label(self, taobao_dataset):
        graph = taobao_dataset.graph
        features = Embedding(graph.num_nodes, 6, rng=0)
        flow = ExplorationFlow(graph, features, 6, depth=1, fanout=2, rng=0)
        assert flow.label == "random"


class TestRandomNeighborFlow:
    def test_forward_shape(self, taobao_dataset):
        graph = taobao_dataset.graph
        features = Embedding(graph.num_nodes, 6, rng=0)
        flow = RandomNeighborFlow(
            graph, ["page_view"], features, 6, depth=2, fanout=3, rng=0
        )
        assert flow(np.arange(6)).shape == (1, 6, 6)
