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
from repro.sampling import Blocks


@pytest.fixture
def features():
    return Embedding(200, 6, rng=0)


def chain_blocks(widths, fanouts, batch=None):
    """Blocks whose level j holds ``widths[j]`` fresh ids; each level-j
    node's children are consecutive rows of level j+1, wrapping around."""
    starts = np.cumsum([0] + list(widths))
    nodes = [np.arange(a, b) for a, b in zip(starts[:-1], starts[1:])]
    children = [np.arange(w * f).reshape(w, f) % nxt
                for w, f, nxt in zip(widths, fanouts, widths[1:])]
    batch = np.arange(widths[0]) if batch is None else np.asarray(batch)
    return Blocks(nodes, children, batch)


class RecordingFeatures(Embedding):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def forward(self, indices):
        self.calls.append(np.asarray(indices).copy())
        return super().forward(indices)


class TestAggregateLayers:
    def test_output_shape(self, features):
        aggs = ModuleList([MeanAggregator(6, 6, rng=0), MeanAggregator(6, 6, rng=1)])
        out = aggregate_layers(chain_blocks([4, 12, 24], [3, 2]), features, aggs)
        assert out.shape == (4, 6)

    def test_single_hop(self, features):
        aggs = ModuleList([MeanAggregator(6, 6, rng=0)])
        out = aggregate_layers(chain_blocks([5, 15], [3]), features, aggs)
        assert out.shape == (5, 6)

    def test_gradients_reach_feature_table(self, features):
        aggs = ModuleList([MeanAggregator(6, 6, rng=0)])
        out = aggregate_layers(chain_blocks([3, 9], [3]), features, aggs)
        out.sum().backward()
        assert features.weight.grad is not None
        assert np.any(features.weight.grad != 0)

    def test_repeated_batch_entries_share_one_row(self, features):
        aggs = ModuleList([MeanAggregator(6, 6, rng=0), MeanAggregator(6, 6, rng=1)])
        out = aggregate_layers(chain_blocks([3, 6, 4], [2, 2], batch=[2, 0, 2, 1, 0]),
                               features, aggs).data
        np.testing.assert_array_equal(out[0], out[2])
        np.testing.assert_array_equal(out[1], out[4])
        assert not np.array_equal(out[0], out[1])

    def test_one_sorted_unique_lookup_whose_gradient_skips_reduction(self):
        features = RecordingFeatures(200, 6, rng=0)
        blocks = chain_blocks([3, 6, 4], [2, 2])
        # Overlapping levels: level 2 reuses level 0's ids.
        blocks = blocks._replace(nodes=blocks.nodes[:2] + [np.arange(4)])
        aggs = ModuleList([MeanAggregator(6, 6, rng=0), MeanAggregator(6, 6, rng=1)])
        aggregate_layers(blocks, features, aggs).sum().backward()
        (ids,) = features.calls
        np.testing.assert_array_equal(ids, np.arange(9))
        rows, values = features.weight.grad_rows()
        np.testing.assert_array_equal(rows, ids)
        assert values.shape == (9, 6)


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

    def test_empty_batch_gives_empty_output(self, taobao_dataset):
        graph = taobao_dataset.graph
        scheme = taobao_dataset.schemes_for("page_view")[0]
        features = Embedding(graph.num_nodes, 6, rng=0)
        flow = MetapathFlow(graph, [scheme, scheme], features, 6, (3, 2), rng=0)
        out = flow(np.zeros(0, dtype=np.int64))
        assert out.shape == (2, 0, 6)
        out.sum().backward()


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
