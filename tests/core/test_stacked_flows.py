"""Stacked relationship flows: op count, slice equivalence, evaluation draws,
grouping, old checkpoints."""

from __future__ import annotations

import collections
import json

import numpy as np
import pytest

from repro.core import (
    HybridGNN,
    HybridGNNConfig,
    MetapathFlow,
    SkipGramTrainer,
    TrainerConfig,
)
from repro.core.persistence import load_checkpoint_into
from repro.datasets import load_dataset, split_edges
from repro.errors import CheckError
from repro.graph.schema import intra_relationship_schemes
from repro.nn import Embedding
from repro.nn.tracing import set_trace_handler
from repro.sampling import MetapathNeighborSampler


def test_one_taobao_xl_step_builds_at_most_175_ops():
    """One seeded training step at batch 256 builds a bounded op graph."""
    dataset = load_dataset("taobao-xl", scale=0.00046, seed=1)
    split = split_edges(dataset.graph, rng=1)
    schemes = dataset.all_schemes()
    model = HybridGNN(split.train_graph, schemes, HybridGNNConfig(), rng=1)
    trainer = SkipGramTrainer(model, schemes, split,
                              TrainerConfig(num_walks=1, batch_size=256), rng=1)
    batch = next(b for b in trainer.make_batches(trainer.generate_pairs())
                 if len(b[1]) == 256)
    ops = collections.Counter()
    previous = set_trace_handler(lambda out, parents, op, attrs: ops.update([op]))
    try:
        trainer.apply_updates([batch])
    finally:
        set_trace_handler(previous)
    assert 0 < sum(ops.values()) <= 175, ops


def test_slice_equals_per_relationship_flow_by_hand(taobao_dataset):
    """Slice r of a stacked flow is relationship r's own flow (Eq. 3),
    computed once per unique node of each hop's block."""
    graph = taobao_dataset.graph
    relations = list(graph.schema.relationships)
    schemes = [taobao_dataset.schemes_for(r)[0] for r in relations]
    features = Embedding(graph.num_nodes, 4, rng=0)
    flow = MetapathFlow(graph, schemes, features, 4, (3, 2), rng=0)
    nodes = np.concatenate([graph.nodes_of_type("user")[:6]] * 2)[::-1]
    r = 2
    state = flow.generators[r].bit_generator.state
    stacked = flow(nodes).data
    flow.generators[r].bit_generator.state = state
    blocks = MetapathNeighborSampler(graph, schemes[r], flow.fanouts,
                                     rng=flow.generators[r]).sample_layers(nodes)

    table = features.weight.data
    hidden = [table[level] for level in blocks.nodes]
    for k, aggregator in enumerate(flow.aggregators):
        weight = aggregator.combine.weight.data[r]  # (2d + 1, d): bias last
        collapsed = []
        for j in range(len(hidden) - 1):
            pooled = hidden[j + 1][blocks.children[j]].mean(axis=1)
            merged = np.concatenate([hidden[j], pooled], axis=1)
            collapsed.append(np.maximum(merged @ weight[:-1] + weight[-1], 0.0))
        hidden = collapsed
    assert stacked.shape == (len(relations), len(nodes), 4)
    np.testing.assert_allclose(stacked[r], hidden[0][blocks.batch], rtol=1e-12, atol=1e-12)


def test_padded_stack_slots_add_no_gradient_rows(taobao_dataset):
    """The feature gradient covers exactly the nodes some slice sampled."""
    graph = taobao_dataset.graph
    relations = list(graph.schema.relationships)
    schemes = [taobao_dataset.schemes_for(r)[0] for r in relations]
    features = Embedding(graph.num_nodes, 4, rng=0)
    flow = MetapathFlow(graph, schemes, features, 4, (3, 2), rng=0)
    nodes = graph.nodes_of_type("user")[:6]
    states = [generator.bit_generator.state for generator in flow.generators]
    flow(nodes).sum().backward()
    sampled = []
    for scheme, generator, state in zip(schemes, flow.generators, states):
        generator.bit_generator.state = state
        sampled += MetapathNeighborSampler(graph, scheme, flow.fanouts,
                                           rng=generator).sample_layers(nodes).nodes
    widths = {len(level) for level in sampled[1::3]}
    assert len(widths) > 1, "the slices must differ in width for padding to occur"
    rows, _ = features.weight.grad_rows()
    np.testing.assert_array_equal(rows, np.unique(np.concatenate(sampled)))


@pytest.mark.parametrize("overrides", [{}, {"use_relationship_attention": False}])
def test_forward_is_column_of_forward_all(taobao_dataset, taobao_split, overrides):
    """Same seed, same sampler state: every sampler owns its RNG, so r's
    samples match even when forward runs relationship r's flows only."""
    config = HybridGNNConfig(base_dim=8, edge_dim=4, metapath_fanouts=(3, 2),
                             exploration_fanout=3, exploration_depth=1, **overrides)
    graph = taobao_split.train_graph
    nodes = np.concatenate([graph.nodes_of_type("item")[:3],
                            graph.nodes_of_type("user")[:4]])
    for index, relation in enumerate(graph.schema.relationships):
        one = HybridGNN(graph, taobao_dataset.all_schemes(), config, rng=3)
        every = HybridGNN(graph, taobao_dataset.all_schemes(), config, rng=3)
        np.testing.assert_allclose(one(nodes, relation).data,
                                   every.forward_all(nodes).data[:, index],
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("overrides", [{}, {"use_hybrid_flows": False}])
def test_embedding_fill_leaves_sampler_streams_unchanged(taobao_dataset, taobao_split,
                                                         overrides):
    """Evaluating between steps does not change what the next step samples."""
    config = HybridGNNConfig(base_dim=8, edge_dim=4, **overrides)
    graph = taobao_split.train_graph
    nodes = graph.nodes_of_type("user")[:5]
    quiet = HybridGNN(graph, taobao_dataset.all_schemes(), config, rng=3)
    filled = HybridGNN(graph, taobao_dataset.all_schemes(), config, rng=3)
    filled.node_embeddings(nodes, "purchase")
    np.testing.assert_array_equal(quiet.forward_all(nodes).data,
                                  filled.forward_all(nodes).data)


def test_irregular_schemes_form_two_groups_and_train(taobao_dataset, taobao_split,
                                                     tiny_hybrid_config):
    graph = taobao_split.train_graph
    schemes = {r: list(s) for r, s in taobao_dataset.all_schemes().items()}
    schemes["purchase"] += intra_relationship_schemes(
        ("U-I-U-I-U",), ["purchase"], {"U": "user", "I": "item"})["purchase"]
    model = HybridGNN(graph, schemes, tiny_hybrid_config, rng=0)
    user_groups = list(model.flows["user"])
    assert len(user_groups) == 2
    assert sorted(len(g.relations) for g in user_groups) == [1, 3]
    assert len(list(model.flows["item"])) == 1

    trainer = SkipGramTrainer(model, schemes, taobao_split,
                              TrainerConfig(num_walks=1, batch_size=64,
                                            max_batches_per_epoch=6), rng=0)
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    loss = trainer.apply_updates(trainer.make_batches(trainer.generate_pairs()))
    assert np.isfinite(loss)
    moved = {n for n, p in model.named_parameters() if not np.array_equal(p.data, before[n])}
    for group in user_groups:
        for flow in group.stacks:
            assert any(id(p) == id(flow.aggregators[0].combine.weight)
                       for n, p in model.named_parameters() if n in moved)
    embeddings = model.node_embeddings(np.arange(graph.num_nodes), "purchase")
    assert np.all(np.isfinite(embeddings))


def test_pre_stacking_checkpoint_fails_with_typed_c007(taobao_dataset, taobao_split,
                                                      tiny_hybrid_config, tmp_path):
    model = HybridGNN(taobao_split.train_graph, taobao_dataset.all_schemes(),
                      tiny_hybrid_config, rng=0)
    state = {name: value for name, value in model.state_dict().items()
             if not name.startswith(("flows.", "metapath_attention.",
                                     "output_transforms"))}
    # The per-relationship layout written before the relationship axis
    # became a tensor axis.
    legacy = [
        "flows.items.page_view.items.0.aggregators.items.0.combine.weight",
        "metapath_attention.items.page_view.attention.query.weight",
        "output_transforms.items.page_view.weight",
    ]
    for key in legacy:
        state[key] = np.zeros((4, 4))
    meta = json.dumps({"format": "repro-checkpoint", "version": 1,
                       "parameters": sorted(state)})
    path = tmp_path / "pre_stacking.npz"
    np.savez_compressed(path, **state, __meta__=np.asarray(meta))

    with pytest.raises(CheckError, match="C007") as excinfo:
        load_checkpoint_into(model, path)
    for key in legacy:
        assert key in str(excinfo.value)
