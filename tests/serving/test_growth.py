"""Serving tables grow in place: cold nodes and compactions refill nothing."""

from __future__ import annotations

import numpy as np

from repro.core import EmbeddingStore
from repro.datasets import load_dataset
from repro.serving import BatchServingEngine, RecommendService, ServiceConfig
from repro.serving.service import ColdStartEmbedder


def test_cold_nodes_and_compaction_keep_every_table():
    graph = load_dataset("taobao", scale=0.1, seed=0).graph
    relations = list(graph.schema.relationships)
    rng = np.random.default_rng(3)
    store = EmbeddingStore({
        relation: rng.standard_normal((graph.num_nodes, 8))
        for relation in relations
    })
    service = RecommendService(store, graph, config=ServiceConfig(
        flush_interval=0.0, compaction_threshold=8,
    ))
    engine = service.engine
    for relation in relations:
        service.recommend(0, relation)
        service.similar(0, relation)
    misses = engine.cache.misses
    assert misses == len(relations)

    users = graph.nodes_of_type("user")
    items = graph.nodes_of_type("item")
    relation = relations[0]
    cold = []
    for u, v in [(users[0], items[1]), (users[2], items[3])]:
        # A cold user, then a cold item, each beside a warm endpoint.
        new_user = service.view.num_nodes
        service.feedback(new_user, int(v), relation, source_type="user")
        new_item = service.view.num_nodes
        service.feedback(int(u), new_item, relation, target_type="item")
        cold += [new_user, new_item]
    assert service.view.compactions == 0
    # Four more new edges reach the compaction threshold of 8.
    for v in items[4:8].tolist():
        service.feedback(cold[0], v, relation)
    assert service.view.compactions == 1
    assert [service.view.node_type(n) for n in cold] == [
        "user", "item", "user", "item"
    ]

    fresh = BatchServingEngine(
        ColdStartEmbedder(store, graph.num_nodes), service.view
    )
    sources = np.concatenate([
        rng.choice(graph.num_nodes, size=12, replace=False), cold
    ])
    for relation in relations:
        for got, want in zip(engine.topk_batch(sources, relation, 10),
                             fresh.topk_batch(sources, relation, 10)):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        for got, want in zip(engine.similar_topk(sources, relation, 10),
                             fresh.similar_topk(sources, relation, 10)):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
    assert engine.cache.misses == misses


def test_cold_nodes_reallocate_a_block_logarithmically_often():
    """Blocks grow into spare rows: N cold nodes move a block O(log N)
    times, every block stays C-contiguous and the cold rows stay zero."""
    from repro.serving.deltas import DeltaGraphView

    graph = load_dataset("taobao", scale=0.1, seed=0).graph
    relation = graph.schema.relationships[0]
    rng = np.random.default_rng(5)
    store = EmbeddingStore({relation: rng.standard_normal((graph.num_nodes, 4))})
    view = DeltaGraphView(graph)
    engine = BatchServingEngine(ColdStartEmbedder(store, graph.num_nodes), view)
    engine.cache.norms(relation)
    warm = {t: b.copy() for t, b in engine.cache.table(relation).items()}
    arrivals, moves, buffer = 1000, 0, None
    for _ in range(arrivals):
        view.add_node("user")
        engine.refresh_topology()
        block = engine.cache.table(relation)["user"]
        assert block.flags.c_contiguous
        if block.base is not buffer:
            moves, buffer = moves + 1, block.base
    blocks, norms = engine.cache.table(relation), engine.cache.norms(relation)
    users = len(warm["user"])
    np.testing.assert_array_equal(blocks["user"][:users], warm["user"])
    assert not blocks["user"][users:].any() and not norms["user"][users:].any()
    assert len(blocks["user"]) == len(norms["user"]) == users + arrivals
    np.testing.assert_array_equal(blocks["item"], warm["item"])
    # One buffer per 64 rows up to 512 rows, then one per growth by an eighth.
    assert moves <= 1 + 512 / 64 + np.log((users + arrivals) / 512) / np.log(9 / 8), moves
