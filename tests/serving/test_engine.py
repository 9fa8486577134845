"""Batch serving engine: bit-identical ordering, caching, and stats."""

from __future__ import annotations

import numpy as np
import pytest

import repro.serving.engine as engine_module
from repro.core import EmbeddingStore
from repro.datasets import load_dataset
from repro.errors import EvaluationError
from repro.serving import (
    BatchServingEngine,
    CandidatePools,
    RelationEmbeddingCache,
)
from repro.serving.engine import _stable_topk, _stable_topk_block
from repro.verify.references import (
    _reference_ranked_candidates,
    _reference_recommend,
    _reference_recommend_batch,
    _reference_similar_nodes,
    candidates,
)


@pytest.fixture
def store(taobao_split):
    graph = taobao_split.train_graph
    rng = np.random.default_rng(42)
    tables = {
        relation: rng.standard_normal((graph.num_nodes, 16))
        for relation in graph.schema.relationships
    }
    # Plant duplicate rows so exact score ties actually occur.
    for table in tables.values():
        clones = rng.choice(graph.num_nodes, size=12, replace=False)
        table[clones[6:]] = table[clones[:6]]
    return EmbeddingStore(tables)


@pytest.fixture
def engine(store, taobao_split):
    return BatchServingEngine(store, taobao_split.train_graph)


def _warm_sources(graph, relation, count=12):
    return np.flatnonzero(graph.degrees(relation) > 0)[:count]


class TestOrderingEquivalence:
    """The engine must reproduce the scalar references list-for-list."""

    def test_recommend_batch_matches_reference(self, engine, store, taobao_split):
        graph = taobao_split.train_graph
        for relation in graph.schema.relationships:
            sources = _warm_sources(graph, relation)
            batched = engine.recommend_batch(sources, relation, k=7)
            reference = _reference_recommend_batch(
                store, graph, sources, relation, k=7
            )
            for got, want in zip(batched, reference):
                assert [r.node for r in got] == [r.node for r in want]
                np.testing.assert_allclose(
                    [r.score for r in got], [r.score for r in want],
                    rtol=0, atol=1e-12,
                )

    def test_scalar_recommend_is_bit_identical(self, engine, store, taobao_split):
        graph = taobao_split.train_graph
        source = int(_warm_sources(graph, "page_view")[0])
        got = engine.recommend(source, "page_view", k=9)
        want = _reference_recommend(store, graph, source, "page_view", k=9)
        assert got == want  # node ids AND exact float scores

    def test_similar_nodes_is_bit_identical(self, engine, store, taobao_split):
        graph = taobao_split.train_graph
        for item in graph.nodes_of_type("item")[:6].tolist():
            got = engine.similar_nodes(item, "page_view", k=8)
            want = _reference_similar_nodes(store, graph, item, "page_view", k=8)
            assert got == want

    def test_rank_all_matches_reference(self, engine, store, taobao_split):
        graph = taobao_split.train_graph
        sources = _warm_sources(graph, "purchase", count=8)
        ranked = engine.rank_all(sources, "purchase", target_type="item")
        for source, got in zip(sources.tolist(), ranked):
            want = _reference_ranked_candidates(
                store, graph, source, "purchase", "item"
            )
            np.testing.assert_array_equal(got, want)

    def test_tie_ordering_is_stable(self, taobao_split):
        # All-equal scores: ties must resolve to ascending node id, exactly
        # like np.argsort(-scores, kind="stable").
        graph = taobao_split.train_graph
        table = np.ones((graph.num_nodes, 4))
        store = EmbeddingStore({r: table for r in graph.schema.relationships})
        engine = BatchServingEngine(store, graph)
        sources = _warm_sources(graph, "page_view", count=5)
        batched = engine.recommend_batch(sources, "page_view", k=6)
        reference = _reference_recommend_batch(store, graph, sources, "page_view", k=6)
        assert batched == reference
        for recs in batched:
            nodes = [r.node for r in recs]
            assert nodes == sorted(nodes)

    def test_exclude_known_false_matches_reference(self, engine, store,
                                                   taobao_split):
        graph = taobao_split.train_graph
        sources = _warm_sources(graph, "page_view", count=6)
        batched = engine.recommend_batch(
            sources, "page_view", k=5, exclude_known=False
        )
        reference = _reference_recommend_batch(
            store, graph, sources, "page_view", k=5, exclude_known=False
        )
        for got, want in zip(batched, reference):
            assert [r.node for r in got] == [r.node for r in want]

    def test_small_block_size_changes_nothing(self, store, taobao_split,
                                              monkeypatch):
        graph = taobao_split.train_graph
        sources = _warm_sources(graph, "page_view", count=11)
        b = BatchServingEngine(store, graph).recommend_batch(
            sources, "page_view", k=5
        )
        monkeypatch.setattr(engine_module, "_BLOCK_SIZE", 3)
        a = BatchServingEngine(store, graph).recommend_batch(
            sources, "page_view", k=5
        )
        assert [[r.node for r in recs] for recs in a] == [
            [r.node for r in recs] for recs in b
        ]


class TestEdgeCases:
    def test_k_larger_than_pool_returns_whole_pool(self, engine, store,
                                                   taobao_split):
        graph = taobao_split.train_graph
        source = int(_warm_sources(graph, "page_view")[0])
        pool = candidates(graph, source, "page_view")
        recs = engine.recommend(source, "page_view", k=10 * graph.num_nodes)
        assert len(recs) == len(pool)
        assert recs == _reference_recommend(
            store, graph, source, "page_view", k=10 * graph.num_nodes
        )

    def test_invalid_k_raises(self, engine):
        with pytest.raises(EvaluationError):
            engine.topk_batch([0], "page_view", k=0)
        with pytest.raises(EvaluationError):
            engine.similar_topk([0], "page_view", k=-1)

    def test_unknown_node_id_raises_typed_error(self, engine, taobao_split):
        # Out-of-range ids used to escape as a raw IndexError (too large)
        # or a numpy ValueError (negative) from deep inside the engine.
        num_nodes = taobao_split.train_graph.num_nodes
        calls = (
            lambda node: engine.recommend(node, "page_view", k=3),
            lambda node: engine.recommend_batch([0, node], "page_view", k=3),
            lambda node: engine.similar_nodes(node, "page_view", k=3),
            lambda node: engine.rank_all([node], "page_view"),
        )
        for call in calls:
            for node in (10**6, num_nodes, -1):
                with pytest.raises(EvaluationError,
                                   match=f"unknown node id {node}"):
                    call(node)

    def test_cold_source_in_batch_never_crashes(self, engine, taobao_split):
        # Regression: a cold-start node used to raise EvaluationError and
        # kill the whole batch; it now resolves its target type from the
        # relationship schema (or yields an empty list, never an exception).
        graph = taobao_split.train_graph
        users = graph.nodes_of_type("user")
        cold = [u for u in users.tolist() if graph.degree(int(u), "purchase") == 0]
        if not cold:
            pytest.skip("no cold user under purchase")
        warm = _warm_sources(graph, "purchase", count=3)
        batch = warm.tolist() + cold[:2]
        lists = engine.recommend_batch(batch, "purchase", k=4)
        assert len(lists) == len(batch)
        for recs in lists:
            assert all(graph.node_type(r.node) == "item" for r in recs)

    def test_empty_batch(self, engine):
        assert engine.recommend_batch([], "page_view", k=3) == []

    def test_rank_all_cold_source_gets_full_pool(self, engine, taobao_split):
        graph = taobao_split.train_graph
        users = graph.nodes_of_type("user")
        cold = [u for u in users.tolist() if graph.degree(int(u), "purchase") == 0]
        if not cold:
            pytest.skip("no cold user under purchase")
        (ranked,) = engine.rank_all([cold[0]], "purchase")
        items = graph.nodes_of_type("item")
        assert len(ranked) == len(items)
        assert set(ranked.tolist()) == set(items.tolist())


class TestEmbeddingCache:
    def test_one_fetch_per_relation_per_batch(self, taobao_split):
        # Regression for the recommend_batch refetch bug: the old loop
        # called node_embeddings twice per source; the engine must hit the
        # model once per node-type block of a relation, however large the
        # batch.
        graph = taobao_split.train_graph
        rng = np.random.default_rng(0)
        inner = EmbeddingStore({
            r: rng.standard_normal((graph.num_nodes, 8))
            for r in graph.schema.relationships
        })
        calls = []

        class CountingModel:
            def node_embeddings(self, nodes, relation):
                calls.append((relation, np.asarray(nodes).tolist()))
                return inner.node_embeddings(nodes, relation)

        def fill(relation):
            return [
                (relation, graph.nodes_of_type(node_type).tolist())
                for node_type in graph.schema.node_types
            ]

        engine = BatchServingEngine(CountingModel(), graph)
        sources = _warm_sources(graph, "page_view", count=20)
        engine.recommend_batch(sources, "page_view", k=5)
        assert calls == fill("page_view")
        engine.recommend_batch(sources, "page_view", k=3)
        assert calls == fill("page_view")  # cache hit, no refetch
        engine.recommend_batch(sources[:4], "add_to_cart", k=3)
        assert calls == fill("page_view") + fill("add_to_cart")

    def test_reads_cycling_over_every_relation_fetch_each_once(self):
        # Regression: a 4-table LRU missed on every read that cycled over
        # the youtube alike's 5 relations, refetching a full table each time.
        graph = load_dataset("youtube", scale=0.1, seed=0).graph
        relations = list(graph.schema.relationships)
        assert len(relations) == 5
        rng = np.random.default_rng(0)
        store = EmbeddingStore({
            r: rng.standard_normal((graph.num_nodes, 4)) for r in relations
        })
        engine = BatchServingEngine(store, graph)
        for _ in range(4):
            for relation in relations:
                engine.similar_topk([0], relation, k=3)
        assert engine.cache.misses == 5
        assert sorted(engine.cache.cached_relations) == sorted(relations)

    def test_norms_follow_table(self, store, taobao_split):
        graph = taobao_split.train_graph
        cache = RelationEmbeddingCache(store, CandidatePools(graph))
        norms = cache.norms("page_view")
        blocks = cache.table("page_view")
        assert set(norms) == set(blocks) == set(graph.schema.node_types)
        for node_type, block in blocks.items():
            np.testing.assert_array_equal(
                norms[node_type], np.linalg.norm(block, axis=1)
            )


class TestStatsAndProfiling:
    def test_counters_accumulate(self, engine, taobao_split):
        graph = taobao_split.train_graph
        sources = _warm_sources(graph, "page_view", count=7)
        engine.recommend_batch(sources, "page_view", k=4)
        assert engine.stats.requests == 1
        assert engine.stats.sources == 7
        assert engine.stats.candidates_scored > 0
        engine.recommend(int(sources[0]), "page_view", k=4)
        assert engine.stats.requests == 2
        assert engine.stats.sources == 8

    def test_latency_report_has_stages(self, engine, taobao_split):
        graph = taobao_split.train_graph
        engine.recommend_batch(_warm_sources(graph, "page_view"), "page_view", k=3)
        report = engine.latency_report()
        assert report["requests"] == 1
        stages = set(report["stages"])
        assert {"serving.pool", "serving.embeddings",
                "serving.score", "serving.topk"} <= stages


class TestCandidatePools:
    def test_type_pool_is_ascending_and_frozen(self, engine):
        pool = engine.pools.type_pool("item")
        assert np.all(np.diff(pool) > 0)
        with pytest.raises(ValueError):
            pool[0] = 1

    def test_pool_positions_roundtrip(self, engine, taobao_split):
        graph = taobao_split.train_graph
        pool = engine.pools.type_pool("user")
        positions = engine.pools.pool_positions("user")
        np.testing.assert_array_equal(positions[pool], np.arange(len(pool)))
        items = graph.nodes_of_type("item")
        assert np.all(positions[items] == -1)

    def test_exclusions_match_mask_matrix(self, engine, taobao_split):
        graph = taobao_split.train_graph
        sources = _warm_sources(graph, "page_view", count=9)
        pool, valid = engine.pools.valid_pool_matrix(sources, "page_view", "item")
        pool2, rows, cols = engine.pools.pool_exclusions(sources, "page_view", "item")
        np.testing.assert_array_equal(pool, pool2)
        dense = np.ones((len(sources), len(pool)), dtype=bool)
        dense[rows, cols] = False
        np.testing.assert_array_equal(dense, valid)

    def test_target_type_inference(self, engine, taobao_split):
        graph = taobao_split.train_graph
        warm = int(_warm_sources(graph, "purchase")[0])
        assert engine.pools.target_type_for(warm, "purchase") == "item"
        cold = [
            u for u in graph.nodes_of_type("user").tolist()
            if graph.degree(int(u), "purchase") == 0
        ]
        if cold:
            assert engine.pools.target_type_for(cold[0], "purchase") == "item"


class TestStableTopK:
    """Property tests of the vectorised extractor vs the scalar truth."""

    def test_block_matches_scalar_under_ties(self):
        rng = np.random.default_rng(7)
        for trial in range(120):
            b = int(rng.integers(1, 7))
            n = int(rng.integers(1, 30))
            k = int(rng.integers(1, 12))
            scores = rng.integers(0, 4, size=(b, n)).astype(float)
            valid = rng.random((b, n)) < rng.random()
            got = _stable_topk_block(scores.copy(), valid, k)
            premasked = _stable_topk_block(
                np.where(valid, scores, -np.inf), None, k
            )
            for j in range(b):
                ids, top_scores = _stable_topk(scores[j], valid[j], k)
                reference = np.flatnonzero(valid[j])[
                    np.argsort(-scores[j][valid[j]], kind="stable")
                ][:k]
                np.testing.assert_array_equal(ids, reference, err_msg=str(trial))
                for variant_ids, variant_scores in (got[j], premasked[j]):
                    np.testing.assert_array_equal(variant_ids, ids)
                    np.testing.assert_array_equal(variant_scores, top_scores)

    def test_empty_and_tiny_pools(self):
        scores = np.array([[3.0, 1.0, 2.0]])
        ids, top = _stable_topk(scores[0], np.zeros(3, dtype=bool), 5)
        assert len(ids) == 0 and len(top) == 0
        ids, top = _stable_topk(scores[0], np.array([True, False, True]), 5)
        np.testing.assert_array_equal(ids, [0, 2])
        np.testing.assert_array_equal(top, [3.0, 2.0])
