"""Vector-index layer: backends, recall, persistence, engine lifecycle."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.check import index_findings, verify_index
from repro.core import EmbeddingStore
from repro.errors import CheckError, ReproError
from repro.serving import (
    BatchServingEngine,
    ExactIndex,
    INDEX_BACKENDS,
    IVFIndex,
    load_index,
    make_index,
    save_index,
)
from repro.serving.engine import ServingStats, _percentiles
from repro.serving import index as index_module
from repro.serving.index import _stable_topk_ids


@pytest.fixture
def store(taobao_split):
    graph = taobao_split.train_graph
    rng = np.random.default_rng(3)
    return EmbeddingStore({
        relation: rng.standard_normal((graph.num_nodes, 16))
        for relation in graph.schema.relationships
    })


def _reference_topk_ids(scores, positions, k):
    """Full stable sort: descending score, ascending position among ties."""
    order = np.lexsort((positions, -scores))[:k]
    return positions[order], scores[order]


def _pool(rng, size=512, dim=8):
    return rng.standard_normal((size, dim))


class TestStableTopKIds:
    def test_fuzz_matches_full_sort(self):
        rng = np.random.default_rng(11)
        for trial in range(150):
            n = int(rng.integers(0, 40))
            k = int(rng.integers(1, 12))
            # Integer scores force heavy ties; shuffled positions make the
            # "lowest position wins" tie-break observable.
            scores = rng.integers(0, 5, size=n).astype(float)
            positions = rng.permutation(1000)[:n].astype(np.int64)
            got_ids, got_scores = _stable_topk_ids(scores, positions, k)
            want_ids, want_scores = _reference_topk_ids(scores, positions, k)
            np.testing.assert_array_equal(got_ids, want_ids, err_msg=str(trial))
            np.testing.assert_array_equal(got_scores, want_scores)

    def test_empty_candidates(self):
        ids, scores = _stable_topk_ids(
            np.empty(0), np.empty(0, dtype=np.int64), 5
        )
        assert len(ids) == 0 and len(scores) == 0


class TestRegistry:
    def test_backends_registered(self):
        assert set(INDEX_BACKENDS) == {"exact", "ivf"}

    def test_unknown_backend_raises(self):
        with pytest.raises(ReproError, match="unknown index backend"):
            make_index("faiss")

    def test_foreign_params_are_filtered(self):
        # The engine forwards one flat dict to whichever backend is active.
        index = make_index("ivf", nprobe=3, beam_width=64, block_size=7)
        assert isinstance(index, IVFIndex)
        assert index.nprobe == 3
        assert not hasattr(index, "beam_width")
        assert not hasattr(index, "block_size")

    def test_search_before_build_raises(self):
        for backend in INDEX_BACKENDS:
            with pytest.raises(ReproError, match="before build"):
                make_index(backend).search(np.zeros(4), k=3)


class TestExactIndex:
    def test_single_query_bit_identical_to_reference(self):
        rng = np.random.default_rng(0)
        vectors = _pool(rng)
        query = rng.standard_normal(8)
        (ids, scores), = ExactIndex().build(vectors).search(query, k=10)[0]
        # The scalar reference path: dgemv scores, stable argsort.
        want = vectors @ query
        order = np.argsort(-want, kind="stable")[:10]
        np.testing.assert_array_equal(ids, order)
        np.testing.assert_array_equal(scores, want[order])

    def test_blocked_queries_bit_identical_to_per_query_gemv(self):
        # A block of queries scores each query with its own dgemv, as the
        # engine does, so a query's scores do not depend on its block.
        rng = np.random.default_rng(1)
        vectors = _pool(rng)
        queries = rng.standard_normal((6, 8))
        found, scored = ExactIndex(block_size=6).build(vectors).search(queries, k=7)
        assert scored == 6 * len(vectors)
        want = [vectors @ query for query in queries]
        for j, (ids, scores) in enumerate(found):
            order = np.argsort(-want[j], kind="stable")[:7]
            np.testing.assert_array_equal(ids, order)
            np.testing.assert_array_equal(scores, want[j][order])

    def test_exclusions_never_surface(self):
        rng = np.random.default_rng(2)
        vectors = _pool(rng, size=64)
        index = ExactIndex().build(vectors)
        excluded = np.arange(0, 64, 2)
        (ids, _), = index.search(vectors[3], k=64, exclude=[excluded])[0]
        assert not set(ids.tolist()) & set(excluded.tolist())
        assert len(ids) == 32

    def test_k_beyond_pool_returns_whole_pool(self):
        rng = np.random.default_rng(3)
        vectors = _pool(rng, size=9)
        (ids, _), = ExactIndex().build(vectors).search(vectors[0], k=100)[0]
        assert sorted(ids.tolist()) == list(range(9))


class TestApproximateBackends:
    def test_full_probe_ivf_equals_exact(self):
        # nprobe >= nlist degenerates to a full scan, so the selected ids
        # must match the exact oracle — this pins the slice concatenation
        # + stable extraction, independent of clustering.  Scores agree to
        # the ulp only (slice dgemv vs full-pool dgemm accumulate
        # differently), so the float comparison is allclose, not bitwise.
        rng = np.random.default_rng(4)
        vectors = _pool(rng)
        queries = rng.standard_normal((8, 8))
        exact, _ = ExactIndex().build(vectors).search(queries, k=10)
        ivf, _ = IVFIndex(nprobe=10**6).build(vectors).search(queries, k=10)
        for (eids, escores), (iids, iscores) in zip(exact, ivf):
            np.testing.assert_array_equal(iids, eids)
            np.testing.assert_allclose(iscores, escores, rtol=1e-12)

    def test_recall_at_10(self):
        rng = np.random.default_rng(5)
        vectors = _pool(rng, size=1024)
        queries = rng.standard_normal((32, 8))
        exact, _ = ExactIndex().build(vectors).search(queries, k=10)
        found, _ = IVFIndex(nprobe=16).build(vectors).search(queries, k=10)
        recall = np.mean([
            len(set(ids.tolist()) & set(eids.tolist())) / 10
            for (ids, _), (eids, _) in zip(found, exact)
        ])
        assert recall >= 0.95

    @pytest.mark.parametrize("backend,params", [
        ("ivf", {"nprobe": 4}),
    ])
    def test_build_and_search_are_deterministic(self, backend, params):
        rng = np.random.default_rng(6)
        vectors = _pool(rng, size=300)
        queries = rng.standard_normal((5, 8))

        def run():
            index = make_index(backend, seed=9, **params).build(vectors)
            return index.search(queries, k=8)[0], index.state_arrays()

        first_found, first_state = run()
        second_found, second_state = run()
        for (a_ids, a_scores), (b_ids, b_scores) in zip(
            first_found, second_found
        ):
            np.testing.assert_array_equal(a_ids, b_ids)
            np.testing.assert_array_equal(a_scores, b_scores)
        assert first_state.keys() == second_state.keys()
        for key in first_state:
            np.testing.assert_array_equal(first_state[key], second_state[key])

    def test_scores_are_exact_dot_products(self):
        # Approximation must live only in the candidate set: whatever an
        # approximate backend surfaces, the scores are true dot products
        # (to the ulp — the backend's BLAS call shape may differ from this
        # gathered recomputation).
        rng = np.random.default_rng(7)
        vectors = _pool(rng, size=400)
        query = rng.standard_normal(8)
        index = IVFIndex(nprobe=2).build(vectors)
        (ids, scores), = index.search(query, k=6)[0]
        np.testing.assert_allclose(scores, vectors[ids] @ query, rtol=1e-12)

    def test_last_candidates_is_sublinear(self):
        rng = np.random.default_rng(8)
        vectors = _pool(rng, size=2048)
        index = IVFIndex(nprobe=2).build(vectors)
        _, scored = index.search(rng.standard_normal((4, 8)), k=5)
        assert 0 < scored < 4 * 2048


class TestPersistence:
    @pytest.mark.parametrize("factory", [
        lambda: ExactIndex(block_size=16),
        lambda: IVFIndex(nprobe=3, seed=2),
    ])
    def test_roundtrip_preserves_results(self, factory, tmp_path):
        rng = np.random.default_rng(9)
        vectors = _pool(rng, size=200)
        queries = rng.standard_normal((6, 8))
        index = factory().build(vectors)
        want, want_scored = index.search(queries, k=9)
        target = save_index(index, tmp_path / "idx")
        assert target.suffix == ".npz"
        loaded, meta = load_index(target)
        assert meta["backend"] == index.backend
        assert (meta["size"], meta["dim"]) == (200, 8)
        assert loaded.params() == index.params()
        got, got_scored = loaded.search(queries, k=9)
        assert got_scored == want_scored
        for (a_ids, a_scores), (b_ids, b_scores) in zip(want, got):
            np.testing.assert_array_equal(b_ids, a_ids)
            np.testing.assert_array_equal(b_scores, a_scores)

    def test_loading_foreign_npz_raises(self, tmp_path):
        path = tmp_path / "not_an_index.npz"
        np.savez(path, embeddings=np.zeros((3, 2)))
        with pytest.raises(ReproError, match="not a repro vector index"):
            load_index(path)

    def test_retired_backend_archive_raises(self, tmp_path):
        # A graph-index archive written by an older build, whose backend
        # has since been deleted, must fail typed, not with a KeyError.
        path = tmp_path / "retired.npz"
        meta = {"format": "repro-index", "version": 1, "backend": "hnsw",
                "dim": 2, "size": 3, "params": {"seed": 0}}
        np.savez(path, vectors=np.zeros((3, 2)),
                 levels=np.zeros(3, dtype=np.int64),
                 entry=np.zeros(2, dtype=np.int64),
                 __meta__=np.asarray(json.dumps(meta)))
        with pytest.raises(ReproError, match="unknown index backend"):
            load_index(path)

    def test_c007_findings_on_mismatch(self):
        rng = np.random.default_rng(10)
        vectors = _pool(rng, size=50)
        index = ExactIndex().build(vectors)
        meta = index.meta()
        table = np.zeros((80, 8))
        good_pool = np.arange(50)
        assert index_findings(meta, index, table, good_pool) == []
        # Pool drifted since export: stale index must be flagged.
        findings = index_findings(meta, index, table, np.arange(60))
        assert any(f.code == "C007" for f in findings)
        with pytest.raises(CheckError, match="C007"):
            verify_index(meta, index, table, np.arange(60))
        # Embedding dimension changed out from under the index.
        with pytest.raises(CheckError, match="C007"):
            verify_index(meta, index, np.zeros((80, 12)), good_pool)


class TestEngineIntegration:
    def _engine(self, store, graph, **kwargs):
        kwargs.setdefault("index_params", {"seed": 0})
        return BatchServingEngine(store, graph, **kwargs)

    def _sources(self, graph, relation="page_view", count=10):
        return np.flatnonzero(graph.degrees(relation) > 0)[:count]

    def test_unknown_backend_fails_fast(self, store, taobao_split):
        with pytest.raises(ReproError, match="unknown index backend"):
            self._engine(store, taobao_split.train_graph, index="annoy")

    def test_full_probe_ivf_engine_matches_exact(self, store, taobao_split):
        graph = taobao_split.train_graph
        exact = self._engine(store, graph)
        ivf = self._engine(
            store, graph, index="ivf", min_index_size=2,
            index_params={"nprobe": 10**6, "seed": 0},
        )
        sources = self._sources(graph)
        for (eids, escores), (iids, iscores) in zip(
            exact.topk_batch(sources, "page_view", k=6),
            ivf.topk_batch(sources, "page_view", k=6),
        ):
            np.testing.assert_array_equal(iids, eids)
            np.testing.assert_allclose(iscores, escores, rtol=1e-12)
        assert ivf.stats.index_builds == 1
        assert ivf.stats.exact_fallbacks == 0

    def test_known_edges_stay_excluded(self, store, taobao_split):
        graph = taobao_split.train_graph
        engine = self._engine(
            store, graph, index="ivf", min_index_size=2,
            index_params={"nprobe": 2, "seed": 0},
        )
        sources = self._sources(graph, count=6)
        for source, (ids, _) in zip(
            sources.tolist(),
            engine.topk_batch(sources, "page_view", k=8),
        ):
            banned = set(graph.neighbors(source, "page_view").tolist())
            banned.add(source)
            assert not set(ids.tolist()) & banned
        # The probe pruned clusters: this exercised the ANN path, not a scan.
        (index, _, _), = engine._indexes.values()
        assert index.nprobe < len(index.state_arrays()["centroids"])

    def test_concurrent_ivf_reads_count_their_own_candidates(self, store, taobao_split,
                                                             monkeypatch):
        """Two reads of one IVF index, interleaved query by query, each
        count what they scored, so the total is exact."""
        graph = taobao_split.train_graph
        engine = self._engine(store, graph, index="ivf", min_index_size=2,
                              index_params={"nprobe": 2, "seed": 0})
        sources = self._sources(graph)
        engine.topk_batch(sources, "page_view", k=4)
        alone = engine.stats.candidates_scored
        assert alone > 0
        barrier = threading.Barrier(2, timeout=10)
        extract = index_module._stable_topk_ids

        def lockstep(*args):
            barrier.wait()
            return extract(*args)

        monkeypatch.setattr(index_module, "_stable_topk_ids", lockstep)
        readers = [threading.Thread(target=engine.topk_batch,
                                    args=(sources, "page_view", 4))
                   for _ in range(2)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join()
        assert engine.stats.candidates_scored == 3 * alone

    def test_index_reused_until_invalidated(self, store, taobao_split):
        graph = taobao_split.train_graph
        engine = self._engine(store, graph, index="ivf", min_index_size=2)
        sources = self._sources(graph)
        engine.topk_batch(sources, "page_view", k=4)
        engine.topk_batch(sources, "page_view", k=4)
        assert engine.stats.index_builds == 1  # warm: no rebuild
        engine.refresh_topology()
        assert engine._indexes == {}  # the refresh retired the index
        engine.topk_batch(sources, "page_view", k=4)
        assert engine.stats.index_builds == 2

    def test_stale_entry_is_rebuilt(self, store, taobao_split):
        graph = taobao_split.train_graph
        engine = self._engine(store, graph, index="ivf", min_index_size=2)
        sources = self._sources(graph)
        engine.topk_batch(sources, "page_view", k=4)
        # Tamper the recorded table version: the defensive path for an
        # index that outlived the table snapshot it was built from.
        (key, (index, _, pool_len)), = engine._indexes.items()
        engine._indexes[key] = (index, -1, pool_len)
        engine.topk_batch(sources, "page_view", k=4)
        assert engine.stats.index_builds == 2
        assert engine.stats.exact_fallbacks == 0
        rebuilt, version, _ = engine._indexes[key]
        assert rebuilt is not index
        assert version == engine.cache.version("page_view")

    def test_pool_length_mismatch_counts_as_stale(self, store, taobao_split):
        graph = taobao_split.train_graph
        engine = self._engine(store, graph, index="ivf", min_index_size=2)
        sources = self._sources(graph)
        engine.topk_batch(sources, "page_view", k=4)
        (key, (index, version, _)), = engine._indexes.items()
        engine._indexes[key] = (index, version, 1)
        engine.topk_batch(sources, "page_view", k=4)
        assert engine.stats.index_builds == 2

    def test_tiny_pools_served_exactly(self, store, taobao_split):
        graph = taobao_split.train_graph
        exact = self._engine(store, graph)
        engine = self._engine(
            store, graph, index="ivf", min_index_size=10**9
        )
        sources = self._sources(graph)
        for (eids, escores), (iids, iscores) in zip(
            exact.topk_batch(sources, "page_view", k=5),
            engine.topk_batch(sources, "page_view", k=5),
        ):
            np.testing.assert_array_equal(iids, eids)
            np.testing.assert_array_equal(iscores, escores)
        assert engine.stats.index_builds == 0
        assert engine.stats.exact_fallbacks == len(sources)

    def test_similar_topk_scores_use_reference_formula(self, store, taobao_split):
        graph = taobao_split.train_graph
        engine = self._engine(
            store, graph, index="ivf", min_index_size=2,
            index_params={"nprobe": 10**6, "seed": 0},
        )
        exact = self._engine(store, graph)
        items = graph.nodes_of_type("item")[:5]
        for (eids, escores), (iids, iscores) in zip(
            exact.similar_topk(items, "page_view", k=6),
            engine.similar_topk(items, "page_view", k=6),
        ):
            np.testing.assert_array_equal(iids, eids)
            np.testing.assert_allclose(iscores, escores, rtol=1e-12)

    def test_rank_all_is_always_exact(self, store, taobao_split):
        graph = taobao_split.train_graph
        engine = self._engine(store, graph, index="ivf", min_index_size=2)
        exact = self._engine(store, graph)
        sources = self._sources(graph, "purchase", count=5)
        got = engine.rank_all(sources, "purchase", target_type="item")
        want = exact.rank_all(sources, "purchase", target_type="item")
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert engine.stats.index_builds == 0
        assert engine.stats.exact_fallbacks == len(sources)

    def test_export_import_roundtrip(self, store, taobao_split, tmp_path):
        graph = taobao_split.train_graph
        engine = self._engine(store, graph, index="ivf", min_index_size=2)
        path = engine.export_index(tmp_path / "pv", "page_view", "item")
        fresh = self._engine(store, graph, index="ivf", min_index_size=2)
        fresh.import_index(path)
        assert fresh.stats.index_builds == 0
        sources = self._sources(graph)
        engine_results = engine.topk_batch(sources, "page_view", k=5)
        fresh_results = fresh.topk_batch(sources, "page_view", k=5)
        assert fresh.stats.index_builds == 0  # imported index served it
        for (a_ids, a_scores), (b_ids, b_scores) in zip(
            engine_results, fresh_results
        ):
            np.testing.assert_array_equal(b_ids, a_ids)
            np.testing.assert_array_equal(b_scores, a_scores)

    def test_import_rejects_mismatched_embeddings(self, store, taobao_split,
                                                  tmp_path):
        graph = taobao_split.train_graph
        engine = self._engine(store, graph, index="ivf", min_index_size=2)
        path = engine.export_index(tmp_path / "pv", "page_view", "item")
        rng = np.random.default_rng(1)
        narrow = EmbeddingStore({
            relation: rng.standard_normal((graph.num_nodes, 4))
            for relation in graph.schema.relationships
        })
        other = self._engine(narrow, graph, index="ivf", min_index_size=2)
        with pytest.raises(CheckError, match="C007"):
            other.import_index(path)

    def test_latency_report_includes_index_section(self, store, taobao_split):
        graph = taobao_split.train_graph
        engine = self._engine(store, graph, index="ivf", min_index_size=2)
        engine.topk_batch(self._sources(graph), "page_view", k=3)
        report = engine.latency_report()
        assert report["index"]["backend"] == "ivf"
        assert len(report["index"]["entries"]) == 1
        entry = report["index"]["entries"][0]
        assert (entry["relation"], entry["target_type"]) == ("page_view", "item")
        assert "serving.index_build" in report["stages"]
        assert "serving.index_search" in report["stages"]


class TestServingStatsPercentiles:
    def test_percentiles_match_numpy(self):
        stats = ServingStats()
        samples = [0.001 * (j + 1) for j in range(100)]
        for value in samples:
            stats.record_latency(value)
        got = stats.to_dict()["latency_ms"]
        arr = np.asarray(samples) * 1000.0
        for name, q in (("p50", 50), ("p95", 95), ("p99", 99)):
            assert got[name] == pytest.approx(float(np.percentile(arr, q)))
        assert got["p50"] <= got["p95"] <= got["p99"]

    def test_empty_window_reads_zero(self):
        assert _percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_engine_records_request_latency(self, store, taobao_split):
        graph = taobao_split.train_graph
        engine = BatchServingEngine(store, graph)
        sources = np.flatnonzero(graph.degrees("page_view") > 0)[:8]
        engine.topk_batch(sources, "page_view", k=3)
        engine.similar_topk(graph.nodes_of_type("item")[:2], "page_view", k=3)
        engine.rank_all(sources[:2], "page_view")
        latency = engine.stats.to_dict()["latency_ms"]
        assert len(engine.stats.latencies) == 3  # one sample per request
        assert latency["p99"] >= latency["p50"] > 0.0
