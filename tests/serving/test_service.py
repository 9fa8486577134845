"""RecommendService: endpoints, admission queue, cold start, determinism.

Property tests drive hypothesis-chosen interleavings of feedback writes
and recommend reads, asserting every read matches a *fresh* engine over a
from-scratch graph rebuild (no cache, no delta, nothing shared) — the
strongest form of "merged views and invalidation are unobservable".
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.persistence import EmbeddingStore
from repro.errors import (
    EvaluationError,
    QueueFullError,
    SchemaError,
    ServiceError,
)
from repro.graph import GraphBuilder, GraphSchema
from repro.serving import (
    BatchServingEngine,
    RecommendService,
    ServiceConfig,
    ServingStats,
)
from repro.serving.service import ColdStartEmbedder, EndpointStats
from repro.serving.traffic import generate_trace, replay_trace

DIM = 8


def build_base():
    schema = GraphSchema(["user", "item"], ["view", "buy"])
    builder = GraphBuilder(schema)
    builder.add_nodes("user", 3)
    builder.add_nodes("item", 4)
    for u, v in [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 6)]:
        builder.add_edge(u, v, "view")
    for u, v in [(0, 3), (1, 4), (2, 5)]:
        builder.add_edge(u, v, "buy")
    return builder.build()


def build_store(graph, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingStore({
        rel: rng.standard_normal((graph.num_nodes, DIM))
        for rel in graph.schema.relationships
    })


def make_service(**overrides) -> RecommendService:
    graph = build_base()
    store = build_store(graph)
    defaults = dict(flush_interval=0.0, compaction_threshold=4, max_queue=64)
    defaults.update(overrides)
    return RecommendService(store, graph, config=ServiceConfig(**defaults))


def reference_read(service, kind, node, relation, k):
    """A read through a cache-free engine over the service's live view."""
    engine = BatchServingEngine(service.embedder, service.view)
    if kind == "recommend":
        return engine.topk_batch([node], relation, k)[0]
    return engine.similar_topk([node], relation, k)[0]


# ----------------------------------------------------------------------
# Hypothesis: write/read interleavings match a from-scratch reference
# ----------------------------------------------------------------------
@st.composite
def service_ops(draw):
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, 2), st.integers(3, 6)),
            st.tuples(st.just("write_cold"), st.integers(0, 2)),
            st.tuples(st.just("read"), st.integers(0, 6)),
            st.tuples(st.just("similar"), st.integers(3, 6)),
        ),
        min_size=1, max_size=25,
    ))


@settings(max_examples=30, deadline=None)
@given(service_ops(), st.integers(2, 8))
def test_interleaved_reads_match_fresh_reference(ops, threshold):
    service = make_service(compaction_threshold=threshold)
    compactions = 0
    for op in ops:
        if op[0] == "write":
            result = service.feedback(op[1], op[2], "view")
            compactions += int(result["compacted"])
        elif op[0] == "write_cold":
            result = service.feedback(op[1], service.view.num_nodes, "view")
            assert result["accepted"] and len(result["new_nodes"]) == 1
            compactions += int(result["compacted"])
        else:
            kind = "recommend" if op[0] == "read" else "similar"
            ids, scores = (
                service.recommend(op[1], "view", k=4)
                if kind == "recommend"
                else service.similar(op[1], "view", k=4)
            )
            ref_ids, ref_scores = reference_read(
                service, kind, op[1], "view", 4
            )
            np.testing.assert_array_equal(ids, ref_ids)
            np.testing.assert_array_equal(scores, ref_scores)
    assert service.view.compactions == compactions


# ----------------------------------------------------------------------
# Admission queue invariants
# ----------------------------------------------------------------------
class TestAdmissionQueue:
    def test_oversized_batch_rejected_with_typed_error(self):
        service = make_service(max_queue=2)
        with pytest.raises(QueueFullError):
            service.recommend_many([0, 1, 2], "view", k=3)
        assert service.endpoint_stats["recommend"].rejected == 3
        assert service.queue_depth == 0

    def test_rejection_does_not_wedge_the_service(self):
        service = make_service(max_queue=2)
        with pytest.raises(QueueFullError):
            service.recommend_many([0, 1, 2], "view", k=3)
        ids, _ = service.recommend(0, "view", k=3)   # still serves
        assert len(ids) > 0
        assert service.endpoint_stats["recommend"].requests == 1

    def test_queue_full_error_is_service_error(self):
        assert issubclass(QueueFullError, ServiceError)

    def test_queue_drains_to_zero_after_traffic(self):
        service = make_service()
        for _ in range(5):
            service.recommend(0, "view", k=3)
        service.feedback(0, 5, "view")
        assert service.queue_depth == 0
        assert service._queue_high_water >= 1

    def test_admitted_requests_counted_per_endpoint(self):
        service = make_service()
        service.recommend_many([0, 1], "view", k=3)
        service.similar(3, "view", k=2)
        service.feedback(0, 6, "buy")
        stats = service.stats_report()["endpoints"]
        assert stats["recommend"]["requests"] == 2
        assert stats["similar"]["requests"] == 1
        assert stats["feedback"]["requests"] == 1
        assert stats["recommend"]["batches"] == 1       # one micro-batch

    def test_bad_config_rejected(self):
        for overrides in (
            {"max_batch": 0}, {"max_queue": 0},
            {"flush_interval": -1.0},
        ):
            with pytest.raises(ServiceError):
                ServiceConfig(**overrides)


# ----------------------------------------------------------------------
# Seeded determinism of a full simulated trace
# ----------------------------------------------------------------------
class TestTraceDeterminism:
    def test_same_seed_same_digest(self):
        graph = build_base()
        trace = generate_trace(graph, 150, seed=9, new_node_rate=0.1)
        summaries = [
            replay_trace(make_service(compaction_threshold=8), trace)
            for _ in range(2)
        ]
        assert summaries[0]["digest"] == summaries[1]["digest"]
        assert summaries[0] == summaries[1]
        assert summaries[0]["compactions"] >= 1

    def test_trace_generation_is_deterministic(self):
        graph = build_base()
        assert generate_trace(graph, 60, seed=3) == generate_trace(
            graph, 60, seed=3
        )
        assert generate_trace(graph, 60, seed=3) != generate_trace(
            graph, 60, seed=4
        )

    def test_different_seed_different_digest(self):
        graph = build_base()
        digests = {
            replay_trace(
                make_service(compaction_threshold=8),
                generate_trace(graph, 80, seed=seed),
            )["digest"]
            for seed in (1, 2)
        }
        assert len(digests) == 2


# ----------------------------------------------------------------------
# Regression: latency windows are per instance, never shared
# ----------------------------------------------------------------------
class TestLatencyWindowIsolation:
    def test_serving_stats_windows_are_independent(self):
        a, b = ServingStats(window=8), ServingStats(window=8)
        a.record_latency(1.0)
        assert len(a.latencies) == 1 and len(b.latencies) == 0
        assert a.latencies is not b.latencies

    def test_window_size_is_per_instance(self):
        small, large = ServingStats(window=2), ServingStats()
        for value in (0.1, 0.2, 0.3):
            small.record_latency(value)
        assert list(small.latencies) == [0.2, 0.3]
        assert large.latencies.maxlen > small.latencies.maxlen

    def test_two_services_do_not_pollute_each_others_p95(self):
        slow, idle = make_service(), make_service()
        for _ in range(5):
            slow.recommend(0, "view", k=3)
        # Plant pathological latencies directly in the busy service.
        for _ in range(3):
            slow.endpoint_stats["recommend"].record_latency(10.0)
        idle.recommend(1, "view", k=3)
        slow_p95 = slow.stats_report()["endpoints"]["recommend"][
            "latency_ms"]["p95"]
        idle_p95 = idle.stats_report()["endpoints"]["recommend"][
            "latency_ms"]["p95"]
        assert slow_p95 > 100.0          # the 10s outlier dominates
        assert idle_p95 < 100.0          # ... and never leaks next door
        assert (slow.engine.stats.latencies
                is not idle.engine.stats.latencies)

    def test_engine_windows_are_independent_too(self):
        a, b = make_service(), make_service()
        a.engine.stats.record_latency(5.0)
        assert len(b.engine.stats.latencies) == 0


# ----------------------------------------------------------------------
# Cold start
# ----------------------------------------------------------------------
class TestColdStart:
    def test_new_node_servable_immediately(self):
        service = make_service(compaction_threshold=0)
        result = service.feedback(1, 7, "view")       # 7 == num_nodes: fresh
        assert result["new_nodes"] == [7]
        assert service.view.node_type(7) == "item"    # inferred from user 1
        ids, scores = service.recommend(7, "view", k=3)
        assert len(ids) > 0
        assert 1 not in ids                           # known edge excluded

    def test_new_node_survives_compaction(self):
        service = make_service(compaction_threshold=2)
        service.feedback(1, 7, "view")
        service.feedback(0, 7, "view")                # tips the threshold
        assert service.view.compactions == 1
        assert service.view.base.num_nodes == 8
        ids, _ = service.recommend(7, "view", k=3)
        assert len(ids) > 0

    def test_explicit_types_for_double_cold_edge(self):
        service = make_service(compaction_threshold=0)
        result = service.feedback(
            7, 8, "view", source_type="user", target_type="item"
        )
        assert result["new_nodes"] == [7, 8]
        assert service.view.node_type(7) == "user"
        assert service.view.node_type(8) == "item"

    def test_double_cold_without_types_rejected(self):
        service = make_service()
        with pytest.raises(ServiceError, match="two unseen"):
            service.feedback(7, 8, "view")

    def test_non_dense_id_rejected(self):
        service = make_service()
        with pytest.raises(ServiceError, match="dense"):
            service.feedback(0, 9, "view")

    def test_cold_node_counts_in_candidate_pool(self):
        service = make_service(compaction_threshold=0)
        service.feedback(0, 7, "view")
        ids, _ = service.recommend(1, "view", k=10)
        assert 7 in ids                               # newborn is a candidate


class TestColdStartEmbedder:
    def test_warm_rows_pass_through(self):
        graph = build_base()
        store = build_store(graph)
        embedder = ColdStartEmbedder(store, graph.num_nodes)
        nodes = np.array([0, 3, 6])
        np.testing.assert_array_equal(
            embedder.node_embeddings(nodes, "view"),
            store.node_embeddings(nodes, "view"),
        )

    def test_zeros_mode_pads_cold_rows(self):
        graph = build_base()
        embedder = ColdStartEmbedder(build_store(graph), graph.num_nodes)
        out = embedder.node_embeddings(np.array([0, 7, 9]), "view")
        assert out.shape == (3, DIM)
        assert np.all(out[1:] == 0.0) and np.any(out[0] != 0.0)

    def test_all_cold_batch(self):
        graph = build_base()
        embedder = ColdStartEmbedder(build_store(graph), graph.num_nodes)
        out = embedder.node_embeddings(np.array([7, 8]), "view")
        assert out.shape == (2, DIM) and np.all(out == 0.0)


# ----------------------------------------------------------------------
# Validation + reports
# ----------------------------------------------------------------------
class TestValidation:
    def test_unknown_relation(self):
        service = make_service()
        with pytest.raises(SchemaError):
            service.recommend(0, "likes", k=3)
        with pytest.raises(SchemaError):
            service.feedback(0, 3, "likes")

    def test_unknown_node(self):
        service = make_service()
        with pytest.raises(ServiceError, match="unknown node"):
            service.recommend(42, "view", k=3)

    def test_bad_k(self):
        service = make_service()
        with pytest.raises(ServiceError, match="k must be positive"):
            service.recommend(0, "view", k=0)

    def test_vectorised_bounds_check_names_first_bad_id(self):
        service = make_service()
        with pytest.raises(ServiceError, match="unknown node id -1"):
            service.recommend(-1, "view", k=3)
        with pytest.raises(ServiceError, match="unknown node id 9"):
            service.recommend_many([0, 1, 9, 42], "view", k=3)
        # An empty batch passes the bounds check and returns no results.
        assert service.recommend_many([], "view", k=3) == []

    def test_bad_id_past_admission_fails_alone(self):
        # Ids only grow, so admission (_check_read, tested above) is the
        # service's one id check.  _submit skips it; the engine's own check
        # then fails the read with its typed error.
        service = make_service()
        with pytest.raises(EvaluationError, match="unknown node id 42"):
            service._submit(("recommend", "view", 3, None, True), 42)
        with pytest.raises(EvaluationError, match="unknown node id 42"):
            service._submit(("similar", "view", 3), 42)
        # The failed batch must not wedge the queue.
        assert service.queue_depth == 0
        ids, _ = service.recommend(0, "view", k=3)
        assert len(ids) > 0

    def test_self_feedback_rejected(self):
        service = make_service()
        with pytest.raises(ServiceError, match="itself"):
            service.feedback(3, 3, "view")

    def test_duplicate_feedback_reported_not_raised(self):
        service = make_service()
        assert service.feedback(0, 3, "view")["accepted"] is False
        assert service.view.duplicates_dropped == 1

    def test_failed_compaction_reaches_the_waiter(self):
        service = make_service(compaction_threshold=1)
        real_compact = service.view.compact

        def broken():
            raise MemoryError("planted compaction failure")

        service.view.compact = broken
        with pytest.raises(ServiceError, match="compaction") as info:
            service.feedback(0, 5, "view")
        assert isinstance(info.value.__cause__, MemoryError)
        # The write stayed applied and its delta stayed pending.
        assert service.view.has_edge(0, 5, "view")
        assert service.view.pending_edges == 1
        assert service.queue_depth == 0
        service.view.compact = real_compact
        # Sent again, it is a duplicate, and the next write compacts.
        result = service.feedback(0, 5, "view")
        assert result["accepted"] is False and result["compacted"] is True
        assert service.view.pending_edges == 0
        assert service.view.compactions == 1


class TestReports:
    def test_stats_report_shape(self):
        service = make_service()
        service.recommend(0, "view", k=3)
        service.feedback(0, 5, "buy")
        report = service.stats_report()
        assert set(report) == {"endpoints", "queue", "ingestion", "engine"}
        assert report["queue"]["max_queue"] == 64
        assert report["ingestion"]["edges_ingested"] == 1
        latency = report["endpoints"]["recommend"]["latency_ms"]
        assert set(latency) == {"p50", "p95", "p99"}
        assert latency["p50"] > 0.0

    def test_endpoint_stats_mean_batch_size(self):
        stats = EndpointStats()
        assert stats.to_dict()["mean_batch_size"] == 0.0
        stats.requests, stats.batches = 6, 2
        assert stats.to_dict()["mean_batch_size"] == 3.0

    def test_feedback_many_one_batch(self):
        service = make_service(compaction_threshold=0)
        results = service.feedback_many([(0, 5), (0, 6), (1, 6)], "view")
        assert [r["accepted"] for r in results] == [True, True, True]
        assert service.endpoint_stats["feedback"].batches == 1

    def test_stats_report_counts_executed_batches(self):
        # The batches counter is bumped in _execute under _cond (it used
        # to be updated with no lock); stats_report reads under the same
        # lock, so the numbers it returns are a coherent snapshot.
        service = make_service()
        service.recommend_many([0, 1, 2], "view", k=3)
        report = service.stats_report()
        recommend = report["endpoints"]["recommend"]
        assert recommend["requests"] == 3
        assert recommend["batches"] == 1
        assert recommend["mean_batch_size"] == 3.0
        assert report["queue"]["depth"] == 0
        assert report["queue"]["high_water"] >= 3

    def test_profiler_records_service_stages(self):
        service = make_service(compaction_threshold=2)
        service.recommend(0, "view", k=3)
        service.feedback(0, 5, "view")
        service.feedback(0, 6, "view")                # triggers compaction
        stages = service.profiler.report()
        assert "service.recommend" in stages
        assert "service.feedback" in stages
        assert "service.compaction" in stages
