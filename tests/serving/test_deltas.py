"""Streaming delta buffers: bit-identity to from-scratch rebuilds.

The contract under test (DESIGN.md "Streaming ingestion"): at *every*
point in an arbitrary interleaving of edge/node ingestion and reads, a
:class:`DeltaGraphView`'s merged CSR must be bit-identical to constructing
a :class:`MultiplexHeteroGraph` from scratch over the full (base + delta)
edge list — and compaction must be unobservable to readers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.state import delta_findings, verify_delta_view
from repro.errors import CheckError, GraphError, SchemaError
from repro.graph import GraphBuilder, GraphSchema
from repro.graph.multiplex import MultiplexHeteroGraph
from repro.serving.deltas import DeltaGraphView, EdgeDeltaBuffer


def build_base():
    """Users 0-2, items 3-6, two relations (the conftest small graph)."""
    schema = GraphSchema(["user", "item"], ["view", "buy"])
    builder = GraphBuilder(schema)
    builder.add_nodes("user", 3)
    builder.add_nodes("item", 4)
    for u, v in [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 6)]:
        builder.add_edge(u, v, "view")
    for u, v in [(0, 3), (1, 4), (2, 5)]:
        builder.add_edge(u, v, "buy")
    return builder.build()


def rebuild_from_scratch(view: DeltaGraphView) -> MultiplexHeteroGraph:
    """The naive truth: a cold restart over the full merged edge list."""
    return MultiplexHeteroGraph(
        view.schema,
        np.asarray(view.node_type_codes),
        {rel: view.edges(rel) for rel in view.schema.relationships},
    )


def assert_bit_identical(view: DeltaGraphView) -> None:
    rebuilt = rebuild_from_scratch(view)
    assert view.num_nodes == rebuilt.num_nodes
    for relation in view.schema.relationships:
        fast_indptr, fast_indices = view.csr(relation)
        slow_indptr, slow_indices = rebuilt.csr(relation)
        np.testing.assert_array_equal(fast_indptr, slow_indptr)
        np.testing.assert_array_equal(fast_indices, slow_indices)
        assert view.num_edges_in(relation) == rebuilt.num_edges_in(relation)


def examples(count: int) -> int:
    """``count`` under the default hypothesis profile, scaled with a
    larger one (``HYPOTHESIS_PROFILE=nightly``, see tests/conftest.py)."""
    return count * settings.default.max_examples // 100


# ----------------------------------------------------------------------
# Hypothesis: arbitrary ingestion interleavings stay bit-identical
# ----------------------------------------------------------------------
@st.composite
def ingestion_ops(draw):
    """A mixed sequence of edge appends (possibly duplicate) and new nodes."""
    return draw(st.lists(
        st.one_of(
            st.tuples(
                st.just("edge"),
                st.integers(0, 11),       # endpoints may be invalid on
                st.integers(0, 11),       # purpose; invalid ops must raise
                st.sampled_from(["view", "buy"]),
            ),
            st.tuples(st.just("node"), st.sampled_from(["user", "item"])),
        ),
        min_size=1, max_size=40,
    ))


def apply_op(view: DeltaGraphView, op) -> None:
    """One ingestion op; invalid edges must raise, duplicates are dropped."""
    if op[0] == "node":
        view.add_node(op[1])
        return
    _, u, v, relation = op
    if u == v or max(u, v) >= view.num_nodes:
        with pytest.raises(GraphError):
            view.add_edge(u, v, relation)
        return
    was_present = view.has_edge(u, v, relation)
    accepted = view.add_edge(u, v, relation)
    assert accepted == (not was_present)
    assert view.has_edge(u, v, relation)


@settings(max_examples=examples(40), deadline=None)
@given(ingestion_ops(), st.integers(0, 12))
def test_merged_view_bit_identical_under_any_interleaving(ops, threshold):
    """Every prefix of every interleaving matches a from-scratch rebuild —
    including across compaction boundaries."""
    view = DeltaGraphView(build_base(), compaction_threshold=threshold)
    compactions_seen = 0
    for op in ops:
        apply_op(view, op)
        if view.maybe_compact():
            compactions_seen += 1
            assert view.pending_edges == 0 and view.pending_nodes == 0
        assert_bit_identical(view)
        assert not delta_findings(view)
    assert view.compactions == compactions_seen


@settings(max_examples=examples(40), deadline=None)
@given(ingestion_ops(), st.lists(st.booleans(), min_size=40, max_size=40),
       st.integers(0, 12))
def test_merged_view_bit_identical_with_batched_reads(ops, reads, threshold):
    """Reads only at drawn points: several edges and new nodes land between
    two reads, so one read splices a whole batch into the cached arrays."""
    view = DeltaGraphView(build_base(), compaction_threshold=threshold)
    for op, read in zip(ops, reads):
        apply_op(view, op)
        view.maybe_compact()
        if read:
            assert_bit_identical(view)
    assert_bit_identical(view)
    assert not delta_findings(view)


@settings(max_examples=examples(25), deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compaction_point_is_unobservable(seed):
    """Reads immediately before and after an explicit compact() agree."""
    rng = np.random.default_rng(seed)
    view = DeltaGraphView(build_base(), compaction_threshold=0)
    users = list(range(3))
    items = [3, 4, 5, 6]
    for _ in range(12):
        u = int(rng.choice(users))
        v = int(rng.choice(items))
        view.add_edge(u, v, "view")
    before = {
        rel: tuple(np.array(part) for part in view.csr(rel))
        for rel in view.schema.relationships
    }
    degrees_before = view.degrees("view").copy()
    view.compact()
    assert view.pending_edges == 0
    for rel in view.schema.relationships:
        after = view.csr(rel)
        np.testing.assert_array_equal(before[rel][0], after[0])
        np.testing.assert_array_equal(before[rel][1], after[1])
    np.testing.assert_array_equal(degrees_before, view.degrees("view"))


# ----------------------------------------------------------------------
# Direct unit coverage
# ----------------------------------------------------------------------
class TestEdgeDeltaBuffer:
    def test_arrival_order_and_duplicates(self):
        buffer = EdgeDeltaBuffer("view")
        buffer.append(0, 5)
        buffer.append(4, 1)
        assert len(buffer) == 2
        assert buffer.contains(5, 0) and buffer.contains(1, 4)
        src, dst = buffer.arrays()
        np.testing.assert_array_equal(src, [0, 4])
        np.testing.assert_array_equal(dst, [5, 1])
        buffer.clear()
        assert len(buffer) == 0 and not buffer.contains(0, 5)

    def test_empty_arrays(self):
        src, dst = EdgeDeltaBuffer("view").arrays()
        assert len(src) == 0 and len(dst) == 0
        assert src.dtype == np.int64


class TestDeltaGraphView:
    def test_no_delta_serves_base_arrays(self):
        base = build_base()
        view = DeltaGraphView(base)
        indptr, indices = view.csr("view")
        base_indptr, base_indices = base.csr("view")
        assert indptr is base_indptr and indices is base_indices

    def test_duplicate_against_base_and_delta(self):
        view = DeltaGraphView(build_base())
        assert not view.add_edge(0, 3, "view")       # already in the base
        assert view.add_edge(0, 5, "view")
        assert not view.add_edge(5, 0, "view")       # reversed duplicate
        assert view.duplicates_dropped == 2
        assert view.edges_ingested == 1

    def test_multiplexity_same_pair_other_relation(self):
        view = DeltaGraphView(build_base())
        assert view.add_edge(0, 5, "view")
        assert view.add_edge(0, 5, "buy")            # distinct relation: ok
        assert view.has_edge(0, 5, "buy")

    def test_validation(self):
        view = DeltaGraphView(build_base())
        with pytest.raises(GraphError):
            view.add_edge(1, 1, "view")
        with pytest.raises(GraphError):
            view.add_edge(0, 99, "view")
        with pytest.raises(GraphError):
            view.add_edge(-1, 3, "view")
        with pytest.raises(SchemaError):
            view.add_edge(0, 3, "likes")
        with pytest.raises(SchemaError):
            view.add_node("brand")

    def test_add_node_surface(self):
        view = DeltaGraphView(build_base())
        node = view.add_node("item")
        assert node == 7 and view.num_nodes == 8
        assert view.node_type(node) == "item"
        assert node in view.nodes_of_type("item")
        assert view.degree(node) == 0
        view.add_edge(0, node, "view")
        assert view.degree(node, "view") == 1
        assert_bit_identical(view)

    def test_threshold_and_listeners(self):
        view = DeltaGraphView(build_base(), compaction_threshold=3)
        fired = []
        view.add_compaction_listener(lambda v: fired.append(v.version))
        for u, v in [(0, 5), (0, 6), (1, 4)]:
            view.add_edge(u, v, "view")
            compacted = view.maybe_compact()
        assert compacted and view.compactions == 1 and len(fired) == 1
        assert view.pending_edges == 0
        assert view.base.num_edges == 9 + 3

    def test_threshold_zero_disables_auto_compaction(self):
        view = DeltaGraphView(build_base(), compaction_threshold=0)
        for u, v in [(0, 5), (0, 6), (1, 4), (1, 6), (2, 3)]:
            view.add_edge(u, v, "view")
        assert not view.should_compact() and not view.maybe_compact()
        assert view.compactions == 0 and view.pending_edges == 5

    def test_version_clock_monotone(self):
        view = DeltaGraphView(build_base(), compaction_threshold=0)
        versions = [view.version]
        view.add_edge(0, 5, "view")
        versions.append(view.version)
        view.add_node("user")
        versions.append(view.version)
        view.add_edge(0, 5, "view")              # duplicate: no bump
        versions.append(view.version)
        view.compact()
        versions.append(view.version)
        assert versions == sorted(versions)
        assert versions[2] == versions[3]        # the duplicate
        assert versions[-1] > versions[-2]

    def test_stats_roundtrip(self):
        view = DeltaGraphView(build_base(), compaction_threshold=0)
        view.add_edge(0, 5, "view")
        view.add_node("item")
        stats = view.stats()
        assert stats["pending_edges"] == 1 and stats["pending_nodes"] == 1
        assert stats["num_nodes"] == 8 and stats["edges_ingested"] == 1


class TestSplice:
    """The merged CSR is extended in place of being rebuilt."""

    def test_rebuilds_at_most_once_per_relation(self, monkeypatch):
        view = DeltaGraphView(build_base(), compaction_threshold=0)
        calls = []
        build_csr = MultiplexHeteroGraph._build_csr

        def counting(num_nodes, src, dst):
            calls.append(num_nodes)
            return build_csr(num_nodes, src, dst)

        monkeypatch.setattr(
            MultiplexHeteroGraph, "_build_csr", staticmethod(counting)
        )
        edges = [(0, 5, "view"), (0, 6, "buy"), (1, 4, "view"),
                 (1, 6, "buy"), (2, 3, "view"), (2, 4, "buy")]
        for step, (u, v, relation) in enumerate(edges):
            if step == 3:
                view.add_node("item")
            assert view.add_edge(u, v, relation)
            for rel in view.schema.relationships:
                view.csr(rel)
        assert len(calls) <= len(view.schema.relationships)
        monkeypatch.undo()
        assert_bit_identical(view)

    def test_write_leaves_other_relation_arrays(self):
        view = DeltaGraphView(build_base(), compaction_threshold=0)
        view.add_edge(0, 5, "view")
        view.add_edge(0, 6, "buy")
        served = {rel: view.csr(rel) for rel in view.schema.relationships}
        copies = {
            rel: tuple(part.copy() for part in arrays)
            for rel, arrays in served.items()
        }
        view.add_edge(1, 6, "view")
        buy_indptr, buy_indices = view.csr("buy")
        assert buy_indptr is served["buy"][0]
        assert buy_indices is served["buy"][1]
        view.csr("view")
        # Arrays handed out before the write are never written in place.
        for rel, (indptr, indices) in served.items():
            np.testing.assert_array_equal(indptr, copies[rel][0])
            np.testing.assert_array_equal(indices, copies[rel][1])
        assert_bit_identical(view)

    def test_new_node_appends_zero_degree_rows(self):
        view = DeltaGraphView(build_base(), compaction_threshold=0)
        view.add_edge(0, 5, "view")
        indptr, indices = view.csr("view")
        node = view.add_node("user")
        grown_indptr, grown_indices = view.csr("view")
        np.testing.assert_array_equal(grown_indptr[:-1], indptr)
        assert grown_indptr[node + 1] == grown_indptr[node] == indptr[-1]
        assert grown_indices is indices
        assert_bit_identical(view)


class TestC008DriftFinding:
    def test_clean_view_has_no_findings(self):
        view = DeltaGraphView(build_base())
        view.add_edge(0, 5, "view")
        view.add_node("user")
        assert delta_findings(view) == []
        verify_delta_view(view)  # must not raise

    def test_corrupted_merged_csr_is_flagged(self):
        view = DeltaGraphView(build_base(), compaction_threshold=0)
        view.add_edge(0, 5, "view")
        indptr, indices = view.csr("view")
        # Simulate a drifted cache: neighbor order silently permuted.
        view._merged_csr["view"] = view._merged_csr["view"]._replace(
            indices=indices[::-1].copy()
        )
        findings = delta_findings(view)
        assert [f.code for f in findings] == ["C008"]
        assert findings[0].param == "view"
        with pytest.raises(CheckError, match="C008"):
            verify_delta_view(view)
