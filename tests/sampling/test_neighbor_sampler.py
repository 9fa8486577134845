"""Metapath-guided neighbor sampling (paper Def. 5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import MetapathError
from repro.graph import MetapathScheme
from repro.nn.tensor import segments
from repro.sampling import MetapathNeighborSampler, sample_blocks


@pytest.fixture
def uiu_sampler(taobao_dataset):
    scheme = taobao_dataset.schemes_for("page_view")[0]  # U-I-U
    return MetapathNeighborSampler(taobao_dataset.graph, scheme, [3, 2], rng=0)


class TestSampleLayers:
    def test_layer_shapes(self, uiu_sampler, taobao_dataset):
        users = taobao_dataset.graph.nodes_of_type("user")[:5]
        blocks = uiu_sampler.sample_layers(np.concatenate([users, users[:2]]))
        np.testing.assert_array_equal(blocks.nodes[0], np.sort(users))
        np.testing.assert_array_equal(blocks.nodes[0][blocks.batch[:5]], users)
        np.testing.assert_array_equal(blocks.batch[5:], blocks.batch[:2])
        assert blocks.children[0].shape == (5, 3)
        assert blocks.children[1].shape == (len(blocks.nodes[1]), 2)
        assert blocks.expand(1).shape == (7, 3)
        assert blocks.expand(2).shape == (7, 6)

    def test_levels_are_sorted_unique_and_children_address_them(self, uiu_sampler,
                                                                taobao_dataset):
        users = taobao_dataset.graph.nodes_of_type("user")[:8]
        blocks = uiu_sampler.sample_layers(users)
        for level in blocks.nodes:
            assert np.all(np.diff(level) > 0)
        for k, children in enumerate(blocks.children):
            assert children.min() >= 0 and children.max() < len(blocks.nodes[k + 1])
            assert np.array_equal(np.unique(children), np.arange(len(blocks.nodes[k + 1])))

    def test_layer_types_follow_scheme(self, uiu_sampler, taobao_dataset):
        graph = taobao_dataset.graph
        users = graph.nodes_of_type("user")[:5]
        blocks = uiu_sampler.sample_layers(users)
        level1_types = {graph.node_type(int(v)) for v in blocks.nodes[1]}
        # Items, except where a user had no item neighbor (self fallback).
        assert level1_types <= {"item", "user"}
        # At least some genuine item neighbors must appear.
        assert "item" in level1_types

    def test_sampled_neighbors_are_guided_neighbors(self, uiu_sampler, taobao_dataset):
        graph = taobao_dataset.graph
        user = int(graph.nodes_of_type("user")[0])
        exact = set(uiu_sampler.guided_neighbors(user, 1).tolist())
        if not exact:
            pytest.skip("start node has no guided neighbors")
        blocks = uiu_sampler.sample_layers(np.asarray([user]))
        sampled = set(blocks.expand(1).reshape(-1).tolist())
        assert sampled <= exact | {user}

    def test_fallback_for_node_without_neighbors(self, taobao_dataset):
        graph = taobao_dataset.graph
        scheme = taobao_dataset.schemes_for("download" if "download" in
                                            graph.schema.relationships else
                                            "purchase")[0]
        sampler = MetapathNeighborSampler(graph, scheme, [2, 2], rng=0)
        users = graph.nodes_of_type("user")
        # Find a user with no 'purchase' neighbors (sparse relation).
        isolated = [u for u in users if graph.degree(int(u), scheme.relations[0]) == 0]
        if not isolated:
            pytest.skip("all users active under the sparse relation")
        blocks = sampler.sample_layers(np.asarray(isolated[:1]))
        np.testing.assert_array_equal(blocks.expand(1)[0], [isolated[0]] * 2)


def reference_blocks(nodes, fanouts, draws):
    """Stacked blocks built the way the one-sort blocks replace: one
    ``np.unique`` per hop per slice, then each level padded to the widest
    slice with the slice's last node and the rows offset by slice."""
    slices = []
    for draw in draws:
        frontier, batch = np.unique(np.asarray(nodes, dtype=np.int64), return_inverse=True)
        levels, children = [frontier], []
        for hop, fanout in enumerate(fanouts):
            sampled = draw(hop, frontier, fanout)
            frontier, inverse = np.unique(sampled, return_inverse=True)
            levels.append(frontier)
            children.append(inverse.reshape(sampled.shape))
        slices.append((levels, children, batch.reshape(-1)))
    count = len(slices)
    widths = [max(len(levels[k]) for levels, _, _ in slices)
              for k in range(len(fanouts) + 1)]
    nodes = [np.empty((count, width), dtype=np.int64) for width in widths]
    children = [np.empty((count, widths[k], fanout), dtype=np.int64)
                for k, fanout in enumerate(fanouts)]
    batch = np.empty((count, len(slices[0][2])), dtype=np.int64)
    for s, (levels, rows, entries) in enumerate(slices):
        for level, ids in zip(nodes, levels):
            level[s, :len(ids)] = ids
            level[s, len(ids):] = ids[-1:]
        for k, block in enumerate(rows):
            children[k][s, :len(block)] = block + s * widths[k + 1]
            children[k][s, len(block):] = s * widths[k + 1]
        batch[s] = entries + s * widths[0]
    return nodes, children, batch


def seeded_draws(seeds, span):
    def draw_for(seed):
        rng = np.random.default_rng(seed)
        return lambda hop, frontier, fanout: rng.integers(0, span, (len(frontier), fanout))
    return [draw_for(seed) for seed in seeds]


class TestStackBlocks:
    def test_pads_with_own_nodes_and_offsets_rows(self, taobao_dataset):
        graph = taobao_dataset.graph
        users = graph.nodes_of_type("user")[:6]
        schemes = [taobao_dataset.schemes_for(r)[0] for r in graph.schema.relationships]
        slices = [
            MetapathNeighborSampler(graph, scheme, [3, 2],
                                    rng=seed).sample_layers(users)
            for seed, scheme in enumerate(schemes)
        ]
        stacked = MetapathNeighborSampler(
            graph, schemes, [3, 2],
            rng=[np.random.default_rng(seed) for seed in range(len(schemes))],
        ).sample_layers(users)
        for k, level in enumerate(stacked.nodes):
            assert level.shape == (len(slices), max(len(b.nodes[k]) for b in slices))
            for row, block in zip(level, slices):
                np.testing.assert_array_equal(row[:len(block.nodes[k])], block.nodes[k])
                assert set(row.tolist()) == set(block.nodes[k].tolist())
        for s, block in enumerate(slices):
            np.testing.assert_array_equal(stacked.expand(2)[s], block.expand(2))

    @settings(max_examples=60, deadline=None)
    @example(nodes=[], seeds=[3, 4], fanouts=[2, 1], span=5)
    @given(
        nodes=st.lists(st.integers(0, 40), min_size=0, max_size=25),
        seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
        fanouts=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        span=st.integers(1, 60),
    )
    def test_one_sort_per_level_equals_per_slice_unique(self, nodes, seeds, fanouts, span):
        blocks = sample_blocks(np.asarray(nodes), fanouts, seeded_draws(seeds, span))
        levels, children, batch = reference_blocks(nodes, fanouts, seeded_draws(seeds, span))
        for got, want in zip(blocks.nodes, levels):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(blocks.children, children):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(blocks.batch, batch)
        # The layouts are the index's own: what a stable argsort makes.
        for index, rows, layout in zip(
            blocks.children + [blocks.batch], levels[1:] + levels[:1],
            blocks.children_segments + [blocks.batch_segments],
        ):
            want = segments(index, rows.size)
            np.testing.assert_array_equal(layout.indptr, want.indptr)
            np.testing.assert_array_equal(layout.order,
                                          np.argsort(index.reshape(-1), kind="stable"))

    def test_single_drops_the_slice_axis_only(self):
        stacked = sample_blocks(np.asarray([3, 1, 3]), [2], seeded_draws([7], 9))
        single = stacked.single()
        assert single.nodes[0].shape == (2,) and single.batch.shape == (3,)
        np.testing.assert_array_equal(single.children[0], stacked.children[0][0])
        assert single.children_segments is stacked.children_segments


class TestGuidedNeighbors:
    def test_step_zero_is_self(self, uiu_sampler, taobao_dataset):
        user = int(taobao_dataset.graph.nodes_of_type("user")[0])
        np.testing.assert_array_equal(uiu_sampler.guided_neighbors(user, 0), [user])

    def test_step_one_are_typed_relationship_neighbors(self, uiu_sampler, taobao_dataset):
        graph = taobao_dataset.graph
        user = int(graph.nodes_of_type("user")[0])
        guided = uiu_sampler.guided_neighbors(user, 1)
        direct = graph.neighbors(user, "page_view")
        item_code = graph.schema.node_type_index("item")
        expected = sorted(
            int(v) for v in direct if graph.node_type_codes[v] == item_code
        )
        assert guided.tolist() == expected

    def test_out_of_range_step_rejected(self, uiu_sampler):
        with pytest.raises(MetapathError):
            uiu_sampler.guided_neighbors(0, 5)


class TestValidation:
    def test_fanout_count_mismatch(self, taobao_dataset):
        scheme = taobao_dataset.schemes_for("page_view")[0]
        with pytest.raises(MetapathError):
            MetapathNeighborSampler(taobao_dataset.graph, scheme, [3])

    def test_nonpositive_fanout(self, taobao_dataset):
        scheme = taobao_dataset.schemes_for("page_view")[0]
        with pytest.raises(MetapathError):
            MetapathNeighborSampler(taobao_dataset.graph, scheme, [3, 0])

    def test_scheme_must_match_schema(self, small_graph):
        scheme = MetapathScheme.intra(["user", "video", "user"], "view")
        with pytest.raises(MetapathError):
            MetapathNeighborSampler(small_graph, scheme, [2, 2])
