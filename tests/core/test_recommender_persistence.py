"""Top-K recommendation over a model, and model persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EmbeddingStore,
    HybridGNN,
    HybridGNNConfig,
    export_embeddings,
    load_checkpoint_into,
    load_embeddings,
    save_checkpoint,
)
from repro.errors import EvaluationError, ReproError
from repro.serving import BatchServingEngine


@pytest.fixture
def model(taobao_dataset, taobao_split, tiny_hybrid_config):
    return HybridGNN(
        taobao_split.train_graph, taobao_dataset.all_schemes(),
        tiny_hybrid_config, rng=0,
    )


@pytest.fixture
def engine(model, taobao_split):
    return BatchServingEngine(model, taobao_split.train_graph)


class TestRecommender:
    def test_recommend_returns_k_items(self, engine, taobao_split):
        user = int(taobao_split.train_graph.nodes_of_type("user")[0])
        recs = engine.recommend(user, "page_view", k=5)
        assert len(recs) == 5
        scores = [r.score for r in recs]
        assert scores == sorted(scores, reverse=True)

    def test_recommendations_are_items(self, engine, taobao_split):
        graph = taobao_split.train_graph
        user = int(graph.nodes_of_type("user")[0])
        for rec in engine.recommend(user, "page_view", k=5):
            assert graph.node_type(rec.node) == "item"

    def test_known_neighbors_excluded(self, engine, taobao_split):
        graph = taobao_split.train_graph
        users = graph.nodes_of_type("user")
        user = next(int(u) for u in users if graph.degree(int(u), "page_view") > 0)
        known = set(graph.neighbors(user, "page_view").tolist())
        recs = engine.recommend(user, "page_view", k=10)
        assert not {r.node for r in recs} & known

    def test_include_known_when_asked(self, engine, taobao_split):
        graph = taobao_split.train_graph
        users = graph.nodes_of_type("user")
        user = next(int(u) for u in users if graph.degree(int(u), "page_view") > 2)
        recs = engine.recommend(user, "page_view", k=graph.num_nodes,
                                exclude_known=False)
        known = set(graph.neighbors(user, "page_view").tolist())
        assert known <= {r.node for r in recs}

    def test_isolated_source_resolves_type_from_schema(
        self, engine, taobao_split
    ):
        # Regression: cold-start nodes used to raise EvaluationError unless
        # the caller passed target_type; the type is now inferred from the
        # relationship's schema-level endpoint map.
        graph = taobao_split.train_graph
        users = graph.nodes_of_type("user")
        isolated = [u for u in users if graph.degree(int(u), "purchase") == 0]
        if not isolated:
            pytest.skip("no isolated user under purchase")
        user = int(isolated[0])
        inferred = engine.recommend(user, "purchase", k=3)
        explicit = engine.recommend(user, "purchase", k=3, target_type="item")
        assert inferred == explicit
        assert len(inferred) == 3

    def test_invalid_k(self, engine):
        with pytest.raises(EvaluationError):
            engine.recommend(0, "page_view", k=0)

    def test_batch(self, engine, taobao_split):
        users = taobao_split.train_graph.nodes_of_type("user")[:3]
        lists = engine.recommend_batch(users, "page_view", k=4)
        assert len(lists) == 3
        assert all(len(l) == 4 for l in lists)

    def test_similar_nodes_same_type(self, engine, taobao_split):
        graph = taobao_split.train_graph
        item = int(graph.nodes_of_type("item")[0])
        similar = engine.similar_nodes(item, "page_view", k=5)
        assert len(similar) == 5
        assert item not in {r.node for r in similar}
        for rec in similar:
            assert graph.node_type(rec.node) == "item"
            assert -1.0 - 1e-9 <= rec.score <= 1.0 + 1e-9


class TestCheckpoints:
    def test_roundtrip(self, model, taobao_dataset, taobao_split,
                       tiny_hybrid_config, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        clone = HybridGNN(
            taobao_split.train_graph, taobao_dataset.all_schemes(),
            tiny_hybrid_config, rng=99,  # different init
        )
        load_checkpoint_into(clone, path)
        for (name_a, param_a), (name_b, param_b) in zip(
            model.named_parameters(), clone.named_parameters()
        ):
            assert name_a == name_b
            np.testing.assert_array_equal(param_a.data, param_b.data)

    def test_wrong_file_rejected(self, model, tmp_path):
        path = tmp_path / "not_a_checkpoint.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(ReproError):
            load_checkpoint_into(model, path)

    def test_suffixless_path_roundtrips(self, model, taobao_dataset, taobao_split,
                                        tiny_hybrid_config, tmp_path):
        # Regression: np.savez_compressed silently appends ".npz", so saving
        # to "ckpt" wrote "ckpt.npz" while loading looked for "ckpt" and
        # failed.  Save must report the real path and load must accept the
        # suffix-less spelling.
        requested = tmp_path / "ckpt"
        written = save_checkpoint(model, requested)
        assert written == tmp_path / "ckpt.npz"
        assert written.exists()
        assert not requested.exists()
        clone = HybridGNN(
            taobao_split.train_graph, taobao_dataset.all_schemes(),
            tiny_hybrid_config, rng=123,
        )
        load_checkpoint_into(clone, requested)  # suffix-less, as saved
        for (_, param_a), (_, param_b) in zip(
            model.named_parameters(), clone.named_parameters()
        ):
            np.testing.assert_array_equal(param_a.data, param_b.data)

    def test_meta_parameter_name_rejected(self, model, tmp_path):
        # Regression: a parameter named "__meta__" used to silently collide
        # with the archive's metadata entry and corrupt the checkpoint.
        from repro.nn.module import Module, Parameter

        class Poisoned(Module):
            def __init__(self):
                super().__init__()
                setattr(self, "__meta__", Parameter(np.zeros(2)))

        with pytest.raises(ReproError, match="reserved"):
            save_checkpoint(Poisoned(), tmp_path / "poisoned.npz")
        assert not (tmp_path / "poisoned.npz").exists()


class TestEmbeddingExport:
    def test_roundtrip(self, model, taobao_split, tmp_path):
        path = tmp_path / "embeddings.npz"
        graph = taobao_split.train_graph
        relations = list(graph.schema.relationships)
        export_embeddings(model, graph.num_nodes, relations, path)
        store = load_embeddings(path)
        assert store.num_nodes == graph.num_nodes
        assert set(store.relations) == set(relations)
        nodes = np.arange(10)
        np.testing.assert_allclose(
            store.node_embeddings(nodes, "page_view"),
            model.node_embeddings(nodes, "page_view"),
        )

    def test_store_usable_by_recommender(self, model, taobao_split, tmp_path):
        path = tmp_path / "embeddings.npz"
        graph = taobao_split.train_graph
        export_embeddings(model, graph.num_nodes, graph.schema.relationships, path)
        store = load_embeddings(path)
        engine = BatchServingEngine(store, graph)
        user = int(graph.nodes_of_type("user")[0])
        assert len(engine.recommend(user, "page_view", k=3)) == 3

    def test_unknown_relation_rejected(self, model, taobao_split, tmp_path):
        path = tmp_path / "embeddings.npz"
        graph = taobao_split.train_graph
        export_embeddings(model, graph.num_nodes, ["page_view"], path)
        store = load_embeddings(path)
        with pytest.raises(ReproError):
            store.node_embeddings(np.arange(2), "purchase")

    def test_mismatched_tables_rejected(self):
        with pytest.raises(ReproError):
            EmbeddingStore({"a": np.zeros((3, 2)), "b": np.zeros((4, 2))})
        with pytest.raises(ReproError):
            EmbeddingStore({})

    def test_suffixless_path_roundtrips(self, model, taobao_split, tmp_path):
        graph = taobao_split.train_graph
        requested = tmp_path / "embeddings"
        written = export_embeddings(
            model, graph.num_nodes, ["page_view"], requested
        )
        assert written == tmp_path / "embeddings.npz"
        store = load_embeddings(requested)  # suffix-less, as saved
        np.testing.assert_array_equal(
            store.node_embeddings(np.arange(5), "page_view"),
            model.node_embeddings(np.arange(5), "page_view"),
        )

    def test_meta_relation_name_rejected(self, model, tmp_path):
        with pytest.raises(ReproError, match="reserved"):
            export_embeddings(model, 4, ["__meta__"], tmp_path / "bad.npz")