#!/usr/bin/env python
"""Production-shaped workflow: train offline, export, serve from the export.

A recommender system rarely serves a live model; it serves materialised
embeddings.  This example walks that split:

1. *offline*: train HybridGNN, checkpoint the model, export the
   per-relationship embedding matrices to one .npz file;
2. *online*: load only the export (no model code needed), serve it through
   the :class:`~repro.serving.BatchServingEngine`, and answer top-K and
   similar-item queries;
3. verify the served scores exactly match the live model's.

The same artifacts are scriptable via the CLI:
``python -m repro train --save-embeddings emb.npz`` then
``python -m repro recommend --embeddings emb.npz --node 3 --relation like``.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import (
    HybridGNN,
    HybridGNNConfig,
    SkipGramTrainer,
    TrainerConfig,
    export_embeddings,
    load_checkpoint_into,
    load_embeddings,
    save_checkpoint,
)
from repro.datasets import load_dataset, split_edges
from repro.serving import BatchServingEngine


def main() -> None:
    print("== offline: train ==")
    dataset = load_dataset("amazon", scale=0.3, seed=0)
    split = split_edges(dataset.graph, rng=1)
    schemes = dataset.all_schemes()
    model = HybridGNN(
        split.train_graph, schemes,
        HybridGNNConfig(base_dim=16, edge_dim=8), rng=2,
    )
    trainer = SkipGramTrainer(
        model, schemes, split,
        TrainerConfig(epochs=4, num_walks=2, walk_length=8, window=3,
                      learning_rate=2e-2),
        rng=3,
    )
    history = trainer.fit()
    print(f"trained; best val ROC-AUC {history.best_val_score:.2f}")

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "hybridgnn.npz"
        embeddings = Path(tmp) / "embeddings.npz"

        print("\n== offline: persist ==")
        save_checkpoint(model, checkpoint)
        export_embeddings(
            model, split.train_graph.num_nodes,
            split.train_graph.schema.relationships, embeddings,
        )
        print(f"checkpoint: {checkpoint.stat().st_size:,} bytes")
        print(f"embeddings: {embeddings.stat().st_size:,} bytes")

        print("\n== online: serve from the export only ==")
        store = load_embeddings(embeddings)
        engine = BatchServingEngine(store, split.train_graph)
        item = int(split.train_graph.nodes_of_type("item")[0])
        recs = engine.recommend(item, "common_bought", k=5)
        print(f"top-5 'common_bought' for item {item}:")
        for rec in recs:
            print(f"  item {rec.node}: score {rec.score:.3f}")
        similar = engine.similar_nodes(item, "common_viewed", k=3)
        print(f"3 most similar items under 'common_viewed': "
              f"{[r.node for r in similar]}")

        print("\n== consistency checks ==")
        live = model.node_embeddings(np.arange(5), "common_bought")
        served = store.node_embeddings(np.arange(5), "common_bought")
        assert np.allclose(live, served), "export must match the live model"
        print("export matches live model: OK")

        # A fresh model restored from the checkpoint serves identically too.
        clone = HybridGNN(
            split.train_graph, schemes,
            HybridGNNConfig(base_dim=16, edge_dim=8), rng=99,
        )
        load_checkpoint_into(clone, checkpoint)
        for (name, a), (_, b) in zip(model.named_parameters(),
                                     clone.named_parameters()):
            assert np.array_equal(a.data, b.data), name
        print("checkpoint restore matches live parameters: OK")


if __name__ == "__main__":
    main()
