"""End-to-end integration tests: the whole pipeline on every dataset-alike.

These are the repository's "does it actually work" tests: generate a
dataset, split it, train HybridGNN, and check it learns (beats chance by a
clear margin), plus the full-table smoke of the experiment harness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    HybridGNN,
    HybridGNNConfig,
    SkipGramTrainer,
    TrainerConfig,
)
from repro.datasets import available_datasets, load_dataset, split_edges
from repro.eval import evaluate_link_prediction, evaluate_ranking

pytestmark = pytest.mark.integration

TRAIN_CONFIG = TrainerConfig(
    epochs=6, batch_size=256, num_walks=3, walk_length=10, window=3, patience=6,
    learning_rate=2e-2,
)
MODEL_CONFIG = HybridGNNConfig(
    base_dim=32, edge_dim=16, metapath_fanouts=(4, 3, 2, 2, 2, 2),
    exploration_fanout=4, exploration_depth=2,
)


# taobao-xl is a benchmark-scale alike (hundreds of thousands of nodes even
# at small scales); perfbench's training workloads and tests/perf/ cover it.
@pytest.mark.parametrize(
    "name", [d for d in available_datasets() if d != "taobao-xl"]
)
def test_hybridgnn_learns_on_every_dataset(name):
    dataset = load_dataset(name, scale=0.25, seed=11)
    split = split_edges(dataset.graph, rng=12)
    schemes = dataset.all_schemes()
    model = HybridGNN(split.train_graph, schemes, MODEL_CONFIG, rng=13)
    trainer = SkipGramTrainer(model, schemes, split, TRAIN_CONFIG, rng=14)
    history = trainer.fit()
    assert history.losses[-1] < history.losses[0]

    report = evaluate_link_prediction(model, split.test)
    assert report["roc_auc"] > 60.0, f"{name}: ROC-AUC {report['roc_auc']:.1f}"

    ranking = evaluate_ranking(
        model, split.train_graph, split.test, k=10, max_sources=20,
        rng=np.random.default_rng(15),
    )
    assert 0.0 <= ranking["pr_at_k"] <= 1.0
    assert 0.0 <= ranking["hr_at_k"] <= 1.0


def test_embeddings_are_deterministic_given_cache():
    dataset = load_dataset("amazon", scale=0.25, seed=0)
    split = split_edges(dataset.graph, rng=1)
    model = HybridGNN(split.train_graph, dataset.all_schemes(), MODEL_CONFIG, rng=2)
    first = model.node_embeddings(np.arange(10), "common_bought")
    second = model.node_embeddings(np.arange(10), "common_bought")
    np.testing.assert_array_equal(first, second)


def test_full_pipeline_reproducible_end_to_end():
    """Same seeds -> identical test metrics (bitwise)."""

    def run():
        dataset = load_dataset("amazon", scale=0.2, seed=5)
        split = split_edges(dataset.graph, rng=6)
        schemes = dataset.all_schemes()
        model = HybridGNN(split.train_graph, schemes, MODEL_CONFIG, rng=7)
        trainer = SkipGramTrainer(
            model, schemes, split,
            TrainerConfig(epochs=2, batch_size=128, num_walks=1, walk_length=6,
                          window=2, patience=2),
            rng=8,
        )
        trainer.fit()
        return evaluate_link_prediction(model, split.test)["roc_auc"]

    assert run() == pytest.approx(run(), abs=1e-9)
