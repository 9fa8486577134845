"""Efficiency-relevant model behaviour: shared exploration, eval averaging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HybridGNN, HybridGNNConfig


@pytest.fixture
def model(taobao_dataset, taobao_split):
    config = HybridGNNConfig(
        base_dim=8, edge_dim=4, metapath_fanouts=(2, 2, 2, 2, 2, 2),
        exploration_fanout=2, exploration_depth=1, eval_samples=2,
    )
    return HybridGNN(
        taobao_split.train_graph, taobao_dataset.all_schemes(), config, rng=0
    )


def test_exploration_flow_runs_once_per_forward(model, monkeypatch):
    """The P_rand flow is relation-independent (Eq. 4): one forward pass must
    invoke it exactly once even with relationship attention over 4 relations."""
    calls = []
    original = model.exploration_flow.forward

    def counting(nodes):
        calls.append(len(nodes))
        return original(nodes)

    monkeypatch.setattr(model.exploration_flow, "forward", counting)
    model(np.arange(6), "page_view")
    assert len(calls) == 1


def test_eval_samples_reduces_embedding_variance(taobao_dataset, taobao_split):
    """Averaging more stochastic passes yields more stable cached embeddings.

    A fill leaves the sampler streams where it found them, so each run
    first moves them on with one training-mode pass, as a step would.
    """

    def spread(eval_samples):
        config = HybridGNNConfig(
            base_dim=8, edge_dim=4, metapath_fanouts=(2, 2, 2, 2, 2, 2),
            exploration_fanout=2, exploration_depth=1,
            eval_samples=eval_samples,
        )
        model = HybridGNN(
            taobao_split.train_graph, taobao_dataset.all_schemes(), config, rng=0
        )
        runs = []
        for _ in range(4):
            model(np.arange(20), "page_view")
            model.invalidate_cache()
            runs.append(model.node_embeddings(np.arange(20), "page_view").copy())
        return float(np.mean(np.var(np.stack(runs), axis=0)))

    assert spread(6) < spread(1)


def test_eval_samples_config_validated():
    from repro.errors import TrainingError

    with pytest.raises(TrainingError):
        HybridGNNConfig(eval_samples=0)


def test_metapath_attention_residual_keeps_flow_signal(model):
    """With residual attention, the fused embedding moves when any single
    flow's contribution changes (no flow can be entirely gated away)."""
    nodes = model.graph.nodes_of_type("user")[:4]
    before = model.local_embeddings(nodes, [0]).data.copy()
    # Perturb the feature table massively: flows must propagate the change.
    model.features.weight.data += 10.0
    after = model.local_embeddings(nodes, [0]).data
    assert not np.allclose(before, after)
