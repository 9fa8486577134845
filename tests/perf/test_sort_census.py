"""A training step sorts each sampled level once, plus a named remainder."""

from __future__ import annotations

import collections
import traceback

import numpy as np

from repro.core import HybridGNN, HybridGNNConfig, SkipGramTrainer, TrainerConfig
from repro.datasets import load_dataset, split_edges

#: Sorts a step makes outside the sampled levels, by the function that
#: asks for them: one union per flow for its features lookup, the batch's
#: split by node type, the negative sampler's type split, and the row sums
#: of the unsorted lookups (base, contexts, negatives) and of the two
#: parameters whose gradient arrives in several chunks (context: contexts
#: and negatives; features: one chunk per flow).
REMAINDER = {"_lookup": "flows", "local_embeddings": 1, "sample_like": 1, "_sum_rows": 5}

SORTS = ("unique", "argsort", "sort", "lexsort")


def test_train_large_shaped_step_sorts_each_level_once(monkeypatch):
    dataset = load_dataset("taobao-xl", scale=0.003, seed=5)
    split = split_edges(dataset.graph, rng=5)
    schemes = dataset.all_schemes()
    model = HybridGNN(split.train_graph, schemes, HybridGNNConfig(), rng=5)
    trainer = SkipGramTrainer(model, schemes, split,
                              TrainerConfig(num_walks=1, batch_size=256), rng=5)
    batch = next(b for b in trainer.make_batches(trainer.generate_pairs())
                 if len(b[1]) == 256)
    callers = collections.Counter()

    def counted(sort):
        def wrapper(*args, **kwargs):
            frames = traceback.extract_stack()[:-1]
            callers[next(f.name for f in reversed(frames) if f.name != "stable_sort")] += 1
            return sort(*args, **kwargs)
        return wrapper

    for name in SORTS:
        monkeypatch.setattr(np, name, counted(getattr(np, name)))
    trainer.apply_updates([batch])

    flows = [flow for groups in model.flows.values() for group in groups
             for flow in group.stacks] + [model.exploration_flow]
    levels = sum(len(flow.fanouts) + 1 for flow in flows)
    expected = {name: len(flows) if count == "flows" else count
                for name, count in REMAINDER.items()}
    expected["_level"] = levels
    assert dict(callers) == expected
    assert levels == 9 and sum(callers.values()) == 19  # 37 before levels sorted once
