"""Differential oracles: every fast path against an independent slow truth.

Three oracle families, each reporting a max-abs-diff per component:

- **sampling**: the vectorised frontier walkers against their scalar
  ``_reference_*`` paths in :mod:`repro.verify.references` (draw-for-draw
  identical for uniform, metapath and exploration walks), the p/q weights
  node2vec's batched step draws from against brute-force membership, alias
  tables and the negative sampler against their exact target
  distributions, and Eq. 1's relationship transition probabilities
  against a loop transcription;
- **metrics**: every function of :mod:`repro.eval.metrics` against a
  brute-force O(n^2) / pure-Python reimplementation (pairwise Mann-Whitney
  ROC-AUC, threshold-sweep PR-AUC and F1, positional loops for the ranking
  metrics);
- **model**: losses, attention and normalisation layers against plain numpy
  transcriptions of the paper's Eqs. 3, 6-10 and 13, and the staged
  ``SkipGramTrainer.fit`` (sample→batch→update) against the monolithic loop
  kept as ``SkipGramTrainer._reference_fit`` — losses, validation scores
  and every final parameter, on identically seeded twin models;
- **serving**: the batched top-K engine (mask pools, one-fetch tables,
  single-matmul scoring, argpartition extraction) against the scalar
  ``_reference_*`` recommendation paths — top-K lists must match node for
  node *in order* (exact ties included), scores to float roundoff.

Every oracle is *exact*: both sides compute the same mathematical object,
so the acceptance tolerance is float-roundoff scale (1e-6), not a loose
statistical bound.  A drifting refactor therefore fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.utils.rng import as_rng, spawn_rng

__all__ = [
    "OracleResult",
    "DEFAULT_TOLERANCE",
    "RECALL_TOLERANCE",
    "sampling_oracles",
    "metric_oracles",
    "model_oracles",
    "serving_oracles",
    "index_oracles",
    "service_oracles",
    "run_oracle_suite",
    "format_oracle_table",
]

DEFAULT_TOLERANCE = 1e-6

# Approximate retrieval gate: an ANN backend passes its recall oracle when
# recall@10 vs the exact oracle exceeds 1 - RECALL_TOLERANCE (0.95).  The
# oracle reports max_abs_diff = 1 - recall so the standard
# ``max_abs_diff < tolerance`` acceptance applies unchanged.
RECALL_TOLERANCE = 0.05


@dataclass
class OracleResult:
    """Outcome of one differential oracle."""

    name: str
    component: str
    max_abs_diff: float
    tolerance: float = DEFAULT_TOLERANCE
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.max_abs_diff < self.tolerance

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "component": self.component,
            "max_abs_diff": self.max_abs_diff,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "detail": self.detail,
        }


def _result(name: str, component: str, diff: float, detail: str = "",
            tolerance: float = DEFAULT_TOLERANCE) -> OracleResult:
    return OracleResult(
        name=name, component=component, max_abs_diff=float(diff),
        tolerance=tolerance, detail=detail,
    )


def _array_diff(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def _walks_diff(fast: Sequence[Sequence[int]], ref: Sequence[Sequence[int]]) -> float:
    """0 when the walk corpora are identical, inf otherwise."""
    if len(fast) != len(ref):
        return float("inf")
    for f, r in zip(fast, ref):
        if list(f) != list(r):
            return float("inf")
    return 0.0


def _default_graph(seed: int):
    from repro.datasets.zoo import load_dataset

    return load_dataset("taobao", scale=0.1, seed=seed)


# ======================================================================
# Sampling oracles
# ======================================================================
def _walk_rows(matrix: np.ndarray, lengths: np.ndarray) -> List[List[int]]:
    """A padded walk matrix's rows cut to their lengths, as lists."""
    return [row[:n] for row, n in zip(matrix.tolist(), lengths.tolist())]


def sampling_oracles(dataset=None, seed: int = 0) -> List[OracleResult]:
    """Vectorised sampling pipeline vs scalar references on a real graph."""
    from repro.sampling.alias import AliasTable
    from repro.sampling.context import context_pairs
    from repro.sampling.exploration import RandomizedExploration
    from repro.sampling.metapath_walk import MetapathWalker
    from repro.sampling.negative import UnigramNegativeSampler
    from repro.sampling.node2vec_walk import Node2VecWalker
    from repro.sampling.random_walk import UniformRandomWalker
    from repro.verify.references import (
        _reference_context_pairs,
        _reference_exploration_walk,
        _reference_metapath_walk,
        _reference_uniform_walk,
    )

    if dataset is None:
        dataset = _default_graph(seed)
    graph = dataset.graph
    rng = as_rng(seed)
    results: List[OracleResult] = []
    starts = rng.choice(graph.num_nodes, size=12, replace=False)

    def one_by_one(walker, length, walk_starts):
        """Frontier walks of one start each (the scalar loop's draw order)."""
        return [
            _walk_rows(*walker.walk_matrix(np.asarray([s]), length))[0]
            for s in walk_starts
        ]

    # --- uniform walker: fast frontier path draw-identical to the scalar loop
    fast = UniformRandomWalker(graph, rng=seed)
    ref = UniformRandomWalker(graph, rng=seed)
    diff = _walks_diff(
        one_by_one(fast, 10, starts),
        [_reference_uniform_walk(ref, int(s), 10) for s in starts],
    )
    results.append(_result(
        "uniform_walk_equivalence", "sampling", diff,
        "frontier walk vs scalar _reference_uniform_walk, same seed",
    ))

    # --- metapath walker: typed steps draw-identical to the scalar loop
    relation = graph.schema.relationships[0]
    scheme = dataset.schemes_for(relation)[0]
    typed_starts = graph.nodes_of_type(scheme.start_type)[:12]
    fast = MetapathWalker(graph, scheme, rng=seed)
    ref = MetapathWalker(graph, scheme, rng=seed)
    diff = _walks_diff(
        one_by_one(fast, 9, typed_starts),
        [_reference_metapath_walk(ref, int(s), 9) for s in typed_starts],
    )
    results.append(_result(
        "metapath_walk_equivalence", "sampling", diff,
        f"scheme {scheme.describe()} frontier vs scalar walk",
    ))

    # --- randomized exploration: two-phase steps draw-identical (Eqs. 1-2)
    fast = RandomizedExploration(graph, rng=seed)
    ref = RandomizedExploration(graph, rng=seed)
    fast_walks = []
    for s in starts:
        matrix, lengths, rels = fast.walk_matrix(np.asarray([s]), 8)
        n = int(lengths[0])
        fast_walks.append((matrix[0, :n].tolist(),
                           [fast._relations[r] for r in rels[0, 1:n].tolist()]))
    ref_walks = [_reference_exploration_walk(ref, int(s), 8) for s in starts]
    diff = max(
        _walks_diff([w for w, _ in fast_walks], [w for w, _ in ref_walks]),
        _walks_diff([r for _, r in fast_walks], [r for _, r in ref_walks]),
    )
    results.append(_result(
        "exploration_walk_equivalence", "sampling", diff,
        "inter-relationship walks and relation traces, same seed",
    ))

    # --- Eq. 1 transition probabilities vs a loop transcription
    explorer = RandomizedExploration(graph, rng=seed)
    relations = graph.schema.relationships
    diff = 0.0
    expected = np.zeros(len(relations))  # reused (re-zeroed) per node
    for node in starts:
        expected.fill(0.0)
        active = [
            i for i, rel in enumerate(relations)
            if graph.degrees(rel)[int(node)] > 0
        ]
        for i in active:
            expected[i] = 1.0 / len(active)
        diff = max(diff, _array_diff(
            explorer.transition_probabilities(int(node)), expected
        ))
    results.append(_result(
        "exploration_transition_probs", "sampling", diff,
        "Eq. 1 p(r|v) vs per-relationship degree loop",
    ))

    # --- node2vec: the batched step's p/q weights vs brute-force membership
    walker = Node2VecWalker(graph, p=4.0, q=0.25, rng=seed)
    diff = 0.0
    checked = 0
    for prev in starts:
        prev = int(prev)
        currents = walker._neighbors(prev)
        if len(currents) == 0:
            continue
        current = int(currents[0])
        candidates, weights, _ = walker._transition_weights(
            np.asarray([prev]), np.asarray([current])
        )
        prev_neighbors = set(walker._neighbors(prev).tolist())
        expected = np.empty(len(candidates))
        for i, cand in enumerate(candidates.tolist()):
            if cand == prev:
                expected[i] = 1.0 / walker.p
            elif cand in prev_neighbors:
                expected[i] = 1.0
            else:
                expected[i] = 1.0 / walker.q
        diff = max(diff, _array_diff(
            weights / weights.sum(), expected / expected.sum()
        ))
        checked += 1
    results.append(_result(
        "node2vec_transition_distribution", "sampling", diff,
        f"batched step's normalised p/q weights vs brute-force membership "
        f"({checked} edges)",
    ))

    # --- alias table: implied distribution vs normalised weights
    weights = rng.random(64)
    weights[rng.choice(64, size=8, replace=False)] = 0.0
    diff = _array_diff(AliasTable(weights).probabilities(), weights / weights.sum())
    results.append(_result(
        "alias_table_distribution", "sampling", diff,
        "AliasTable.probabilities vs normalised input weights",
    ))

    # --- negative sampler: per-type tables target degree^0.75 exactly
    sampler = UnigramNegativeSampler(graph, rng=spawn_rng(rng))
    degrees = graph.degrees().astype(np.float64)
    target_weights = np.power(np.maximum(degrees, 1e-12), sampler.power)
    diff = _array_diff(
        sampler._global_table.probabilities(),
        target_weights / target_weights.sum(),
    )
    for node_type, table in sampler._type_tables.items():
        nodes = sampler._type_nodes[node_type]
        w = target_weights[nodes]
        diff = max(diff, _array_diff(table.probabilities(), w / w.sum()))
    results.append(_result(
        "negative_sampler_distribution", "sampling", diff,
        "global + per-type alias tables vs degree^0.75 (Eq. 13 P_Neg)",
    ))

    # --- context pairs: window gather vs the historical nested loop
    walker = UniformRandomWalker(graph, rng=spawn_rng(rng))
    matrix, lengths = walker.walks_matrix(2, 8, nodes=starts)
    diff = _array_diff(
        context_pairs((matrix, lengths), window=3),
        _reference_context_pairs(_walk_rows(matrix, lengths), window=3),
    )
    results.append(_result(
        "context_pairs_equivalence", "sampling", diff,
        "vectorised window gather vs nested-loop extraction (bit-identical order)",
    ))

    return results


# ======================================================================
# Metric oracles (brute-force O(n^2) reimplementations)
# ======================================================================
def _brute_roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """P(score_pos > score_neg) + 0.5 P(tie), one pair at a time."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos.tolist():
        for n in neg.tolist():
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def _brute_confusion_sweep(labels: np.ndarray, scores: np.ndarray):
    """(precision, recall) per distinct threshold, descending, by counting."""
    n_pos = int(labels.sum())
    points = []
    for threshold in sorted(set(scores.tolist()), reverse=True):
        tp = fp = 0
        for label, score in zip(labels.tolist(), scores.tolist()):
            if score >= threshold:
                if label == 1:
                    tp += 1
                else:
                    fp += 1
        points.append((tp / (tp + fp), tp / n_pos))
    return points


def _brute_pr_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    auc, prev_recall = 0.0, 0.0
    for precision, recall in _brute_confusion_sweep(labels, scores):
        auc += (recall - prev_recall) * precision
        prev_recall = recall
    return auc


def _brute_best_f1(labels: np.ndarray, scores: np.ndarray) -> float:
    best = 0.0
    for precision, recall in _brute_confusion_sweep(labels, scores):
        if precision + recall > 0:
            best = max(best, 2 * precision * recall / (precision + recall))
    return best


def _brute_ndcg(hits: Sequence[bool], num_relevant: int, k: int) -> float:
    dcg = 0.0
    for i, hit in enumerate(list(hits)[:k]):
        if hit:
            dcg += 1.0 / np.log2(i + 2.0)
    n_hits = sum(bool(h) for h in list(hits)[:k])
    ideal_count = min(max(num_relevant, n_hits), k)
    ideal = sum(1.0 / np.log2(i + 2.0) for i in range(ideal_count))
    return dcg / ideal


def _binary_case(rng: np.random.Generator, n: int):
    """Labels/scores with heavy score ties to exercise tie handling."""
    labels = rng.integers(0, 2, size=n)
    labels[0], labels[1] = 0, 1  # both classes present
    scores = np.round(rng.random(n), 2)
    return labels, scores


def metric_oracles(seed: int = 0, draws: int = 5) -> List[OracleResult]:
    """eval.metrics vs brute-force reimplementations on random instances."""
    from repro.eval import metrics

    rng = as_rng(seed)
    results: List[OracleResult] = []

    diffs = {"roc_auc": 0.0, "pr_auc": 0.0, "best_f1": 0.0, "f1_at_threshold": 0.0}
    for _ in range(draws):
        labels, scores = _binary_case(rng, 120)
        diffs["roc_auc"] = max(
            diffs["roc_auc"],
            abs(metrics.roc_auc(labels, scores) - _brute_roc_auc(labels, scores)),
        )
        diffs["pr_auc"] = max(
            diffs["pr_auc"],
            abs(metrics.pr_auc(labels, scores) - _brute_pr_auc(labels, scores)),
        )
        diffs["best_f1"] = max(
            diffs["best_f1"],
            abs(metrics.best_f1(labels, scores) - _brute_best_f1(labels, scores)),
        )
        threshold = 0.5
        tp = int(((scores >= threshold) & (labels == 1)).sum())
        fp = int(((scores >= threshold) & (labels == 0)).sum())
        fn = int(((scores < threshold) & (labels == 1)).sum())
        expected = (
            0.0 if tp == 0
            else 2 * (tp / (tp + fp)) * (tp / (tp + fn))
            / ((tp / (tp + fp)) + (tp / (tp + fn)))
        )
        diffs["f1_at_threshold"] = max(
            diffs["f1_at_threshold"],
            abs(metrics.f1_at_threshold(labels, scores, threshold) - expected),
        )
    details = {
        "roc_auc": "rank formulation vs pairwise Mann-Whitney sweep",
        "pr_auc": "grouped-threshold average precision vs per-threshold counting",
        "best_f1": "vectorised threshold max vs per-threshold counting",
        "f1_at_threshold": "hard-classification F1 vs confusion-count arithmetic",
    }
    for name, diff in diffs.items():
        results.append(_result(name, "metrics", diff, details[name]))

    rank_diffs = {
        "precision_at_k": 0.0, "recall_at_k": 0.0, "ndcg_at_k": 0.0,
        "reciprocal_rank": 0.0, "average_precision_at_k": 0.0,
    }
    for _ in range(draws * 4):
        hits = (rng.random(12) < 0.4).tolist()
        k = int(rng.integers(1, 13))
        num_relevant = max(1, sum(hits) + int(rng.integers(0, 3)))
        topk = hits[:k]
        rank_diffs["precision_at_k"] = max(
            rank_diffs["precision_at_k"],
            abs(metrics.precision_at_k(hits, k) - sum(topk) / k),
        )
        rank_diffs["recall_at_k"] = max(
            rank_diffs["recall_at_k"],
            abs(metrics.recall_at_k(hits, num_relevant, k) - sum(topk) / num_relevant),
        )
        rank_diffs["ndcg_at_k"] = max(
            rank_diffs["ndcg_at_k"],
            abs(metrics.ndcg_at_k(hits, num_relevant, k)
                - _brute_ndcg(hits, num_relevant, k)),
        )
        first = next((i for i, h in enumerate(hits) if h), None)
        expected_rr = 0.0 if first is None else 1.0 / (first + 1)
        rank_diffs["reciprocal_rank"] = max(
            rank_diffs["reciprocal_rank"],
            abs(metrics.reciprocal_rank(hits) - expected_rr),
        )
        running, hit_count = 0.0, 0
        for i, hit in enumerate(topk):
            if hit:
                hit_count += 1
                running += hit_count / (i + 1)
        denominator = min(max(num_relevant, hit_count), k)
        rank_diffs["average_precision_at_k"] = max(
            rank_diffs["average_precision_at_k"],
            abs(metrics.average_precision_at_k(hits, num_relevant, k)
                - running / denominator),
        )
    for name, diff in rank_diffs.items():
        results.append(_result(name, "metrics", diff, "positional-loop reimplementation"))
    return results


# ======================================================================
# Model oracles (numpy transcriptions of Eqs. 3, 6-10, 13)
# ======================================================================
def _np_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def _np_attention(h: np.ndarray, attn) -> np.ndarray:
    """Eq. 6/9: softmax(H Wq (H Wk)^T / sqrt(d)) H Wv, in plain numpy."""
    q = h @ attn.query.weight.data
    k = h @ attn.key.weight.data
    v = h @ attn.value.weight.data
    scores = q @ np.swapaxes(k, -2, -1) / np.sqrt(attn.attn_dim)
    return _np_softmax(scores, axis=-1) @ v


def _history_state_diff(hist_a, hist_b, state_a, state_b) -> float:
    """0.0 iff histories and parameter states are bit-identical."""
    if hist_a.losses != hist_b.losses:
        return float("inf")
    if hist_a.val_scores != hist_b.val_scores:
        return float("inf")
    if set(state_a) != set(state_b):
        return float("inf")
    diffs = [
        float(np.max(np.abs(state_a[name] - state_b[name])))
        if state_a[name].size
        else 0.0
        for name in state_a
    ]
    return max(diffs) if diffs else 0.0


def _staged_vs_reference(seed: int) -> OracleResult:
    """Staged ``SkipGramTrainer.fit`` vs the monolithic ``_reference_fit``."""
    from repro.core import HybridGNN, HybridGNNConfig, SkipGramTrainer, TrainerConfig
    from repro.datasets import load_dataset, split_edges

    dataset = load_dataset("taobao", scale=0.25, seed=7)
    model_config = HybridGNNConfig(
        base_dim=8, edge_dim=4, metapath_fanouts=(3, 2, 2, 2, 2, 2),
        exploration_fanout=3, exploration_depth=1,
    )
    trainer_config = TrainerConfig(
        epochs=2, batch_size=128, num_walks=1, walk_length=6, window=2,
        patience=2,
    )

    def run(method_name: str):
        split = split_edges(dataset.graph, rng=8)
        model = HybridGNN(
            split.train_graph, dataset.all_schemes(), model_config, rng=seed
        )
        trainer = SkipGramTrainer(
            model, dataset.all_schemes(), split, trainer_config,
            rng=seed + 1,
        )
        history = getattr(trainer, method_name)()
        return history, model.state_dict()

    hist_staged, state_staged = run("fit")
    hist_ref, state_ref = run("_reference_fit")
    diff = _history_state_diff(hist_staged, hist_ref, state_staged, state_ref)
    return _result(
        "staged_fit_vs_monolith", "trainer", diff,
        detail="sample→batch→update fit vs pre-refactor _reference_fit "
               f"({len(hist_ref.losses)} epochs, losses+val+params)",
    )


def model_oracles(seed: int = 0) -> List[OracleResult]:
    """Losses, attention and layers vs straightforward numpy transcriptions,
    plus the staged trainer vs its monolithic reference loop."""
    from scipy import special

    from repro.core.hierarchical_attention import (
        MetapathLevelAttention,
        RelationshipLevelAttention,
    )
    from repro.core.loss import skip_gram_loss, softplus
    from repro.nn.aggregators import MeanAggregator
    from repro.nn.attention import SelfAttention
    from repro.nn.layers import Embedding, LayerNorm, Linear
    from repro.nn.tensor import Tensor, stack

    rng = as_rng(seed)
    results: List[OracleResult] = []

    # --- elementwise nonlinearities vs scipy
    x = rng.standard_normal((6, 7)) * 4.0
    results.append(_result(
        "tensor_sigmoid", "model",
        _array_diff(Tensor(x).sigmoid().data, special.expit(x)),
        "Tensor.sigmoid vs scipy.special.expit",
    ))
    results.append(_result(
        "tensor_softmax", "model",
        _array_diff(Tensor(x).softmax(axis=-1).data, special.softmax(x, axis=-1)),
        "Tensor.softmax vs scipy.special.softmax",
    ))
    results.append(_result(
        "tensor_log_softmax", "model",
        _array_diff(
            Tensor(x).log_softmax(axis=-1).data, special.log_softmax(x, axis=-1)
        ),
        "Tensor.log_softmax vs scipy.special.log_softmax",
    ))

    # --- softplus vs logaddexp (the two stable phrasings agree exactly)
    big = rng.standard_normal((5, 8)) * 20.0
    results.append(_result(
        "softplus_stability", "model",
        _array_diff(softplus(Tensor(big)).data, np.logaddexp(0.0, big)),
        "relu + log1p-exp phrasing vs np.logaddexp(0, x)",
    ))

    # --- Eq. 13 skip-gram loss vs numpy transcription
    table = Embedding(10, 6, rng=spawn_rng(rng))
    targets = rng.standard_normal((4, 6))
    contexts = rng.integers(0, 10, size=4)
    negatives = rng.integers(0, 10, size=(4, 3))
    loss = skip_gram_loss(
        Tensor(targets), table, contexts, negatives
    ).item()
    weights = table.weight.data
    pos_logits = (targets * weights[contexts]).sum(axis=-1)
    neg_logits = np.einsum("bnd,bd->bn", weights[negatives], targets)
    expected = (
        np.logaddexp(0.0, -pos_logits).mean()
        + np.logaddexp(0.0, neg_logits).sum(axis=-1).mean()
    )
    results.append(_result(
        "skip_gram_loss", "model", abs(loss - expected),
        "Eq. 13 loss vs numpy logaddexp transcription",
    ))

    # --- Eq. 6/9 self-attention vs numpy
    attn = SelfAttention(5, 4, rng=spawn_rng(rng))
    h = rng.standard_normal((3, 6, 5))
    results.append(_result(
        "self_attention", "model",
        _array_diff(attn(Tensor(h)).data, _np_attention(h, attn)),
        "scaled dot-product attention vs numpy einsum transcription",
    ))

    # --- Eq. 6-7 metapath-level attention (residual + mean pool)
    mp_attn = MetapathLevelAttention(4, rng=spawn_rng(rng))
    flows = [rng.standard_normal((3, 4)) for _ in range(3)]
    out = mp_attn([Tensor(f) for f in flows]).data
    stacked = np.stack(flows, axis=1)
    expected = (stacked + _np_attention(stacked, mp_attn.attention)).mean(axis=1)
    results.append(_result(
        "metapath_level_attention", "model", _array_diff(out, expected),
        "Eq. 6-7: residual attention + mean over flows",
    ))

    # --- Eq. 8-9 relationship-level attention (residual, no pooling)
    rel_attn = RelationshipLevelAttention(4, rng=spawn_rng(rng))
    relations = [rng.standard_normal((3, 4)) for _ in range(2)]
    out = rel_attn(stack([Tensor(r) for r in relations], axis=1)).data
    stacked = np.stack(relations, axis=1)
    expected = stacked + _np_attention(stacked, rel_attn.attention)
    results.append(_result(
        "relationship_level_attention", "model", _array_diff(out, expected),
        "Eq. 8-9: residual attention over relationship embeddings",
    ))

    # --- Eq. 3 mean aggregator vs numpy
    agg = MeanAggregator(4, 3, rng=spawn_rng(rng))
    self_feats = rng.standard_normal((5, 4))
    neigh_feats = rng.standard_normal((5, 3, 4))
    out = agg(Tensor(self_feats), Tensor(neigh_feats)).data
    merged = np.concatenate([self_feats, neigh_feats.mean(axis=1)], axis=-1)
    expected = np.maximum(
        merged @ agg.combine.weight.data + agg.combine.bias.data, 0.0
    )
    results.append(_result(
        "mean_aggregator", "model", _array_diff(out, expected),
        "Eq. 3: relu([self; mean(neigh)] W + b) vs numpy",
    ))

    # --- LayerNorm vs numpy
    norm = LayerNorm(6)
    norm.gamma.data = rng.standard_normal(6)
    norm.beta.data = rng.standard_normal(6)
    x = rng.standard_normal((4, 6))
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    expected = (x - mean) / np.sqrt(var + norm.eps) * norm.gamma.data + norm.beta.data
    results.append(_result(
        "layer_norm", "model", _array_diff(norm(Tensor(x)).data, expected),
        "layer normalisation vs numpy moments",
    ))

    # --- Eq. 10's affine output transform (Linear) vs numpy
    linear = Linear(4, 3, rng=spawn_rng(rng))
    x = rng.standard_normal((7, 4))
    expected = x @ linear.weight.data + linear.bias.data
    results.append(_result(
        "linear_affine", "model", _array_diff(linear(Tensor(x)).data, expected),
        "y = x W + b vs numpy matmul",
    ))

    results.append(_staged_vs_reference(seed))
    return results


# ======================================================================
# Serving oracles (batched engine vs scalar reference recommendation paths)
# ======================================================================
def _recommendation_lists_diff(fast, ref) -> float:
    """0 when node lists match in order, inf otherwise (scores separately)."""
    if len(fast) != len(ref):
        return float("inf")
    for f, r in zip(fast, ref):
        if [rec.node for rec in f] != [rec.node for rec in r]:
            return float("inf")
    return 0.0


def _recommendation_scores_diff(fast, ref) -> float:
    diff = 0.0
    for f, r in zip(fast, ref):
        if len(f) != len(r):
            return float("inf")
        for a, b in zip(f, r):
            diff = max(diff, abs(a.score - b.score))
    return diff


def serving_oracles(dataset=None, seed: int = 0) -> List[OracleResult]:
    """Batch serving engine vs the scalar ``_reference_*`` paths of
    :mod:`repro.verify.references`.

    Runs over a random embedding store with *planted duplicate rows* so
    exact score ties exercise the stable tie-break, and over a source set
    that includes cold-start nodes (no neighbors under the queried
    relationship) when the graph has any.
    """
    from repro.core.persistence import EmbeddingStore
    from repro.serving import BatchServingEngine
    from repro.verify.references import (
        _reference_ranked_candidates,
        _reference_recommend,
        _reference_recommend_batch,
        _reference_similar_nodes,
    )

    if dataset is None:
        dataset = _default_graph(seed)
    graph = dataset.graph
    rng = as_rng(seed)
    relation = graph.schema.relationships[0]

    tables = {
        rel: rng.standard_normal((graph.num_nodes, 12))
        for rel in graph.schema.relationships
    }
    # Plant exact ties: duplicated embedding rows score identically, so the
    # stable (ascending-node-id) tie-break is actually exercised.
    for table in tables.values():
        clones = rng.choice(graph.num_nodes, size=min(8, graph.num_nodes), replace=False)
        table[clones[1::2]] = table[clones[0::2]][: len(clones[1::2])]
    store = EmbeddingStore(tables)
    engine = BatchServingEngine(store, graph)

    degrees = graph.degrees(relation)
    warm = np.flatnonzero(degrees > 0)[:10]
    cold = np.flatnonzero(degrees == 0)[:3]
    sources = np.concatenate([warm, cold]).astype(np.int64)
    results: List[OracleResult] = []

    # --- batched top-K vs the per-source reference loop (ties included)
    fast = engine.recommend_batch(sources, relation, k=10)
    ref = _reference_recommend_batch(store, graph, sources, relation, k=10)
    diff = max(
        _recommendation_lists_diff(fast, ref),
        _recommendation_scores_diff(fast, ref),
    )
    results.append(_result(
        "recommend_batch_equivalence", "serving", diff,
        f"engine matmul+argpartition vs scalar loop ({len(sources)} sources, "
        f"{len(cold)} cold)",
    ))

    # --- scalar recommend stays bit-identical through the engine
    diff = 0.0
    for source in sources[:6].tolist():
        fast_one = engine.recommend(source, relation, k=7)
        ref_one = _reference_recommend(store, graph, source, relation, k=7)
        diff = max(
            diff,
            _recommendation_lists_diff([fast_one], [ref_one]),
            _recommendation_scores_diff([fast_one], [ref_one]),
        )
    results.append(_result(
        "recommend_scalar_equivalence", "serving", diff,
        "single-source engine path vs reference full argsort",
    ))

    # --- cosine similarity with cached norms vs per-node recomputation
    probe = rng.choice(graph.num_nodes, size=6, replace=False)
    fast = [engine.similar_nodes(int(n), relation, k=8) for n in probe]
    ref = [
        _reference_similar_nodes(store, graph, int(n), relation, k=8)
        for n in probe
    ]
    diff = max(
        _recommendation_lists_diff(fast, ref),
        _recommendation_scores_diff(fast, ref),
    )
    results.append(_result(
        "similar_nodes_equivalence", "serving", diff,
        "cached-norm cosine top-K vs per-node gathered reference",
    ))

    # --- full-ranking path (the evaluator workload): exact order match
    diff = 0.0
    eval_sources = warm[:6]
    if len(eval_sources):
        target_type = graph.node_type(
            int(graph.neighbors(int(eval_sources[0]), relation)[0])
        )
        fast_rankings = engine.rank_all(
            eval_sources, relation, target_type=target_type
        )
        for source, ranked in zip(eval_sources.tolist(), fast_rankings):
            expected = _reference_ranked_candidates(
                store, graph, source, relation, target_type
            )
            if ranked.tolist() != expected.tolist():
                diff = float("inf")
    results.append(_result(
        "ranking_order_equivalence", "serving", diff,
        "engine rank_all vs pre-engine per-source ranking loop",
    ))

    return results


# ======================================================================
# Index oracles (ANN backends vs the exact brute-force oracle)
# ======================================================================
def _topk_recall(approx, exact) -> float:
    """Mean |approx ∩ exact| / |exact| over per-source top-K id arrays."""
    recalls = []
    for (approx_ids, _), (exact_ids, _) in zip(approx, exact):
        if len(exact_ids) == 0:
            continue
        overlap = len(set(approx_ids.tolist()) & set(exact_ids.tolist()))
        recalls.append(overlap / len(exact_ids))
    return float(np.mean(recalls)) if recalls else 1.0


def index_oracles(dataset=None, seed: int = 0) -> List[OracleResult]:
    """Vector-index backends vs the exact retrieval oracle.

    Three gates:

    - the ``exact`` backend must be **bit-identical** to the engine's
      brute-force path — same ids in the same order, same score bits;
    - ``ivf`` must reach recall@10 > 0.95 against the exact top-10 on the
      smoke-scale graph (reported as ``max_abs_diff = 1 - recall`` with
      tolerance :data:`RECALL_TOLERANCE`); the detail line reports how
      many candidates it scored;
    - every backend must survive a save/load roundtrip with bit-identical
      search results.

    Runs on a larger graph than the other oracle families (ANN pruning is
    meaningless on a 46-node pool) with random embedding tables — the
    structureless worst case for ANN recall.
    """
    from repro.core.persistence import EmbeddingStore
    from repro.serving import BatchServingEngine
    from repro.serving.index import (
        INDEX_BACKENDS, make_index, load_index, save_index,
    )

    if dataset is None:
        from repro.datasets.zoo import load_dataset

        dataset = load_dataset("taobao", scale=2.0, seed=seed)
    graph = dataset.graph
    rng = as_rng(seed)
    relation = graph.schema.relationships[0]
    tables = {
        rel: rng.standard_normal((graph.num_nodes, 12))
        for rel in graph.schema.relationships
    }
    store = EmbeddingStore(tables)
    k = 10
    sources = np.flatnonzero(graph.degrees(relation) > 0)[:48]
    results: List[OracleResult] = []

    def engine(backend: str, **params) -> BatchServingEngine:
        return BatchServingEngine(
            store, graph, index=backend,
            index_params={"seed": seed, **params},
        )

    exact_engine = engine("exact")
    exact_topk = exact_engine.topk_batch(sources, relation, k)

    # --- exact backend: routing through ExactIndex.search must reproduce
    # the engine's brute-force output bit for bit.
    table = tables[relation]
    target_type = graph.node_type(
        int(graph.neighbors(int(sources[0]), relation)[0])
    )
    pool, rows, cols = exact_engine.pools.pool_exclusions(
        sources, relation, target_type, True
    )
    exact_index = make_index("exact").build(table[pool])
    found, _ = exact_index.search(
        table[sources], k,
        exclude=BatchServingEngine._exclusion_lists(rows, cols, len(sources)),
    )
    diff = 0.0
    for (positions, scores), (exact_ids, exact_scores) in zip(found, exact_topk):
        if (pool[positions].tolist() != exact_ids.tolist()
                or not np.array_equal(scores, exact_scores)):
            diff = float("inf")
    results.append(_result(
        "exact_index_bit_identity", "index", diff,
        f"ExactIndex.search vs engine brute force ({len(sources)} sources, "
        f"pool {len(pool)})",
    ))

    # --- approximate backend: recall@10 gate, scan ratio reported
    ivf_engine = engine("ivf")
    recall = _topk_recall(ivf_engine.topk_batch(sources, relation, k),
                          exact_topk)
    scanned = ivf_engine.stats.candidates_scored
    full = exact_engine.stats.candidates_scored
    # Sub-linear *scaling* is asserted by the benchmark pool sweep; at
    # smoke scale a probe can legitimately cover the whole tiny pool, so
    # this oracle gates recall only and reports the scan ratio.
    results.append(_result(
        f"ivf_recall_at_{k}", "index", 1.0 - recall,
        f"recall@{k}={recall:.3f} vs exact, scored {scanned} of "
        f"{full} exact-scanned candidates",
        tolerance=RECALL_TOLERANCE,
    ))

    # --- persistence: save/load must not change a single search result
    import tempfile
    from pathlib import Path

    queries = table[sources[:8]]
    diff = 0.0
    for backend in sorted(INDEX_BACKENDS):
        index = make_index(backend, seed=seed).build(table[pool])
        with tempfile.TemporaryDirectory() as tmp:
            loaded, _ = load_index(save_index(index, Path(tmp) / backend))
        before, _ = index.search(queries, k)
        after, _ = loaded.search(queries, k)
        for (a_ids, a_scores), (b_ids, b_scores) in zip(before, after):
            if (not np.array_equal(a_ids, b_ids)
                    or not np.array_equal(a_scores, b_scores)):
                diff = float("inf")
    results.append(_result(
        "index_roundtrip_identity", "index", diff,
        "save_index/load_index search results bit-identical, all backends",
    ))
    return results


# ======================================================================
# Service oracles (streaming delta pipeline vs rebuild-per-edge reference)
# ======================================================================
def service_oracles(dataset=None, seed: int = 0) -> List[OracleResult]:
    """Streaming service pipeline vs a naive rebuild-per-edge reference.

    The production path serves reads through
    :class:`~repro.serving.deltas.DeltaGraphView` merged (CSR + delta)
    views with threshold compaction, micro-batching and cached embedding
    tables.  The reference does the dumbest correct thing instead: after
    *every* accepted edge it reconstructs a
    :class:`~repro.graph.multiplex.MultiplexHeteroGraph` from scratch and
    serves each read through a **fresh** engine (no caches to go stale).
    Five gates on one seeded mixed trace:

    - every read's top-K ids and score bits match the reference exactly,
      across at least three compaction cycles;
    - at every compaction boundary the folded base CSR is bit-identical
      (indptr and indices) to a from-scratch build over the full edge
      list, for every relation;
    - after every accepted feedback between compactions, every relation's
      merged ``view.csr()`` (spliced, not rebuilt) is bit-identical to
      ``_build_csr`` over ``view.edges()``; so is each relation's after a
      planted edge ``(u, u - 1)`` whose two new entries share one old
      offset;
    - a never-seen node streamed in by feedback is servable immediately
      (cold-start, no restart) and matches the reference;
    - replaying the trace twice on fresh services yields the same result
      digest (seeded determinism).
    """
    from repro.core.persistence import EmbeddingStore
    from repro.graph.multiplex import MultiplexHeteroGraph
    from repro.serving import (
        BatchServingEngine,
        RecommendService,
        ServiceConfig,
    )
    from repro.serving.deltas import DeltaGraphView
    from repro.serving.pools import relation_endpoint_types
    from repro.serving.service import ColdStartEmbedder
    from repro.serving.traffic import generate_trace, replay_trace

    if dataset is None:
        dataset = _default_graph(seed)
    base = dataset.graph
    schema = base.schema
    rng = as_rng(seed)
    tables = {
        rel: rng.standard_normal((base.num_nodes, 12))
        for rel in schema.relationships
    }
    store = EmbeddingStore(tables)
    k = 10
    threshold = 24

    trace = generate_trace(
        base, 240, seed=(seed, 1),
        read_fraction=0.55, new_node_rate=0.08, k=k,
    )

    def fresh_service() -> RecommendService:
        return RecommendService(store, base, config=ServiceConfig(
            flush_interval=0.0, compaction_threshold=threshold,
            max_queue=100_000,
        ))

    service = fresh_service()

    # Naive reference state: full edge lists in arrival order + type codes.
    ref_codes = [int(code) for code in base.node_type_codes]
    ref_edges = {
        rel: [base.edges(rel)[0].tolist(), base.edges(rel)[1].tolist()]
        for rel in schema.relationships
    }

    def ref_rebuild() -> MultiplexHeteroGraph:
        return MultiplexHeteroGraph(
            schema,
            np.asarray(ref_codes, dtype=np.int64),
            {
                rel: (
                    np.asarray(src, dtype=np.int64),
                    np.asarray(dst, dtype=np.int64),
                )
                for rel, (src, dst) in ref_edges.items()
            },
        )

    ref_graph = ref_rebuild()

    def ref_read(kind: str, node: int, relation: str):
        # A fresh engine per read: nothing cached, nothing to invalidate.
        engine = BatchServingEngine(
            ColdStartEmbedder(store, base.num_nodes), ref_graph
        )
        if kind == "recommend":
            return engine.topk_batch([node], relation, k)[0]
        return engine.similar_topk([node], relation, k)[0]

    def reads_match(fast, slow) -> bool:
        return (
            np.array_equal(fast[0], slow[0])
            and np.array_equal(fast[1], slow[1], equal_nan=True)
        )

    read_diff = 0.0
    csr_diff = 0.0
    merged_diff = 0.0
    cold_diff = 0.0
    reads = cold_reads = compactions = merged_checks = 0
    mismatch = ""
    for op in trace:
        if op.op == "feedback":
            u, v = op.nodes
            result = service.feedback(u, v, op.relation)
            # Mirror on the reference: register cold endpoints, drop
            # duplicates, rebuild from scratch.
            for node, other in ((u, v), (v, u)):
                if node == len(ref_codes):
                    warm_type = schema.node_types[ref_codes[other]]
                    inferred = relation_endpoint_types(
                        ref_graph, op.relation
                    )[warm_type]
                    ref_codes.append(schema.node_type_index(inferred))
            if not ref_graph.has_edge(u, v, op.relation) and u != v:
                ref_edges[op.relation][0].append(u)
                ref_edges[op.relation][1].append(v)
            ref_graph = ref_rebuild()
            if result["compacted"]:
                compactions += 1
                # Bit-identity of the folded base vs a from-scratch build.
                for rel in schema.relationships:
                    fast_csr = service.view.base.csr(rel)
                    slow_csr = ref_graph.csr(rel)
                    if not (
                        np.array_equal(fast_csr[0], slow_csr[0])
                        and np.array_equal(fast_csr[1], slow_csr[1])
                    ):
                        csr_diff = float("inf")
            elif result["accepted"]:
                view = service.view
                merged_checks += 1
                for rel in schema.relationships:
                    served = view.csr(rel)
                    rebuilt = MultiplexHeteroGraph._build_csr(
                        view.num_nodes, *view.edges(rel)
                    )
                    if not (
                        np.array_equal(served[0], rebuilt[0])
                        and np.array_equal(served[1], rebuilt[1])
                    ):
                        merged_diff = float("inf")
            if result["new_nodes"]:
                # Cold-start gate: servable immediately, no restart.
                for cold in result["new_nodes"]:
                    fast = service.recommend(cold, op.relation, k)
                    slow = ref_read("recommend", cold, op.relation)
                    cold_reads += 1
                    if len(fast[0]) == 0 or not reads_match(fast, slow):
                        cold_diff = float("inf")
        else:
            node = op.nodes[0]
            fast = (
                service.recommend(node, op.relation, k)
                if op.op == "recommend"
                else service.similar(node, op.relation, k)
            )
            slow = ref_read(op.op, node, op.relation)
            reads += 1
            if not reads_match(fast, slow) and not mismatch:
                read_diff = float("inf")
                mismatch = f" (first mismatch: {op.op} node {node})"
    # Planted edges (u, u - 1), u never a source in the relation: u's new
    # as-source entry and u - 1's new reverse entry land on the same old
    # offset indptr[u], which the trace's edges never do, so the splice
    # must order them by owning node.
    planted_view = DeltaGraphView(base)
    codes = base.node_type_codes
    planted = 0
    for rel in schema.relationships:
        src, dst = base.edges(rel)
        type_pairs = set(zip(codes[src].tolist(), codes[dst].tolist()))
        type_pairs |= {(b, a) for a, b in type_pairs}
        never_src = np.bincount(src, minlength=base.num_nodes) == 0
        for u in np.flatnonzero(never_src[1:]) + 1:
            if (int(codes[u]), int(codes[u - 1])) in type_pairs:
                planted += planted_view.add_edge(u, u - 1, rel)
        served = planted_view.csr(rel)
        rebuilt = MultiplexHeteroGraph._build_csr(
            planted_view.num_nodes, *planted_view.edges(rel)
        )
        if not (
            np.array_equal(served[0], rebuilt[0])
            and np.array_equal(served[1], rebuilt[1])
        ):
            merged_diff = float("inf")
    if compactions < 3:
        csr_diff = float("inf")
    if not merged_checks or not planted:
        merged_diff = float("inf")

    results = [
        _result(
            "delta_read_equivalence", "service", read_diff,
            f"merged-view reads vs rebuild-per-edge reference "
            f"({reads} reads, {compactions} compactions){mismatch}",
        ),
        _result(
            "compaction_csr_bit_identity", "service", csr_diff,
            f"folded base CSR vs from-scratch build at {compactions} "
            f"compaction boundaries (>=3 required), all relations",
        ),
        _result(
            "merged_csr_bit_identity", "service", merged_diff,
            f"spliced view.csr() vs _build_csr over view.edges() after "
            f"{merged_checks} accepted feedbacks between compactions, all "
            f"relations, and {planted} planted same-offset edges",
        ),
        _result(
            "cold_start_servable", "service", cold_diff,
            f"{cold_reads} never-seen nodes served immediately after "
            f"ingestion, matching the reference",
        ),
    ]

    digests = [
        replay_trace(fresh_service(), trace)["digest"] for _ in range(2)
    ]
    results.append(_result(
        "trace_replay_determinism", "service",
        0.0 if digests[0] == digests[1] else float("inf"),
        f"two fresh replays of a {len(trace)}-op seeded trace, digest "
        f"{digests[0][:12]}...",
    ))
    return results


# ======================================================================
# Suite driver
# ======================================================================
def run_oracle_suite(seed: int = 0, dataset=None) -> List[OracleResult]:
    """All oracle families; graph-based ones run on ``dataset``
    (taobao-alike default)."""
    results = sampling_oracles(dataset=dataset, seed=seed)
    results += metric_oracles(seed=seed)
    results += model_oracles(seed=seed)
    results += serving_oracles(dataset=dataset, seed=seed)
    return results


def format_oracle_table(results: Sequence[OracleResult]) -> str:
    """Human-readable fixed-width report."""
    width = max(len(r.name) for r in results) if results else 10
    lines = [
        f"{'oracle':<{width}}  {'component':<9}  {'max|diff|':>12}  status",
        "-" * (width + 40),
    ]
    for r in results:
        status = "ok" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<{width}}  {r.component:<9}  {r.max_abs_diff:>12.3e}  {status}"
        )
    failed = [r for r in results if not r.passed]
    lines.append("-" * (width + 40))
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} oracles passed"
        + (f"; FAILED: {', '.join(r.name for r in failed)}" if failed else "")
    )
    return "\n".join(lines)
