"""End-to-end experiment execution: dataset -> split -> model -> metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.datasets import Dataset, EdgeSplit, load_dataset, split_edges
from repro.eval import (
    LinkPredictionReport,
    RankingReport,
    evaluate_link_prediction,
    evaluate_ranking,
)
from repro.experiments.models import make_model
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.utils.rng import as_rng


@dataclass
class RunResult:
    """All metrics from one (model, dataset, seed) run."""

    model: str
    dataset: str
    seed: int
    link: LinkPredictionReport
    ranking: RankingReport

    def row(self) -> List[float]:
        """The five Table III/IV columns: ROC-AUC, PR-AUC, F1, PR@10, HR@10."""
        return [
            self.link["roc_auc"],
            self.link["pr_auc"],
            self.link["f1"],
            self.ranking["pr_at_k"],
            self.ranking["hr_at_k"],
        ]


def split_for_seed(dataset: Dataset, seed: int) -> EdgeSplit:
    """The train/test edge split of ``dataset`` that every run of ``seed``
    uses: the experiment tables, the goldens and the CLI."""
    return split_edges(dataset.graph, rng=seed + 10_000)


def prepare_split(dataset_name: str, profile: ExperimentProfile,
                  seed: int) -> tuple:
    """Deterministically generate a dataset-alike and its edge split."""
    dataset = load_dataset(dataset_name, scale=profile.scale, seed=seed)
    return dataset, split_for_seed(dataset, seed)


def run_single(
    model_name: str,
    dataset_name: str,
    seed: int = 0,
    profile: Optional[ExperimentProfile] = None,
    hybrid_overrides: Optional[Dict] = None,
    keep_per_node: bool = False,
    dataset: Optional[Dataset] = None,
    split: Optional[EdgeSplit] = None,
) -> RunResult:
    """Train ``model_name`` on ``dataset_name`` and evaluate on the test set.

    Passing a pre-built ``dataset``/``split`` pair lets callers evaluate many
    models on identical data (how every table in the paper is produced).
    """
    profile = profile or get_profile()
    if dataset is None or split is None:
        dataset, split = prepare_split(dataset_name, profile, seed)
    model = make_model(model_name, profile, seed, hybrid_overrides=hybrid_overrides)
    model.fit(dataset, split)
    link = evaluate_link_prediction(model, split.test)
    ranking = evaluate_ranking(
        model,
        split.train_graph,
        split.test,
        k=10,
        keep_per_node=keep_per_node,
        max_sources=profile.ranking_max_sources,
        rng=as_rng(seed + 20_000),
    )
    return RunResult(
        model=model_name, dataset=dataset_name, seed=seed, link=link, ranking=ranking
    )


def run_seeds(
    model_name: str,
    dataset_name: str,
    profile: Optional[ExperimentProfile] = None,
    hybrid_overrides: Optional[Dict] = None,
) -> List[RunResult]:
    """One run per profile seed (used for mean reporting and t-tests)."""
    profile = profile or get_profile()
    return [
        run_single(
            model_name, dataset_name, seed=seed, profile=profile,
            hybrid_overrides=hybrid_overrides,
        )
        for seed in range(profile.seeds)
    ]


def mean_row(results: List[RunResult]) -> List[float]:
    """Seed-averaged metric row."""
    rows = np.asarray([r.row() for r in results], dtype=np.float64)
    return rows.mean(axis=0).tolist()
