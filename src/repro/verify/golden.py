"""Golden regression corpus: seeded end-to-end metric snapshots.

Every entry is one ``(dataset-alike, model)`` training run on the smoke
profile with a fixed seed, snapshotting the test link-prediction metrics
(ROC-AUC / PR-AUC / F1, in %, overall and per relationship) to a JSON file
under ``tests/golden/``.  The whole pipeline is seeded numpy, so reruns in
the same environment are bit-identical; the committed tolerance (0.05
percentage points by default) only absorbs cross-platform libm drift.

Workflow:

- ``python -m repro verify --suite golden`` recomputes every committed
  entry and fails on drift beyond tolerance — run it before landing any PR
  that touches sampling, training or evaluation;
- ``python -m repro verify --refresh-golden`` re-snapshots after an
  *intentional* metrics change; commit the diff with an explanation.

The training recipe mirrors ``python -m repro train`` exactly (same profile
scale, same ``seed + 10_000`` split convention), so a golden entry is a
reproducible CLI run, not a bespoke harness.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "GoldenEntry",
    "GoldenCheck",
    "GOLDEN_MODELS",
    "SCALE_BENCH_DATASETS",
    "DEFAULT_SEED",
    "DEFAULT_TOLERANCE",
    "golden_dir",
    "golden_targets",
    "entry_path",
    "load_entry",
    "compute_entry",
    "refresh_golden",
    "verify_golden",
    "format_golden_table",
]

#: HybridGNN plus three baselines spanning the model families (shallow
#: walk-based, edge-sampling, full-batch GNN) — fast enough for CI while
#: covering every training code path.
GOLDEN_MODELS: Tuple[str, ...] = ("HybridGNN", "DeepWalk", "LINE", "GCN")

#: Benchmark-scale alikes excluded from the default golden grid: even at
#: the smoke profile they are hundreds of thousands of nodes.  They exist
#: for the ``perfbench`` training workloads and the step-memory and
#: op-count tests, which run them at small scales.
SCALE_BENCH_DATASETS: Tuple[str, ...] = ("taobao-xl",)

DEFAULT_SEED = 0
DEFAULT_PROFILE = "smoke"
#: Percentage points; reruns are bit-identical in one environment, the
#: tolerance absorbs cross-platform floating-point differences only.
DEFAULT_TOLERANCE = 0.05


@dataclass
class GoldenEntry:
    """One committed metric snapshot."""

    dataset: str
    model: str
    profile: str
    scale: float
    seed: int
    tolerance: float
    metrics: Dict[str, Dict] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GoldenEntry":
        return cls(**json.loads(text))


@dataclass
class GoldenCheck:
    """Result of re-running one golden entry."""

    dataset: str
    model: str
    status: str  # "ok" | "drift" | "missing"
    max_abs_diff: float = 0.0
    tolerance: float = DEFAULT_TOLERANCE
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict:
        return {**asdict(self), "passed": self.passed}


# ----------------------------------------------------------------------
# Corpus location and enumeration
# ----------------------------------------------------------------------
def golden_dir(directory: Optional[os.PathLike] = None) -> Path:
    """Resolve the corpus directory.

    Priority: explicit argument, ``$REPRO_GOLDEN_DIR``, ``tests/golden``
    next to the repository's ``src`` tree, then ``./tests/golden``.
    """
    if directory is not None:
        return Path(directory)
    env = os.environ.get("REPRO_GOLDEN_DIR")
    if env:
        return Path(env)
    repo_candidate = Path(__file__).resolve().parents[3] / "tests" / "golden"
    if repo_candidate.parent.is_dir():
        return repo_candidate
    return Path.cwd() / "tests" / "golden"


def golden_targets(
    datasets: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
) -> List[Tuple[str, str]]:
    """The (dataset, model) grid the corpus covers."""
    from repro.datasets import available_datasets

    datasets = list(datasets) if datasets else [
        name for name in available_datasets()
        if name not in SCALE_BENCH_DATASETS
    ]
    models = list(models) if models else list(GOLDEN_MODELS)
    return [(dataset, model) for dataset in datasets for model in models]


def entry_path(dataset: str, model: str,
               directory: Optional[os.PathLike] = None) -> Path:
    return golden_dir(directory) / f"{dataset}__{model}.json"


def load_entry(dataset: str, model: str,
               directory: Optional[os.PathLike] = None) -> Optional[GoldenEntry]:
    path = entry_path(dataset, model, directory)
    if not path.is_file():
        return None
    return GoldenEntry.from_json(path.read_text())


# ----------------------------------------------------------------------
# Computation
# ----------------------------------------------------------------------
def _round_metrics(metrics: Dict[str, float]) -> Dict[str, float]:
    return {key: round(float(value), 6) for key, value in metrics.items()}


def compute_entry(
    dataset: str,
    model: str,
    profile: str = DEFAULT_PROFILE,
    seed: int = DEFAULT_SEED,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GoldenEntry:
    """Train ``model`` on ``dataset`` exactly like ``repro train`` and snapshot."""
    from repro.datasets import load_dataset, split_edges
    from repro.eval import evaluate_link_prediction
    from repro.experiments import get_profile, make_model

    prof = get_profile(profile)
    data = load_dataset(dataset, scale=prof.scale, seed=seed)
    split = split_edges(data.graph, rng=seed + 10_000)
    trained = make_model(model, prof, seed)
    trained.fit(data, split)
    link = evaluate_link_prediction(trained, split.test)
    return GoldenEntry(
        dataset=dataset,
        model=model,
        profile=prof.name,
        scale=prof.scale,
        seed=seed,
        tolerance=tolerance,
        metrics={
            "overall": _round_metrics(link.overall),
            "per_relation": {
                relation: _round_metrics(values)
                for relation, values in link.per_relation.items()
            },
        },
    )


def _metrics_diff(a: Dict[str, Dict], b: Dict[str, Dict]) -> Tuple[float, str]:
    """Largest absolute metric difference and where it occurred."""
    worst, where = 0.0, ""
    flat_a = dict(a.get("overall", {}))
    flat_b = dict(b.get("overall", {}))
    for relation, values in a.get("per_relation", {}).items():
        for key, value in values.items():
            flat_a[f"{relation}/{key}"] = value
    for relation, values in b.get("per_relation", {}).items():
        for key, value in values.items():
            flat_b[f"{relation}/{key}"] = value
    if set(flat_a) != set(flat_b):
        missing = sorted(set(flat_a) ^ set(flat_b))
        return float("inf"), f"metric keys differ: {missing}"
    for key, value in flat_a.items():
        diff = abs(value - flat_b[key])
        if diff > worst:
            worst, where = diff, key
    return worst, where


# ----------------------------------------------------------------------
# Refresh and verify
# ----------------------------------------------------------------------
def refresh_golden(
    datasets: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
    directory: Optional[os.PathLike] = None,
    profile: str = DEFAULT_PROFILE,
    seed: int = DEFAULT_SEED,
    verbose: bool = False,
) -> List[GoldenEntry]:
    """Recompute and write the selected corpus entries."""
    target_dir = golden_dir(directory)
    target_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for dataset, model in golden_targets(datasets, models):
        if verbose:
            print(f"refreshing {dataset} x {model} ...", flush=True)
        entry = compute_entry(dataset, model, profile=profile, seed=seed)
        entry_path(dataset, model, target_dir).write_text(entry.to_json())
        entries.append(entry)
    return entries


def verify_golden(
    datasets: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
    directory: Optional[os.PathLike] = None,
    verbose: bool = False,
) -> List[GoldenCheck]:
    """Re-run the selected entries and compare against the committed corpus."""
    checks = []
    for dataset, model in golden_targets(datasets, models):
        stored = load_entry(dataset, model, directory)
        if stored is None:
            checks.append(GoldenCheck(
                dataset=dataset, model=model, status="missing",
                max_abs_diff=float("inf"),
                detail="no committed entry; run --refresh-golden",
            ))
            continue
        if verbose:
            print(f"verifying {dataset} x {model} ...", flush=True)
        fresh = compute_entry(
            dataset, model, profile=stored.profile, seed=stored.seed,
            tolerance=stored.tolerance,
        )
        diff, where = _metrics_diff(stored.metrics, fresh.metrics)
        status = "ok" if diff <= stored.tolerance else "drift"
        checks.append(GoldenCheck(
            dataset=dataset, model=model, status=status, max_abs_diff=diff,
            tolerance=stored.tolerance,
            detail=f"largest drift at {where}" if where else "",
        ))
    return checks


def format_golden_table(checks: Sequence[GoldenCheck]) -> str:
    lines = [
        f"{'dataset':<10} {'model':<10} {'max drift (pp)':>15}  status",
        "-" * 48,
    ]
    for check in checks:
        lines.append(
            f"{check.dataset:<10} {check.model:<10} "
            f"{check.max_abs_diff:>15.4f}  {check.status}"
        )
    failed = [c for c in checks if not c.passed]
    lines.append("-" * 48)
    lines.append(
        f"{len(checks) - len(failed)}/{len(checks)} golden entries ok"
        + (f"; drifted/missing: "
           f"{', '.join(f'{c.dataset}x{c.model}' for c in failed)}" if failed else "")
    )
    return "\n".join(lines)
