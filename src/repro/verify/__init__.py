"""Correctness verification subsystem (see TESTING.md).

Three pillars:

- :mod:`repro.verify.gradcheck` — numeric gradient checking with relative
  steps, subset sampling and a registry sweeping every public op/module;
- :mod:`repro.verify.oracles` — differential oracles pitting every fast
  path against an independent slow reimplementation;
- :mod:`repro.verify.golden` — seeded end-to-end metric snapshots guarding
  against silent result drift.

Driven by ``python -m repro verify``.
"""

from repro.verify.golden import (
    GOLDEN_MODELS,
    GoldenCheck,
    GoldenEntry,
    compute_entry,
    format_golden_table,
    golden_dir,
    golden_targets,
    refresh_golden,
    verify_golden,
)
from repro.verify.gradcheck import (
    GradCheckCase,
    GradCheckReport,
    TensorCheck,
    check_gradients,
    check_gradients_report,
    covered_targets,
    freeze_rngs,
    gradcheck_cases,
    numeric_gradient,
    registry_coverage,
    required_targets,
    run_gradcheck_suite,
    uncovered_targets,
)
from repro.verify.oracles import (
    OracleResult,
    RECALL_TOLERANCE,
    format_oracle_table,
    index_oracles,
    metric_oracles,
    model_oracles,
    run_oracle_suite,
    sampling_oracles,
    service_oracles,
    serving_oracles,
)
from repro.verify.alloc_oracles import (
    alloc_oracles,
    measure_alloc_stats,
    refresh_alloc_budgets,
)
from repro.verify.concurrency_oracles import concurrency_oracles

__all__ = [
    "GradCheckCase",
    "GradCheckReport",
    "TensorCheck",
    "check_gradients",
    "check_gradients_report",
    "covered_targets",
    "freeze_rngs",
    "gradcheck_cases",
    "numeric_gradient",
    "registry_coverage",
    "required_targets",
    "run_gradcheck_suite",
    "uncovered_targets",
    "OracleResult",
    "RECALL_TOLERANCE",
    "alloc_oracles",
    "measure_alloc_stats",
    "refresh_alloc_budgets",
    "concurrency_oracles",
    "format_oracle_table",
    "index_oracles",
    "metric_oracles",
    "model_oracles",
    "run_oracle_suite",
    "sampling_oracles",
    "service_oracles",
    "serving_oracles",
    "GOLDEN_MODELS",
    "GoldenCheck",
    "GoldenEntry",
    "compute_entry",
    "format_golden_table",
    "golden_dir",
    "golden_targets",
    "refresh_golden",
    "verify_golden",
]
