"""Differential oracles: every fast path vs an independent slow truth."""

from __future__ import annotations

import numpy as np
import pytest

from repro.verify.oracles import (
    DEFAULT_TOLERANCE,
    format_oracle_table,
    metric_oracles,
    model_oracles,
    run_oracle_suite,
    sampling_oracles,
    serving_oracles,
)


@pytest.fixture(scope="module")
def suite_results(taobao_dataset):
    return run_oracle_suite(seed=0, dataset=taobao_dataset)


class TestSuite:
    def test_all_oracles_pass_within_tolerance(self, suite_results):
        failed = [
            f"{r.name}: {r.max_abs_diff:.3e} >= {r.tolerance:.0e}"
            for r in suite_results
            if not r.passed
        ]
        assert not failed, "\n".join(failed)

    def test_acceptance_bound_is_strict(self, suite_results):
        # The ISSUE acceptance criterion: max-abs-diff < 1e-6 everywhere.
        assert all(r.max_abs_diff < 1e-6 for r in suite_results)
        assert all(r.tolerance == DEFAULT_TOLERANCE for r in suite_results)

    def test_covers_all_families(self, suite_results):
        components = {r.component for r in suite_results}
        assert components == {
            "sampling", "metrics", "model", "trainer", "serving"
        }

    def test_walker_equivalence_oracles_are_exact(self, suite_results):
        by_name = {r.name: r for r in suite_results}
        for name in [
            "uniform_walk_equivalence",
            "metapath_walk_equivalence",
            "exploration_walk_equivalence",
            "context_pairs_equivalence",
        ]:
            # Draw-for-draw identical walks: diff is exactly zero, not just small.
            assert by_name[name].max_abs_diff == 0.0, name

    def test_results_serialise(self, suite_results):
        payload = suite_results[0].to_dict()
        assert set(payload) == {
            "name", "component", "max_abs_diff", "tolerance", "passed", "detail"
        }

    def test_table_format(self, suite_results):
        table = format_oracle_table(suite_results)
        assert f"{len(suite_results)}/{len(suite_results)} oracles passed" in table
        assert "FAIL" not in table


class TestFamilies:
    def test_sampling_family_runs_on_any_dataset(self, taobao_dataset):
        results = sampling_oracles(dataset=taobao_dataset, seed=11)
        assert all(r.passed for r in results)
        assert {r.component for r in results} == {"sampling"}

    def test_metric_family_is_seeded(self):
        a = metric_oracles(seed=5)
        b = metric_oracles(seed=5)
        assert [r.max_abs_diff for r in a] == [r.max_abs_diff for r in b]
        assert all(r.passed for r in a)

    def test_model_family_passes_across_seeds(self):
        for seed in (0, 1, 2):
            results = model_oracles(seed=seed)
            assert all(r.passed for r in results), seed

    def test_serving_family_is_order_exact(self, taobao_dataset):
        for seed in (0, 1, 2):
            results = serving_oracles(dataset=taobao_dataset, seed=seed)
            assert all(r.passed for r in results), seed
            assert {r.component for r in results} == {"serving"}
            by_name = {r.name: r for r in results}
            # Full-ranking equivalence is list-order exact, not just close.
            assert by_name["ranking_order_equivalence"].max_abs_diff == 0.0

    def test_metric_oracles_cover_every_public_metric(self):
        names = {r.name for r in metric_oracles(seed=0)}
        assert names >= {
            "roc_auc", "pr_auc", "best_f1", "f1_at_threshold",
            "precision_at_k", "recall_at_k", "ndcg_at_k",
            "reciprocal_rank", "average_precision_at_k",
        }


class TestOracleSensitivity:
    """The oracles must be able to *fail* — exactness is load-bearing."""

    def test_brute_roc_auc_catches_perturbation(self):
        from repro.eval.metrics import roc_auc
        from repro.verify.oracles import _brute_roc_auc

        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=60)
        labels[:2] = [0, 1]
        scores = np.round(rng.random(60), 2)
        exact = _brute_roc_auc(labels, scores)
        assert abs(roc_auc(labels, scores) - exact) < 1e-12
        # A shifted score list is a different instance: the oracle notices.
        assert abs(roc_auc(labels, np.roll(scores, 1)) - exact) > 1e-4
