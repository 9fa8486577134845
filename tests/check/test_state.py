"""C007 state validation: checkpoints and serving tables fail loudly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.check.state import (
    state_dict_findings,
    table_findings,
    verify_state_dict,
    verify_table,
)
from repro.errors import CheckError
from repro.nn import Linear


@pytest.fixture
def model(rng):
    return Linear(4, 3, rng=rng)


@pytest.fixture
def good_state(model):
    return {name: np.asarray(p.data) for name, p in model.named_parameters()}


class TestStateDictFindings:
    def test_clean_state_has_no_findings(self, model, good_state):
        assert state_dict_findings(model, good_state) == []
        verify_state_dict(model, good_state)  # must not raise

    def test_missing_parameter(self, model, good_state):
        del good_state["weight"]
        (finding,) = state_dict_findings(model, good_state)
        assert finding.code == "C007"
        assert finding.param == "weight"
        assert "missing" in finding.message
        assert "(4, 3) float64" in finding.message  # expected spec rendered

    def test_unexpected_entry(self, model, good_state):
        good_state["extra"] = np.zeros(2)
        (finding,) = state_dict_findings(model, good_state)
        assert finding.param == "extra"
        assert "unexpected" in finding.message

    def test_shape_mismatch_renders_both_specs(self, model, good_state):
        good_state["weight"] = np.zeros((5, 3))
        (finding,) = state_dict_findings(model, good_state)
        assert finding.param == "weight"
        assert "(4, 3) float64" in finding.message
        assert "(5, 3) float64" in finding.message

    def test_non_floating_dtype(self, model, good_state):
        good_state["bias"] = np.zeros(3, dtype=np.int64)
        (finding,) = state_dict_findings(model, good_state)
        assert finding.param == "bias"
        assert "not floating point" in finding.message

    def test_non_finite_values(self, model, good_state):
        bad = good_state["bias"].copy()
        bad[0] = np.nan
        good_state["bias"] = bad
        (finding,) = state_dict_findings(model, good_state)
        assert finding.param == "bias"
        assert "non-finite" in finding.message

    def test_verify_raises_with_named_param(self, model, good_state):
        good_state["weight"] = np.zeros((5, 3))
        with pytest.raises(CheckError, match="weight"):
            verify_state_dict(model, good_state, source="test.npz")


class TestCheckpointLoadIntegration:
    def test_malformed_checkpoint_rejected_by_name(self, rng, tmp_path):
        from repro.core.persistence import load_checkpoint_into, save_checkpoint

        saved = Linear(4, 3, rng=rng)
        path = save_checkpoint(saved, tmp_path / "ckpt")
        target = Linear(5, 3, rng=rng)  # different architecture
        with pytest.raises(CheckError) as excinfo:
            load_checkpoint_into(target, path)
        assert "weight" in str(excinfo.value)
        assert "C007" in str(excinfo.value)

    def test_well_formed_checkpoint_still_loads(self, rng, tmp_path):
        from repro.core.persistence import load_checkpoint_into, save_checkpoint

        saved = Linear(4, 3, rng=rng)
        path = save_checkpoint(saved, tmp_path / "ckpt")
        target = Linear(4, 3, rng=rng)
        load_checkpoint_into(target, path)
        np.testing.assert_array_equal(
            np.asarray(target.weight.data), np.asarray(saved.weight.data)
        )


class TestTableFindings:
    def test_clean_table(self):
        table = np.zeros((7, 4))
        assert table_findings(table, 7, "view") == []
        verify_table(table, 7, "view")  # must not raise

    def test_wrong_rank(self):
        (finding,) = table_findings(np.zeros(7), 7, "view")
        assert finding.code == "C007"
        assert "view" in finding.message

    def test_wrong_row_count(self):
        (finding,) = table_findings(np.zeros((5, 4)), 7, "view")
        assert "5 rows for 7 nodes" in finding.message

    def test_non_floating(self):
        (finding,) = table_findings(np.zeros((7, 4), dtype=np.int32), 7, "view")
        assert "not floating point" in finding.message

    def test_verify_raises(self):
        with pytest.raises(CheckError, match="view"):
            verify_table(np.zeros((5, 4)), 7, "view")


class TestServingIntegration:
    def test_cache_rejects_malformed_table(self, small_graph):
        from repro.serving.engine import RelationEmbeddingCache
        from repro.serving.pools import CandidatePools

        class BrokenEmbedder:
            relations = ["view"]

            def node_embeddings(self, nodes, relation):
                return np.zeros((3, 4))  # wrong row count for the graph

        cache = RelationEmbeddingCache(
            BrokenEmbedder(), CandidatePools(small_graph)
        )
        with pytest.raises(CheckError, match="view"):
            cache.table("view")
