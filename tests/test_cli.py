"""Command-line interface."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cli import _dataset_and_split, build_parser, main
from repro.experiments import get_profile, prepare_split


@pytest.fixture
def fast_env(monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "smoke")


class TestDatasets:
    def test_lists_all_alikes(self, capsys):
        assert main(["datasets", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        for name in ("amazon", "youtube", "imdb", "taobao", "kuaishou"):
            assert name in out
        assert "|R|" in out


class TestSchemes:
    def test_suggests_schemes(self, capsys):
        code = main([
            "schemes", "--dataset", "taobao", "--scale", "0.15",
            "--relation", "page_view",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "page_view" in out
        assert "Coverage" in out

    def test_default_relation(self, capsys):
        assert main(["schemes", "--dataset", "amazon", "--scale", "0.15"]) == 0
        assert "common_bought" in capsys.readouterr().out


class TestSplitRecipe:
    def test_cli_split_is_the_runners(self):
        # train, evaluate and recommend must score the very split the
        # experiment runner (and so the goldens) trains and tests on.
        args = build_parser().parse_args([
            "evaluate", "--dataset", "amazon", "--scale", "0.25",
            "--seed", "3", "--embeddings", "unused",
        ])
        _, split = _dataset_and_split(args)
        profile = dataclasses.replace(get_profile("smoke"), scale=0.25)
        _, want = prepare_split("amazon", profile, seed=3)
        for relation in want.train_graph.schema.relationships:
            for got_part, want_part in zip(
                split.train_graph.csr(relation), want.train_graph.csr(relation)
            ):
                np.testing.assert_array_equal(got_part, want_part)
        for got_edges, want_edges in ((split.val, want.val),
                                      (split.test, want.test)):
            assert list(got_edges) == list(want_edges)
            for relation, edges in want_edges.items():
                for field in ("src", "dst", "labels"):
                    np.testing.assert_array_equal(
                        getattr(got_edges[relation], field),
                        getattr(edges, field),
                    )


class TestTrainEvaluateRecommend:
    def test_full_cli_workflow(self, capsys, tmp_path, monkeypatch):
        """train -> evaluate -> recommend through saved embeddings."""
        embeddings = tmp_path / "emb.npz"
        checkpoint = tmp_path / "ckpt.npz"
        code = main([
            "train", "--dataset", "amazon", "--scale", "0.15",
            "--model", "DeepWalk", "--seed", "1",
            "--save-embeddings", str(embeddings),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ROC-AUC" in out and "embeddings written" in out
        assert embeddings.exists()

        code = main([
            "evaluate", "--dataset", "amazon", "--scale", "0.15",
            "--seed", "1", "--embeddings", str(embeddings),
        ])
        assert code == 0
        assert "Stored embeddings" in capsys.readouterr().out

        code = main([
            "recommend", "--dataset", "amazon", "--scale", "0.15",
            "--seed", "1", "--embeddings", str(embeddings),
            "--node", "0", "--relation", "common_bought", "--k", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Top-3" in out

    def test_train_hybrid_with_checkpoint(self, capsys, tmp_path, monkeypatch):
        """HybridGNN path exercises the checkpoint branch (micro budget)."""
        from dataclasses import replace

        import repro.cli as cli
        import repro.experiments.profiles as profiles

        checkpoint = tmp_path / "ckpt.npz"
        micro = replace(
            profiles.SMOKE,
            trainer=replace(profiles.SMOKE.trainer, epochs=1,
                            max_batches_per_epoch=2),
        )
        # The cli module imported get_profile directly; patch its reference.
        monkeypatch.setattr(cli, "get_profile", lambda name="": micro)
        code = main([
            "train", "--dataset", "amazon", "--scale", "0.15",
            "--model", "HybridGNN", "--seed", "1",
            "--save-checkpoint", str(checkpoint),
        ])
        assert code == 0
        assert checkpoint.exists()


class TestServingCLI:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        """One DeepWalk training run shared by the serving CLI tests.

        Saved through a suffix-less path on purpose: the CLI must report
        and round-trip the normalised ``.npz`` location.
        """
        tmp = tmp_path_factory.mktemp("serving_cli")
        requested = tmp / "emb"  # no .npz suffix
        code = main([
            "train", "--dataset", "amazon", "--scale", "0.15",
            "--model", "DeepWalk", "--seed", "1",
            "--save-embeddings", str(requested),
        ])
        assert code == 0
        assert (tmp / "emb.npz").exists()
        return requested

    def test_suffixless_export_path_reported_and_loadable(self, exported, capsys):
        # Regression: the CLI used to print the requested path while numpy
        # wrote "<path>.npz"; evaluate with the suffix-less spelling works.
        code = main([
            "evaluate", "--dataset", "amazon", "--scale", "0.15",
            "--seed", "1", "--embeddings", str(exported),
        ])
        assert code == 0
        assert "Stored embeddings" in capsys.readouterr().out

    def test_batch_recommend(self, exported, capsys):
        code = main([
            "recommend", "--dataset", "amazon", "--scale", "0.15",
            "--seed", "1", "--embeddings", str(exported),
            "--nodes", "0,1,2", "--relation", "common_bought", "--k", "3",
            "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "for 3 nodes (batch)" in out
        assert "Source" in out
        assert "serving." in out  # --stats prints stage timings

    def test_recommend_requires_a_node_argument(self, exported, capsys):
        code = main([
            "recommend", "--dataset", "amazon", "--scale", "0.15",
            "--seed", "1", "--embeddings", str(exported),
            "--relation", "common_bought",
        ])
        assert code == 2
        assert "--nodes" in capsys.readouterr().err

    def test_unknown_node_is_a_typed_error_not_a_traceback(self, exported, capsys):
        code = main([
            "recommend", "--dataset", "amazon", "--scale", "0.15",
            "--seed", "1", "--embeddings", str(exported),
            "--relation", "common_bought", "--node", "999999",
        ])
        assert code == 2
        assert "error: unknown node id 999999" in capsys.readouterr().err


class TestArgumentValidation:
    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "--dataset", "netflix"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "--model", "PinSage"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_table_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "9"])
