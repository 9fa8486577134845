"""Archive I/O: atomic writes and typed errors for damaged archives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    HybridGNN,
    export_embeddings,
    load_checkpoint_into,
    load_embeddings,
    save_checkpoint,
)
from repro.core import persistence
from repro.errors import ReproError
from repro.serving import ExactIndex, load_index, save_index


@pytest.fixture
def model(taobao_dataset, taobao_split, tiny_hybrid_config):
    return HybridGNN(
        taobao_split.train_graph, taobao_dataset.all_schemes(),
        tiny_hybrid_config, rng=0,
    )


def _save(kind, model, num_nodes, path):
    if kind == "checkpoint":
        return save_checkpoint(model, path)
    if kind == "embeddings":
        return export_embeddings(model, num_nodes, ["page_view"], path)
    index = ExactIndex().build(np.random.default_rng(0).standard_normal((20, 4)))
    return save_index(index, path)


def _load(kind, model, path):
    if kind == "checkpoint":
        return load_checkpoint_into(model, path)
    if kind == "embeddings":
        return load_embeddings(path)
    return load_index(path)


KINDS = ["checkpoint", "embeddings", "index"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("keep", [0.5, 0.98])
def test_truncated_archive_raises_repro_error_naming_the_file(
        kind, keep, model, taobao_split, tmp_path):
    path = _save(kind, model, taobao_split.train_graph.num_nodes, tmp_path / "a")
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * keep)])
    with pytest.raises(ReproError, match="truncated or corrupt") as excinfo:
        _load(kind, model, path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("kind", KINDS)
def test_missing_archive_raises_repro_error(kind, model, tmp_path):
    with pytest.raises(ReproError, match="missing"):
        _load(kind, model, tmp_path / "absent.npz")


@pytest.mark.parametrize("kind", KINDS)
def test_failed_write_leaves_existing_target_intact(
        kind, model, taobao_split, tmp_path, monkeypatch):
    num_nodes = taobao_split.train_graph.num_nodes
    path = _save(kind, model, num_nodes, tmp_path / "a")
    before = path.read_bytes()

    def crash(handle, **arrays):
        handle.write(b"PK\x03\x04 half an archive")
        raise OSError("disk full")

    monkeypatch.setattr(persistence.np, "savez_compressed", crash)
    with pytest.raises(OSError, match="disk full"):
        _save(kind, model, num_nodes, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    monkeypatch.undo()
    _load(kind, model, path)
