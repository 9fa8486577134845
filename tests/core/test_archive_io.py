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


def _rewrite(path, change):
    """Rewrite ``path`` through ``np.savez`` after ``change(arrays)``, so
    the zip CRCs are valid for whatever the arrays now hold."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    change(arrays)
    np.savez(path, **arrays)


@pytest.mark.parametrize("kind", KINDS)
def test_rewritten_element_fails_the_content_digest(
        kind, model, taobao_split, tmp_path):
    path = _save(kind, model, taobao_split.train_graph.num_nodes, tmp_path / "a")

    def bump_one_element(arrays):
        name = next(key for key in sorted(arrays) if not key.startswith("__"))
        arrays[name].flat[0] += 1.0

    _rewrite(path, bump_one_element)
    with pytest.raises(ReproError, match="content digest") as excinfo:
        _load(kind, model, path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("kind", KINDS)
def test_archive_without_digest_still_loads(kind, model, taobao_split, tmp_path):
    path = _save(kind, model, taobao_split.train_graph.num_nodes, tmp_path / "a")
    _rewrite(path, lambda arrays: arrays.pop(persistence.DIGEST_KEY))
    _load(kind, model, path)


def test_digest_key_is_reserved(model, tmp_path):
    with pytest.raises(ReproError, match="reserved"):
        export_embeddings(model, 4, [persistence.DIGEST_KEY], tmp_path / "e")

    class Poisoned(ExactIndex):
        def state_arrays(self):
            return {**super().state_arrays(),
                    persistence.DIGEST_KEY: np.zeros(1)}

    index = Poisoned().build(np.zeros((3, 2)))
    with pytest.raises(ReproError, match="reserved"):
        save_index(index, tmp_path / "i")
    assert list(tmp_path.iterdir()) == []
