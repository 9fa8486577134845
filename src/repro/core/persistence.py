"""Saving and restoring trained models.

Two artifact kinds:

- **Checkpoints** (``save_checkpoint``/``load_checkpoint_into``): the full
  parameter state of a :class:`~repro.nn.module.Module`, restorable into a
  freshly constructed model of the same architecture.
- **Embedding exports** (``export_embeddings``/``load_embeddings``): the
  materialised relationship-specific embedding matrices, which is all a
  downstream serving system needs.

Both use ``numpy.savez_compressed`` — a single portable file, no pickle.
Every archive (these two and :func:`~repro.serving.index.save_index`) is
written through :func:`write_archive`: a temporary file in the target's
directory, renamed over the target once complete, so a crash mid-write
never leaves a truncated archive under the target's name.  Every load
goes through :func:`read_archive`, which turns a truncated, corrupt or
missing file into a :class:`~repro.errors.ReproError` naming the file.
The two also carry a content digest: ``write_archive`` stores a SHA-256 of
every array's name, dtype, shape and bytes under a reserved key, and
``read_archive`` checks it, so an array rewritten after the save (whose
zip CRC is valid again) fails the load instead of loading silently.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Mapping, Sequence, Union

import numpy as np

from repro.errors import ReproError
from repro.eval.link_prediction import RelationEmbedder
from repro.nn.module import Module

_META_KEY = "__meta__"
#: Where :func:`write_archive` stores the content digest.
DIGEST_KEY = "__digest__"


def _as_npz_path(path: Union[str, Path]) -> Path:
    """The path ``np.savez_compressed`` actually writes to.

    numpy silently appends ``.npz`` when the suffix is missing; normalising
    here keeps what we report (and later try to load) in sync with what
    lands on disk.
    """
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    return path


def _existing_npz_path(path: Union[str, Path]) -> Path:
    """Resolve a load path, accepting the suffix-less form a save was given."""
    path = Path(path)
    if path.exists():
        return path
    normalised = _as_npz_path(path)
    return normalised if normalised.exists() else path


def _digest(arrays: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over every array's name, dtype, shape and bytes, by name."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}\0{array.dtype.str}\0{array.shape}\0".encode())
        digest.update(array)
    return digest.hexdigest()


def write_archive(path: Union[str, Path], arrays: Mapping[str, np.ndarray]) -> Path:
    """Write ``arrays`` as a compressed .npz at ``path``, atomically.

    The archive is written and synced under a temporary name in the
    target's directory, then ``os.replace``-d onto the target; on any
    failure the temporary file is removed and an existing target is left
    as it was.  The content digest is stored under :data:`DIGEST_KEY`.
    Returns the path written (``.npz`` appended when missing).
    """
    target = _as_npz_path(path)
    temporary = target.with_name(f".{target.name}.{uuid.uuid4().hex}.tmp")
    digest = np.asarray(_digest(arrays))
    try:
        with open(temporary, "xb") as handle:
            np.savez_compressed(handle, **arrays, **{DIGEST_KEY: digest})
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return target


#: What numpy and zipfile raise on a missing, truncated or corrupt archive.
_READ_ERRORS = (OSError, EOFError, ValueError, zipfile.BadZipFile, zlib.error)


def read_archive(path: Union[str, Path], kind: str) -> Dict[str, np.ndarray]:
    """Every array of the .npz at ``path``, read eagerly.

    A missing suffix is normalised as a save normalises it.  A missing,
    truncated or corrupt file, or one whose arrays no longer match the
    stored content digest, raises :class:`ReproError` naming the file and
    ``kind`` (what the caller expected to find there).  An archive written
    without a digest (by an older build) loads unchecked.
    """
    source = _existing_npz_path(path)
    try:
        with np.load(source, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
    except _READ_ERRORS as exc:
        raise ReproError(
            f"cannot read {kind} {source}: the file is missing, truncated or "
            f"corrupt ({type(exc).__name__}: {exc})"
        ) from exc
    if DIGEST_KEY in arrays:
        stored = str(arrays.pop(DIGEST_KEY))
        if stored != _digest(arrays):
            raise ReproError(
                f"cannot read {kind} {source}: its arrays do not match the "
                "content digest stored with them (the file was changed "
                "after it was written)"
            )
    return arrays


def _check_reserved_keys(keys, what: str) -> None:
    for reserved in (_META_KEY, DIGEST_KEY):
        if reserved in keys:
            raise ReproError(
                f"{what} name {reserved!r} is reserved for archive "
                "metadata; rename it before saving"
            )


def save_checkpoint(model: Module, path: Union[str, Path]) -> Path:
    """Write every parameter of ``model`` to ``path`` (.npz).

    Returns the path actually written (``.npz`` appended when missing).
    """
    state = model.state_dict()
    _check_reserved_keys(state, "parameter")
    meta = json.dumps({"format": "repro-checkpoint", "version": 1,
                       "parameters": sorted(state)})
    return write_archive(path, {**state, _META_KEY: np.asarray(meta)})


def load_checkpoint_into(model: Module, path: Union[str, Path]) -> None:
    """Restore parameters saved by :func:`save_checkpoint` into ``model``.

    The model must have the same architecture (same parameter names and
    shapes) as the one that was saved.  A missing ``.npz`` suffix is
    normalised the same way :func:`save_checkpoint` normalises it.
    """
    state = read_archive(path, "checkpoint")
    if _META_KEY not in state:
        raise ReproError(f"{path} is not a repro checkpoint")
    meta = json.loads(str(state.pop(_META_KEY)))
    if meta.get("format") != "repro-checkpoint":
        raise ReproError(f"{path} is not a repro checkpoint")
    # Run the shape checker first: a malformed checkpoint fails here with
    # the offending parameter named and expected-vs-found specs rendered,
    # not as a numpy broadcast error mid-load (or worse, mid-request).
    from repro.check.state import verify_state_dict

    verify_state_dict(model, state, source=str(path))
    model.load_state_dict(state)


def export_embeddings(model: RelationEmbedder, num_nodes: int,
                      relations: Sequence[str], path: Union[str, Path]) -> Path:
    """Materialise and save per-relationship embedding matrices.

    Returns the path actually written (``.npz`` appended when missing).
    """
    _check_reserved_keys(relations, "relationship")
    nodes = np.arange(num_nodes)
    arrays: Dict[str, np.ndarray] = {
        relation: model.node_embeddings(nodes, relation) for relation in relations
    }
    meta = json.dumps({"format": "repro-embeddings", "version": 1,
                       "num_nodes": num_nodes, "relations": list(relations)})
    return write_archive(path, {**arrays, _META_KEY: np.asarray(meta)})


class EmbeddingStore:
    """Read-only relationship-specific embeddings loaded from disk.

    Satisfies the ``RelationEmbedder`` protocol, so it can be dropped into
    the evaluators and the :class:`~repro.serving.BatchServingEngine` in
    place of a live model.
    """

    def __init__(self, tables: Dict[str, np.ndarray]):
        if not tables:
            raise ReproError("embedding store requires at least one relation")
        sizes = {table.shape[0] for table in tables.values()}
        if len(sizes) != 1:
            raise ReproError("all relations must cover the same node count")
        self.tables = tables
        self.num_nodes = sizes.pop()

    @property
    def relations(self):
        return list(self.tables)

    def node_embeddings(self, nodes: np.ndarray, relation: str) -> np.ndarray:
        try:
            table = self.tables[relation]
        except KeyError:
            raise ReproError(
                f"no embeddings stored for relationship {relation!r}; "
                f"available: {self.relations}"
            ) from None
        return table[np.asarray(nodes, dtype=np.int64)]


def load_embeddings(path: Union[str, Path]) -> EmbeddingStore:
    """Load an export written by :func:`export_embeddings`.

    A missing ``.npz`` suffix is normalised to match what a save wrote.
    """
    data = read_archive(path, "embedding export")
    if _META_KEY not in data:
        raise ReproError(f"{path} is not a repro embedding export")
    meta = json.loads(str(data[_META_KEY]))
    if meta.get("format") != "repro-embeddings":
        raise ReproError(f"{path} is not a repro embedding export")
    return EmbeddingStore({relation: data[relation] for relation in meta["relations"]})
