"""Run records and input fingerprints."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from hgnnbench import THREAD_ENV


class Fingerprint:
    """SHA-256 over a sequence of arrays and labels, in order."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add_array(self, array) -> "Fingerprint":
        array = np.ascontiguousarray(array)
        self._hash.update(f"{array.dtype.str}{array.shape}".encode())
        self._hash.update(array.tobytes())
        return self

    def add_text(self, text: str) -> "Fingerprint":
        self._hash.update(text.encode("utf-8") + b"\0")
        return self

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def graph_fingerprint(graph) -> str:
    """Digest of a multiplex graph: node types, then each relation's edges."""
    digest = Fingerprint().add_array(graph.node_type_codes)
    for relation in graph.schema.relationships:
        src, dst = graph.edges(relation)
        digest.add_text(relation).add_array(src).add_array(dst)
    return digest.hexdigest()


def batches_fingerprint(batches: Iterable[Tuple[str, np.ndarray]]) -> str:
    digest = Fingerprint()
    for relation, batch in batches:
        digest.add_text(relation).add_array(batch)
    return digest.hexdigest()


def trace_fingerprint(ops) -> str:
    digest = Fingerprint()
    for op in ops:
        digest.add_text(f"{op.op}:{op.relation}:{op.nodes}:{op.k}")
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Process peak resident set size (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha(root: Path) -> str:
    """Commit of a git checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_library() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def run_record(root: Path, workload: str, seed: int, graph,
               extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    record = {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(),
        "blas_threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "num_nodes": int(graph.num_nodes),
        "num_edges": int(graph.num_edges),
    }
    record.update(extra or {})
    return record
