"""State-dict and serving-state validation (finding codes C007/C008).

The same expected-vs-found spec rendering the abstract interpreter uses
for ops is applied to *loaded state*: checkpoint dicts are validated
against the target module's parameters before ``load_state_dict`` runs,
and serving embedding tables are validated against the node count before
they are cached.  A malformed checkpoint therefore fails at load time
with the offending parameter named and both specs rendered, instead of
as a mid-request numpy broadcast error.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

import numpy as np

from repro.check.report import CheckFinding
from repro.check.spec import ShapeSpec, TensorSpec
from repro.errors import CheckError

__all__ = [
    "delta_findings",
    "index_findings",
    "state_dict_findings",
    "table_findings",
    "verify_delta_view",
    "verify_index",
    "verify_state_dict",
    "verify_table",
]


def _spec_of(value: Any) -> str:
    array = np.asarray(value)
    return TensorSpec(ShapeSpec.concrete(array.shape), str(array.dtype)).render()


def state_dict_findings(module, state: Mapping[str, Any]) -> List[CheckFinding]:
    """C007 findings for ``state`` loaded against ``module``'s parameters."""
    findings: List[CheckFinding] = []
    params: Dict[str, Any] = dict(module.named_parameters())
    for name in sorted(set(params) - set(state)):
        findings.append(
            CheckFinding(
                code="C007",
                severity="error",
                message=(
                    f"checkpoint is missing parameter {name!r} "
                    f"(expected {_spec_of(params[name].data)})"
                ),
                param=name,
            )
        )
    for name in sorted(set(state) - set(params)):
        findings.append(
            CheckFinding(
                code="C007",
                severity="error",
                message=(
                    f"checkpoint has unexpected entry {name!r} "
                    f"{_spec_of(state[name])} with no matching parameter"
                ),
                param=name,
            )
        )
    for name in sorted(set(params) & set(state)):
        expected = np.asarray(params[name].data)
        found = np.asarray(state[name])
        if expected.shape != found.shape:
            findings.append(
                CheckFinding(
                    code="C007",
                    severity="error",
                    message=(
                        f"parameter {name!r}: expected "
                        f"{_spec_of(expected)}, checkpoint has {_spec_of(found)}"
                    ),
                    param=name,
                )
            )
            continue
        if not np.issubdtype(found.dtype, np.floating):
            findings.append(
                CheckFinding(
                    code="C007",
                    severity="error",
                    message=(
                        f"parameter {name!r}: checkpoint dtype {found.dtype} "
                        "is not floating point"
                    ),
                    param=name,
                )
            )
            continue
        if not np.all(np.isfinite(found)):
            findings.append(
                CheckFinding(
                    code="C007",
                    severity="error",
                    message=(
                        f"parameter {name!r} {_spec_of(found)}: checkpoint "
                        "contains non-finite values"
                    ),
                    param=name,
                )
            )
    return findings


def verify_state_dict(module, state: Mapping[str, Any], source: str = "checkpoint") -> None:
    """Raise :class:`CheckError` when ``state`` does not fit ``module``."""
    findings = state_dict_findings(module, state)
    if findings:
        # Name what the file holds that the model does not know first: a
        # checkpoint of an older parameter layout is recognised by its keys.
        unexpected = set(state) - {name for name, _ in module.named_parameters()}
        findings.sort(key=lambda f: f.param not in unexpected)
        details = "; ".join(f.message for f in findings[:5])
        more = len(findings) - 5
        if more > 0:
            details += f"; and {more} more"
        raise CheckError(
            f"{source} failed the shape check against the model "
            f"({len(findings)} C007 finding(s)): {details}"
        )


def table_findings(table: Any, num_nodes: int, relation: str) -> List[CheckFinding]:
    """C007 findings for a serving embedding table of ``relation``."""
    findings: List[CheckFinding] = []
    array = np.asarray(table)
    expected = f"(N={num_nodes}, d) floating"
    if array.ndim != 2:
        findings.append(
            CheckFinding(
                code="C007",
                severity="error",
                message=(
                    f"embedding table for relation {relation!r}: expected "
                    f"{expected}, model produced {_spec_of(array)}"
                ),
                param=relation,
            )
        )
        return findings
    if array.shape[0] != num_nodes:
        findings.append(
            CheckFinding(
                code="C007",
                severity="error",
                message=(
                    f"embedding table for relation {relation!r}: expected "
                    f"{expected}, model produced {_spec_of(array)} "
                    f"({array.shape[0]} rows for {num_nodes} nodes)"
                ),
                param=relation,
            )
        )
    if not np.issubdtype(array.dtype, np.floating):
        findings.append(
            CheckFinding(
                code="C007",
                severity="error",
                message=(
                    f"embedding table for relation {relation!r}: dtype "
                    f"{array.dtype} is not floating point (expected {expected})"
                ),
                param=relation,
            )
        )
    return findings


def verify_table(table: Any, num_nodes: int, relation: str) -> None:
    """Raise :class:`CheckError` when a serving table fails validation."""
    findings = table_findings(table, num_nodes, relation)
    if findings:
        raise CheckError("; ".join(f.message for f in findings))


def index_findings(meta: Mapping[str, Any], index: Any, table: Any,
                   pool: Any) -> List[CheckFinding]:
    """C007 findings for a persisted serving index against live state.

    A loaded :class:`repro.serving.index.VectorIndex` must describe the
    same world the engine is serving: one row per pool candidate, built at
    the live embedding dimensionality, with a metadata header that agrees
    with the arrays actually loaded.  Any mismatch means the index was
    built against a different checkpoint (stale) or a different candidate
    pool (wrong graph) and would silently surface wrong candidates.
    """
    findings: List[CheckFinding] = []
    table = np.asarray(table)
    pool = np.asarray(pool)
    name = str(meta.get("relation", "?"))

    def finding(message: str) -> CheckFinding:
        return CheckFinding(
            code="C007", severity="error", message=message, param=name
        )

    backend = meta.get("backend")
    if backend != getattr(index, "backend", None):
        findings.append(finding(
            f"serving index for relation {name!r}: metadata says backend "
            f"{backend!r} but the loaded index is "
            f"{getattr(index, 'backend', None)!r}"
        ))
    for field_name, actual in (("size", index.size), ("dim", index.dim)):
        declared = meta.get(field_name)
        if declared is not None and int(declared) != int(actual):
            findings.append(finding(
                f"serving index for relation {name!r}: metadata declares "
                f"{field_name}={declared} but the loaded arrays have "
                f"{field_name}={actual}"
            ))
    if index.size != len(pool):
        findings.append(finding(
            f"serving index for relation {name!r}: built over {index.size} "
            f"candidates but the live pool for type "
            f"{meta.get('target_type')!r} has {len(pool)} (stale index)"
        ))
    dim = index.dim
    if dim and table.ndim == 2 and dim != table.shape[1]:
        findings.append(finding(
            f"serving index for relation {name!r}: built at dim {dim} but "
            f"the live embedding table is {_spec_of(table)} (shape mismatch)"
        ))
    return findings


def verify_index(meta: Mapping[str, Any], index: Any, table: Any, pool: Any,
                 source: str = "index") -> None:
    """Raise :class:`CheckError` when a persisted index fails validation."""
    findings = index_findings(meta, index, table, pool)
    if findings:
        raise CheckError(
            f"{source} failed the serving-state check "
            f"({len(findings)} C007 finding(s)): "
            + "; ".join(f.message for f in findings)
        )


def delta_findings(view: Any) -> List[CheckFinding]:
    """C008 findings: a delta view's merged CSR drifted from a rebuild.

    The streaming layer's whole correctness story is that
    :meth:`repro.serving.deltas.DeltaGraphView.csr` is **bit-identical** to
    rebuilding the graph from scratch over the full (base + delta) edge
    list.  This check recomputes that rebuild independently for every
    relation — the same drift the ``service`` oracle suite gates on a
    seeded stream, available here as a point-in-time audit of a live view
    (the service test suite runs it at every compaction boundary).
    """
    from repro.graph.multiplex import MultiplexHeteroGraph

    findings: List[CheckFinding] = []
    num_nodes = view.num_nodes
    declared = len(view.node_type_codes)
    if declared != num_nodes:
        findings.append(CheckFinding(
            code="C008",
            severity="error",
            message=(
                f"delta view node-type codes cover {declared} nodes but the "
                f"view reports num_nodes={num_nodes}"
            ),
            param="node_type_codes",
        ))
        return findings
    for relation in view.schema.relationships:
        src, dst = view.edges(relation)
        expected = MultiplexHeteroGraph._build_csr(num_nodes, src, dst)
        served = view.csr(relation)
        for part, name in ((0, "indptr"), (1, "indices")):
            if not np.array_equal(served[part], expected[part]):
                findings.append(CheckFinding(
                    code="C008",
                    severity="error",
                    message=(
                        f"merged CSR for relation {relation!r} drifted from "
                        f"a from-scratch rebuild: {name} differs "
                        f"(served {_spec_of(served[part])}, rebuild "
                        f"{_spec_of(expected[part])}; "
                        f"{len(view._delta(relation))} pending delta edges, "
                        f"{view.pending_nodes} pending nodes)"
                    ),
                    param=relation,
                ))
                break
    return findings


def verify_delta_view(view: Any, source: str = "delta view") -> None:
    """Raise :class:`CheckError` when a delta view fails the C008 audit."""
    findings = delta_findings(view)
    if findings:
        raise CheckError(
            f"{source} failed the delta/CSR drift check "
            f"({len(findings)} C008 finding(s)): "
            + "; ".join(f.message for f in findings)
        )
