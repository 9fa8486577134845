"""Per-rule tests for the performance lint rules R013-R017.

Same three-way pattern as ``test_lint_rules.py``: every rule gets a
positive snippet that must be flagged, the same snippet silenced inline
with ``# repro-lint: disable=RXXX``, and the same finding absorbed by a
baseline entry.  The negative tests pin down the sanctioned idioms the
hot paths rely on (accumulate-then-concat after the loop, per-iteration
concat of fresh parts, ``intended-dtype`` coercion markers, bounded
``np.unique`` group-by headers, convert-once ``tolist()`` in loop
headers).
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import BaselineEntry, apply_baseline, lint_source


def findings_for(source: str, rel_path: str):
    source = textwrap.dedent(source)
    found, suppressed = lint_source(source, rel_path)
    return found, suppressed


def codes(found):
    return [f.code for f in found]


# Positive snippets: (rule code, rel_path, source, message fragment).
# The flagged construct sits on the line carrying the ``# LINE`` marker so
# the suppression variant can be generated mechanically.
POSITIVE = [
    (
        "R013",
        "core/collect.py",
        """\
        import numpy as np

        def gather(chunks):
            out = np.empty(0, dtype=np.int64)
            for chunk in chunks:
                out = np.concatenate([out, chunk])  # LINE
            return out
        """,
        "array 'out' grown with 'np.concatenate'",
    ),
    (
        "R013",
        "eval/collect.py",
        """\
        import numpy as np

        def gather(values):
            acc = np.empty(0)
            for value in values:
                acc = np.append(acc, value)  # LINE
            return acc
        """,
        "'np.append'",
    ),
    (
        "R013",
        "core/collect.py",
        """\
        import numpy as np

        def running(values):
            buf = []
            views = []
            for value in values:
                buf.append(value)
                views.append(np.asarray(buf))  # LINE
            return views
        """,
        "list 'buf' grown in this loop is re-materialised",
    ),
    (
        "R014",
        "sampling/casts.py",
        """\
        import numpy as np

        def widen(x):
            return x.astype(np.int32).astype(np.float32)  # LINE
        """,
        "chained astype",
    ),
    (
        "R014",
        "serving/casts.py",
        """\
        import numpy as np

        def scale(a, b):
            return (a * b).astype(np.int64)  # LINE
        """,
        "freshly computed temporary",
    ),
    (
        "R014",
        "core/casts.py",
        """\
        import numpy as np

        def promote(x):
            return x.astype(np.float64)  # LINE
        """,
        "silent float64 promotion",
    ),
    (
        "R015",
        "sampling/iterate.py",
        """\
        import numpy as np

        def total(n):
            arr = np.arange(n)
            acc = 0
            for value in arr:  # LINE
                acc += value
            return acc
        """,
        "Python-level iteration 'for ... in arr'",
    ),
    (
        "R015",
        "serving/iterate.py",
        """\
        import numpy as np

        def ordered(arr):
            out = []
            for value in np.sort(arr):  # LINE
                out.append(value)
            return out
        """,
        "iteration over 'np.sort(...)' result",
    ),
    (
        "R015",
        "nn/iterate.py",
        """\
        import numpy as np

        def rows(batches):
            weights = np.ones(4)
            out = []
            for batch in batches:
                out.append(weights.tolist())  # LINE
            return out
        """,
        "per-iteration 'weights.tolist()'",
    ),
    (
        "R015",
        "core/iterate.py",
        """\
        import numpy as np

        def total(n):
            arr = np.arange(n)
            acc = 0.0
            for i in range(n):
                acc += arr[i]  # LINE
            return acc
        """,
        "scalar element indexing 'arr[i]'",
    ),
    (
        "R016",
        "core/rebuild.py",
        """\
        def scores(graph, relation, sources):
            out = []
            for source in sources:
                matrix = graph.csr(relation)  # LINE
                out.append(matrix[source])
            return out
        """,
        "loop-invariant call 'graph.csr(relation)' recomputed",
    ),
    (
        "R017",
        "eval/buffers.py",
        """\
        import numpy as np

        def accumulate(rows, dim):
            out = []
            for row in rows:
                buf = np.zeros(dim)  # LINE
                buf[row] = 1.0
                out.append(buf.sum())
            return out
        """,
        "loop-invariant shape 'dim'",
    ),
]

IDS = [f"{code}-{i}" for i, (code, _, _, _) in enumerate(POSITIVE)]


@pytest.mark.parametrize("code,rel_path,source,fragment", POSITIVE, ids=IDS)
def test_positive_snippet_is_flagged(code, rel_path, source, fragment):
    found, _ = findings_for(source, rel_path)
    matching = [f for f in found if f.code == code]
    assert matching, f"expected {code} in {codes(found)}"
    assert any(fragment in f.message for f in matching)
    assert all(f.hint for f in matching), "every finding carries a fix hint"


@pytest.mark.parametrize("code,rel_path,source,fragment", POSITIVE, ids=IDS)
def test_positive_snippet_suppressed_inline(code, rel_path, source, fragment):
    """Appending ``# repro-lint: disable=RXXX`` on the line silences it."""
    suppressed_source = textwrap.dedent(source).replace(
        "# LINE", f"# repro-lint: disable={code}"
    )
    found, suppressed = lint_source(suppressed_source, rel_path)
    assert not [f for f in found if f.code == code]
    assert suppressed >= 1


@pytest.mark.parametrize("code,rel_path,source,fragment", POSITIVE, ids=IDS)
def test_positive_snippet_excluded_by_baseline(code, rel_path, source, fragment):
    """A baseline entry keyed by (code, path, message) absorbs the finding."""
    found, _ = findings_for(source, rel_path)
    target = next(f for f in found if f.code == code)
    entry = BaselineEntry(
        code=target.code, path=target.path, message=target.message,
        reason="unit-test debt",
    )
    actionable, baselined, stale = apply_baseline(found, [entry])
    assert target not in actionable
    assert target in baselined
    assert not stale


# ----------------------------------------------------------------------
# Negative boundaries
# ----------------------------------------------------------------------

def test_r013_allows_accumulate_then_concat_after_loop():
    """The sanctioned growth pattern: list in the loop, one concat after."""
    found, _ = findings_for(
        """\
        import numpy as np

        def gather(chunks):
            parts = []
            for chunk in chunks:
                parts.append(chunk * 2)
            return np.concatenate(parts)
        """,
        "core/collect.py",
    )
    assert "R013" not in codes(found)


def test_r013_allows_per_iteration_concat_of_fresh_parts():
    """Concatenating *fresh* arrays each iteration is not growth."""
    found, _ = findings_for(
        """\
        import numpy as np

        def pair_up(lefts, rights):
            out = []
            for left, right in zip(lefts, rights):
                row = np.concatenate([left, right])
                out.append(row)
            return out
        """,
        "core/collect.py",
    )
    assert "R013" not in codes(found)


def test_r013_allows_elementwise_augadd_of_concat():
    """``x += np.concatenate(parts)`` is an elementwise add, not growth."""
    found, _ = findings_for(
        """\
        import numpy as np

        def accumulate(parts_per_round, total):
            for parts in parts_per_round:
                total += np.concatenate(parts)
            return total
        """,
        "core/collect.py",
    )
    assert "R013" not in codes(found)


def test_r014_intended_dtype_marker_is_honored():
    found, _ = findings_for(
        """\
        import numpy as np

        def promote(x):
            return x.astype(np.float64)  # repro-lint: intended-dtype=float64
        """,
        "core/casts.py",
    )
    assert "R014" not in codes(found)


def test_r014_allows_single_cast_of_bound_array():
    """One astype of an already-bound name to a narrower dtype is fine."""
    found, _ = findings_for(
        """\
        import numpy as np

        def narrow(offsets):
            return offsets.astype(np.int64)
        """,
        "sampling/casts.py",
    )
    assert "R014" not in codes(found)


def test_r014_r015_only_apply_to_hot_modules():
    source = """\
    import numpy as np

    def slow(n):
        arr = np.arange(n)
        acc = 0.0
        for value in arr:
            acc += value
        return acc + float(arr.astype(np.float64)[0])
    """
    found, _ = findings_for(source, "eval/metrics_extra.py")
    assert "R014" not in codes(found)
    assert "R015" not in codes(found)
    found, _ = findings_for(source, "sampling/walker.py")
    assert "R015" in codes(found)
    # core/ runs the HybridGNN training step.
    found, _ = findings_for(source, "core/model.py")
    assert "R015" in codes(found)


def test_r015_unique_groupby_and_header_tolist_are_sanctioned():
    found, _ = findings_for(
        """\
        import numpy as np

        def group(codes_in, table):
            weights = np.ones(4)
            out = []
            for code in np.unique(codes_in):
                for w in weights.tolist():
                    out.append((code, w))
            return out
        """,
        "serving/group.py",
    )
    assert "R015" not in codes(found)


def test_r015_name_tracking_is_per_function():
    """An np-bound name in one function must not taint another's local."""
    found, _ = findings_for(
        """\
        import numpy as np

        def make(n):
            chosen = np.arange(n)
            return chosen.sum()

        def consume(pairs):
            out = []
            for chosen in [pairs]:
                for dist, neighbor in chosen:
                    out.append((dist, neighbor))
            return out
        """,
        "serving/group.py",
    )
    assert "R015" not in codes(found)


def test_r016_loop_dependent_call_not_flagged():
    found, _ = findings_for(
        """\
        def scores(graph, relations):
            out = []
            for relation in relations:
                out.append(graph.csr(relation))
            return out
        """,
        "core/rebuild.py",
    )
    assert "R016" not in codes(found)


def test_r017_loop_variant_shape_and_zero_sentinel_not_flagged():
    found, _ = findings_for(
        """\
        import numpy as np

        def pad(chunks):
            out = []
            for chunk in chunks:
                buf = np.zeros(len(chunk))
                empty = np.empty(0)
                out.append((buf, empty))
            return out
        """,
        "eval/buffers.py",
    )
    assert "R017" not in codes(found)
