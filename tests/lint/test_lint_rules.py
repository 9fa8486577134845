"""Per-rule tests for the ``repro lint`` AST rules R001-R008.

Every rule is exercised three ways: a positive snippet that must be
flagged, the same snippet silenced with ``# repro-lint: disable=RXXX``,
and the same finding excluded through a baseline entry.  Negative
snippets pin down the false-positive boundaries.

The concurrency rules R009, R011 and R012 follow the same three-way
pattern in ``test_concurrency_rules.py``, and the perf rules R013-R017 in
``test_perf_rules.py``; the metadata test at the bottom of this file
covers the full 16-rule registry.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import (
    BaselineEntry,
    apply_baseline,
    lint_source,
)
from repro.lint.rules import RULES, all_rules


def findings_for(source: str, rel_path: str = "core/example.py"):
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
        "R001",
        "sampling/walker.py",
        """\
        import numpy as np

        def pick(n):
            return np.random.randint(n)  # LINE
        """,
        "np.random.randint",
    ),
    (
        "R001",
        "eval/sampler.py",
        """\
        from numpy.random import default_rng

        def make():
            return default_rng()  # LINE
        """,
        "default_rng",
    ),
    (
        "R001",
        "datasets/shuffle.py",
        """\
        import random

        def roll():
            return random.random()  # LINE
        """,
        "random.random",
    ),
    (
        "R002",
        "core/config.py",
        """\
        def extend(x, items=[]):  # LINE
            items.append(x)
            return items
        """,
        "items=[]",
    ),
    (
        "R002",
        "core/config.py",
        """\
        def cached(*, table={}):  # LINE
            return table
        """,
        "table={}",
    ),
    (
        "R002",
        "core/config.py",
        """\
        from collections import defaultdict

        def group(rows, acc=defaultdict(list)):  # LINE
            return acc
        """,
        "defaultdict",
    ),
    (
        "R003",
        "core/trainer.py",
        """\
        def clobber(param):
            param.data[:] = 0.0  # LINE
        """,
        "slice assignment",
    ),
    (
        "R003",
        "core/trainer.py",
        """\
        def scale(param):
            param.grad *= 0.5  # LINE
        """,
        "in-place update",
    ),
    (
        "R003",
        "core/trainer.py",
        """\
        import numpy as np

        def add_into(param, delta):
            np.add(param.data, delta, out=param.data)  # LINE
        """,
        "out=",
    ),
    (
        "R004",
        "nn/builders.py",
        """\
        def build(items):
            hooks = []
            for item in items:
                def hook(grad):  # LINE
                    return grad * item
                hooks.append(hook)
            return hooks
        """,
        "loop variable 'item'",
    ),
    (
        "R004",
        "nn/builders.py",
        """\
        def build(items):
            fns = []
            for i in items:
                fns.append(lambda g: g + i)  # LINE
            return fns
        """,
        "loop variable 'i'",
    ),
    (
        "R005",
        "eval/metrics_extra.py",
        """\
        def degenerate(p):
            return p == 0.5  # LINE
        """,
        "0.5",
    ),
    (
        "R006",
        "nn/tensor.py",
        """\
        class Tensor:
            def frobnicate(self):  # LINE
                return self
        """,
        "Tensor.frobnicate",
    ),
    (
        "R007",
        "nn/timers.py",
        """\
        import time

        def stamp():
            return time.time()  # LINE
        """,
        "time.time",
    ),
    (
        "R007",
        "sampling/seeded.py",
        """\
        import os

        def profile():
            return os.environ["REPRO_PROFILE"]  # LINE
        """,
        "os.environ",
    ),
    (
        "R008",
        "nn/tensor.py",
        """\
        import numpy as np

        class Tensor:
            def zeros_like(self):
                return np.zeros(self._data.shape, dtype=np.float64)  # LINE
        """,
        "np.float64",
    ),
    (
        "R008",
        "nn/tensor.py",
        """\
        import numpy as np

        def cast_op(x):
            return Tensor._make(x.data.astype(np.float32), (x,), lambda g: None)  # LINE
        """,
        "np.float32",
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


def test_suppress_all_keyword():
    found, suppressed = findings_for(
        """\
        import numpy as np

        def pick(n):
            return np.random.rand(n)  # repro-lint: disable=all
        """,
        "sampling/walker.py",
    )
    assert not found
    assert suppressed == 1


# ----------------------------------------------------------------------
# Negative boundaries (one per rule)
# ----------------------------------------------------------------------

def test_r001_allows_threaded_generators_and_rng_module():
    found, _ = findings_for(
        """\
        from repro.utils.rng import as_rng

        def pick(n, rng):
            rng = as_rng(rng)
            return rng.integers(n)
        """,
        "sampling/walker.py",
    )
    assert "R001" not in codes(found)
    # utils/rng.py itself is the sanctioned home for default_rng().
    found, _ = findings_for(
        """\
        import numpy as np

        def as_rng(seed):
            return np.random.default_rng(seed)
        """,
        "utils/rng.py",
    )
    assert "R001" not in codes(found)


def test_r002_allows_none_and_immutable_defaults():
    found, _ = findings_for(
        """\
        def f(x=None, y=(), z="name", k=0):
            return x, y, z, k
        """,
    )
    assert "R002" not in codes(found)


def test_r003_whitelists_optimizer_and_init_modules():
    source = """\
    def sgd_step(param, lr):
        param.data -= lr * param.grad
    """
    found, _ = findings_for(source, "nn/optim.py")
    assert "R003" not in codes(found)
    found, _ = findings_for(source, "core/trainer.py")
    assert "R003" in codes(found)


def test_r004_allows_default_argument_binding():
    found, _ = findings_for(
        """\
        def build(items):
            hooks = []
            for item in items:
                def hook(grad, item=item):
                    return grad * item
                hooks.append(hook)
            return hooks
        """,
        "nn/builders.py",
    )
    assert "R004" not in codes(found)


def test_r005_allows_int_equality_and_tolerant_compare():
    found, _ = findings_for(
        """\
        import numpy as np

        def check(x):
            return x == 0 or x <= 0.5 or np.isclose(x, 0.5)
        """,
    )
    assert "R005" not in codes(found)


def test_r006_accepts_registered_ops_and_skips_properties():
    found, _ = findings_for(
        """\
        class Tensor:
            @property
            def shape(self):
                return self._data.shape

            @staticmethod
            def _make(data, parents, backward, op=""):
                return data

            def exp(self):
                return self

            def detach(self):
                return self
        """,
        "nn/tensor.py",
    )
    assert "R006" not in codes(found)


def test_r006_flags_unregistered_functional():
    found, _ = findings_for(
        """\
        def mystery_op(x):
            return Tensor._make(x.data, (x,), lambda g: None)
        """,
        "nn/tensor.py",
    )
    assert any(
        f.code == "R006" and "mystery_op" in f.message for f in found
    )


def test_r007_only_applies_to_deterministic_core_paths():
    source = """\
    import time

    def stamp():
        return time.perf_counter()
    """
    found, _ = findings_for(source, "perf/timers.py")
    assert "R007" not in codes(found)
    found, _ = findings_for(source, "core/trainer.py")
    assert "R007" in codes(found)


def test_r008_derived_dtypes_and_non_op_code_pass():
    # Deriving the dtype from the operand is the blessed pattern.
    found, _ = findings_for(
        """\
        import numpy as np

        class Tensor:
            def zeros_like(self):
                return np.zeros(self._data.shape, dtype=self._data.dtype)
        """,
        "nn/tensor.py",
    )
    assert "R008" not in codes(found)
    # Hard-coded dtypes outside the Tensor op surface (plain helpers that
    # never call Tensor._make) are out of scope for R008.
    found, _ = findings_for(
        """\
        import numpy as np

        def histogram(values):
            return np.zeros(16, dtype=np.float64)
        """,
        "eval/metrics_extra.py",
    )
    assert "R008" not in codes(found)


def test_r008_flags_string_dtype_constants():
    found, _ = findings_for(
        """\
        import numpy as np

        class Tensor:
            def as_single(self):
                return self._data.astype("float32")
        """,
        "nn/tensor.py",
    )
    assert any(
        f.code == "R008" and "'float32'" in f.message for f in found
    )


def test_all_rules_have_stable_metadata():
    rules = all_rules()
    assert len(rules) == len(RULES) == 16
    seen = set()
    for rule in rules:
        assert rule.code.startswith("R") and len(rule.code) == 4
        assert rule.name and rule.hint
        seen.add(rule.code)
    # R010 is retired; its code is not reused.
    assert seen == {f"R{i:03d}" for i in range(1, 18)} - {"R010"}
