"""Example scripts: syntax-check all, execute the fast ones end-to-end."""

from __future__ import annotations

import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.integration

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {path.name for path in ALL_EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 3


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


def test_custom_graph_example_runs():
    """The bring-your-own-graph example is small enough to run in CI."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "custom_graph.py")],
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "ROC-AUC" in result.stdout
    assert "author embedding matrix" in result.stdout


def test_export_and_serve_example_runs():
    """Train, export and serve from the export, end to end."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "export_and_serve.py")],
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "export matches live model: OK" in result.stdout
    assert "checkpoint restore matches live parameters: OK" in result.stdout
