"""The ``python -m repro verify`` entry point."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


def test_parser_accepts_verify_flags():
    args = build_parser().parse_args(
        ["verify", "--suite", "oracles", "--seed", "3", "--report", "r.json"]
    )
    assert args.suite == "oracles"
    assert args.seed == 3
    assert args.report == "r.json"


def test_gradcheck_suite_via_cli(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    exit_code = main(["verify", "--suite", "gradcheck", "--report", str(report_path)])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "cases passed" in out and "0 uncovered targets" in out
    payload = json.loads(report_path.read_text())
    assert payload["passed"] is True
    assert payload["suites"]["gradcheck"]["uncovered_targets"] == []
    assert all(c["passed"] for c in payload["suites"]["gradcheck"]["cases"])


def test_golden_subset_via_cli(capsys):
    exit_code = main(
        ["verify", "--suite", "golden", "--datasets", "amazon", "--models", "DeepWalk"]
    )
    assert exit_code == 0
    assert "1/1 golden entries ok" in capsys.readouterr().out


def test_concurrency_suite_via_cli(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    exit_code = main(
        ["verify", "--suite", "concurrency", "--report", str(report_path)]
    )
    assert exit_code == 0
    assert "4/4 oracles passed" in capsys.readouterr().out
    payload = json.loads(report_path.read_text())
    assert payload["passed"] is True
    names = {c["name"] for c in payload["suites"]["concurrency"]}
    assert names == {
        "lock_order_selftest",
        "write_tracker_selftest",
        "service_storm_zero_findings",
        "sanitizer_bitidentity_service",
    }
    assert all(c["passed"] for c in payload["suites"]["concurrency"])


def test_failure_exits_nonzero(tmp_path, monkeypatch):
    # Point the corpus at an empty directory: every entry is missing.
    monkeypatch.setenv("REPRO_GOLDEN_DIR", str(tmp_path))
    exit_code = main(
        ["verify", "--suite", "golden", "--datasets", "amazon", "--models", "DeepWalk"]
    )
    assert exit_code == 1
