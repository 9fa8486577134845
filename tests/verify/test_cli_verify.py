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


_SUITE_RUNNERS = ("run_gradcheck_suite", "run_oracle_suite", "index_oracles",
                  "service_oracles", "concurrency_oracles", "alloc_oracles",
                  "verify_golden")


def _stub_verify(monkeypatch):
    """Replace both refreshes and every suite runner by call recorders."""
    import repro.check
    from repro import verify

    calls = []

    def recorder(name, result):
        def record(*args, **kwargs):
            calls.append(name)
            return result
        return record

    monkeypatch.setattr(verify, "refresh_golden",
                        recorder("refresh_golden", []))
    monkeypatch.setattr(verify, "refresh_alloc_budgets",
                        recorder("refresh_alloc_budgets", {}))
    for name in _SUITE_RUNNERS:
        monkeypatch.setattr(verify, name, recorder(name, []))
    monkeypatch.setattr(repro.check, "run_transfer_suite",
                        recorder("run_transfer_suite", []))
    return calls


@pytest.mark.parametrize("flag,refresh", [
    ("--refresh-golden", "refresh_golden"),
    ("--refresh-alloc-budgets", "refresh_alloc_budgets"),
])
def test_refresh_runs_no_suite_by_default(monkeypatch, flag, refresh):
    calls = _stub_verify(monkeypatch)
    assert main(["verify", flag]) == 0
    assert calls == [refresh]


def test_refresh_then_runs_the_named_suite(monkeypatch):
    calls = _stub_verify(monkeypatch)
    assert main(["verify", "--refresh-golden", "--suite", "gradcheck"]) == 0
    assert calls == ["refresh_golden", "run_gradcheck_suite"]
