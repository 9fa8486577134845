"""Run-to-run spread of the end-to-end metrics, one fresh process per seed.

    python3 perfbench/stability.py --workload serve-mixed --seeds 1-10

For each end-to-end metric this prints the median over the runs and the
distance between the first and third quartile as a share of the median,
next to the metric's bound from ``BENCHMARK.json``.  Runs are sequential,
so they do not compete with each other for the host's cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from hgnnbench.stats import quartile_spread  # noqa: E402


def seed_range(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in args.seeds:
        command = ["python3", *bench["command"][1:], "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=900, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(done.stdout)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) > 1 else 0.0
        print(f"{args.workload:<12} {name:<18} median {statistics.median(series):<12.6g}"
              f" spread {spread:6.3f}  bound {bounds[name]:.2f}"
              f"  {'ok' if spread <= bounds[name] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
