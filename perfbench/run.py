"""HybridGNN benchmark: training steps and served requests, end to end and by layer.

Run one workload (what an automated harness does, from the repository root)::

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` runs the measured loop
half untraced and half traced, and reports the per-layer metrics.

Run all four workloads, each in a fresh process, traced and untraced::

    python3 perfbench/run.py --all --seed 1 --seconds 12

Re-record the input fingerprints (only in a change that means to alter a
workload's inputs)::

    python3 perfbench/run.py --write-fingerprints

The program is imported from ``src/`` next to this directory; the run
writes its span file under ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"
OUT_DIR = ROOT / ".perfbench_out"
NAMES = ("train-large", "train-small", "serve-read", "serve-mixed")


def _import_program():
    """Put ``src/`` first on the path; fail when the program is absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    from hgnnbench import workloads

    return workloads


def _stored_fingerprints() -> dict:
    try:
        return json.loads(FINGERPRINTS.read_text())
    except FileNotFoundError:
        return {}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads = _import_program()
    from hgnnbench import record, report
    from hgnnbench.stats import OpLog
    from hgnnbench.tracing import NullTracer, Tracer, spans_to_json

    workload = workloads.WORKLOADS[name]
    null = NullTracer()
    tracer = Tracer() if trace else None
    problems = []

    seeds = [workloads.CANONICAL_SEED] + [seed] * (workload.setup_repeats - 1)
    setup_times = []
    reference = None
    for index, setup_seed in enumerate(seeds):
        last = index == len(seeds) - 1
        traced_setup = trace and last
        if traced_setup:
            tracer.install()
        start = time.perf_counter()
        state = workload.setup(setup_seed, tracer if traced_setup else null)
        setup_times.append(time.perf_counter() - start)
        if traced_setup:
            tracer.uninstall()
        if last:
            break
        if index == 0:
            workload.prepare(state, setup_seed)
            stored = _stored_fingerprints().get(name)
            found = workload.fingerprint(state)
            if stored != {"seed": setup_seed, **found}:
                problems.append(
                    f"input fingerprint for seed {setup_seed} is {found}, "
                    f"{FINGERPRINTS.name} holds {stored}"
                )
        if index == len(seeds) - 2:
            reference = workload.probe(state)
        del state
        gc.collect()
    workload.prepare(state, seed)

    if trace:
        untraced = workload.measure(state, seconds / 2, null)
        tracer.install()
        traced = workload.measure(state, seconds / 2, tracer)
        tracer.uninstall()
        log = OpLog()
        log.merge(untraced)
        log.merge(traced)
        log.elapsed = untraced.elapsed + traced.elapsed
        metrics, breakdown = report.layer_metrics(
            tracer, workload.op_kind, untraced, traced,
            getattr(state, "service", None),
        )
        metrics.update(workload.layer_probe(state))
        units = report.PER_LAYER
    else:
        log = workload.measure(state, seconds, null)
        rss_mb = record.peak_rss_mb()
        for _ in range(workload.trailing_setups):
            start = time.perf_counter()
            workload.setup(seed, null)
            setup_times.append(time.perf_counter() - start)
            gc.collect()
        metrics = report.end_to_end(setup_times, log, rss_mb)
        units = report.END_TO_END
    problems.extend(workload.check(state, reference))

    graph = state.dataset.graph
    run_record = record.run_record(ROOT, name, seed, graph, {
        "trace": int(trace),
        "seconds": seconds,
        "setup_times_s": setup_times,
        "problems": problems,
    })
    print(f"workload {name}: {workload.why}")
    print(f"  stresses: {', '.join(workload.stresses)}")
    print(f"  seed {seed}, |V| {graph.num_nodes}, |E| {graph.num_edges}, "
          f"tracing {'on' if trace else 'off'}")
    rows = [(key, value, units[key][0]) for key, value in metrics.items()]
    print(report.table(rows, f"{log.attempted} operations attempted, "
                             f"{log.failed} failed, over {log.elapsed:.2f} s"))
    if trace:
        ok, attributed, untraced_ms = report.coverage(metrics, untraced)
        print(f"  top layers per {workload.op_kind} "
              f"(traced mean {traced.finite_mean() * 1e3:.3f} ms):")
        traced_ms = traced.finite_mean() * 1e3
        for layer, ms in breakdown[:12]:
            print(f"    {layer:<32} {ms:10.4f} ms  {100 * ms / traced_ms:6.1f}%")
        print(f"  coverage {'ok' if ok else 'FAILED'}: layers add up to "
              f"{attributed:.4f} ms against {untraced_ms:.4f} ms untraced, "
              f"overhead {metrics['trace.overhead_ms']:.4f} ms")
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"{name}-seed{seed}-trace.json"
        out.write_text(json.dumps({
            "record": run_record,
            "ops": {str(op): kind for op, kind in tracer.ops.items()},
            "spans": spans_to_json(tracer.spans()),
        }))
        print(f"  spans written to {out.relative_to(ROOT)}")
    else:
        print(report.table(_named_figures(workload, state, log),
                           "per-step or per-request figures; the tail follows the ten-samples-beyond rule"))
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print("record " + json.dumps(run_record, sort_keys=True))
    return {
        "correct": not problems,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {
            key: {"value": float(value), "unit": units[key][0]}
            for key, value in metrics.items()
        },
    }


def _named_figures(workload, state, log):
    """Step or request percentiles by the tail rule, plus workload figures."""
    from hgnnbench.stats import percentile, tail_percentile

    prefix = "step" if workload.op_kind == "step" else "latency"
    rows = [(f"{prefix}_p50_ms", percentile(log.latencies, 50) * 1e3, "ms")]
    tail = tail_percentile(log.attempted)
    if tail is None:
        rows.append((f"{prefix}_tail_ms", float("nan"),
                     f"ms (no tail: {log.attempted} samples)"))
    else:
        rows.append((f"{prefix}_p{tail:g}_ms",
                     percentile(log.latencies, tail) * 1e3, "ms"))
    for key, (value, unit) in workload.summary(state, log).items():
        rows.append((key, value, unit))
    for kind, count in sorted(log.kinds.items()):
        rows.append((f"{kind}_ops", count, "count"))
    return rows


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    results = {}
    for name in NAMES:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{name} trace={trace} exited with {done.returncode}")
                return done.returncode
            results[f"{name}/trace{trace}"] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def write_fingerprints() -> int:
    workloads = _import_program()
    from hgnnbench.tracing import NullTracer

    found = {}
    for name in NAMES:
        workload = workloads.WORKLOADS[name]
        state = workload.setup(workloads.CANONICAL_SEED, NullTracer())
        workload.prepare(state, workloads.CANONICAL_SEED)
        found[name] = {"seed": workloads.CANONICAL_SEED, **workload.fingerprint(state)}
        del state
        gc.collect()
    FINGERPRINTS.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n")
    print(json.dumps(found, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    # Single-threaded BLAS, set before numpy loads: a run measures the
    # program, not how a BLAS thread pool competes with the client threads
    # for the host's cores.
    from hgnnbench import THREAD_ENV

    for name in THREAD_ENV:
        os.environ[name] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--write-fingerprints", action="store_true",
                        help=f"re-record {FINGERPRINTS.name} from the canonical seed")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_fingerprints:
        return write_fingerprints()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload, --all or --write-fingerprints is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
