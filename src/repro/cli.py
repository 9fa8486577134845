"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the dataset-alikes with their Table II statistics.
``train``
    Train a model on a dataset-alike, report test metrics, optionally save
    a checkpoint and an embedding export.
``evaluate``
    Score a saved embedding export against a dataset split.
``recommend``
    Print top-K recommendations from a saved embedding export — one node
    via ``--node``, or many at once via ``--nodes`` (served by the batched
    engine in :mod:`repro.serving`); ``--index ivf|hnsw`` (with
    ``--nprobe`` / ``--ef-search``) swaps in a sub-linear approximate
    retrieval backend.
``serve-sim``
    Simulate mixed live traffic (recommend/similar reads interleaved with
    feedback writes, including cold-start nodes) against the online
    :class:`repro.serving.RecommendService` and print per-endpoint latency
    percentiles plus ingestion/compaction counters.
``schemes``
    Enumerate/suggest metapath schemes for a dataset-alike.
``table`` / ``figure``
    Regenerate one of the paper's tables or figures.
``verify``
    Run the correctness verification suites (gradcheck registry,
    differential oracles, index recall oracles, online-service oracles,
    lock-discipline concurrency oracles, allocation budgets, transfer-rule
    crosscheck, golden regression corpus); see TESTING.md.
``lint``
    Run the project's AST lint rules (R001-R017) over the source tree
    against the committed baseline; see TESTING.md.
``check-model``
    Statically check a model/dataset pair: trace one training step,
    abstractly re-propagate shapes/dtypes, and audit gradient flow,
    broadcasts, and memory (:mod:`repro.check`); see TESTING.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.core import Recommender, export_embeddings, load_embeddings, save_checkpoint
from repro.datasets import available_datasets, load_dataset, split_edges
from repro.eval import evaluate_link_prediction, evaluate_ranking
from repro.experiments import MODEL_NAMES, get_profile, make_model
from repro.experiments import figures as figures_mod
from repro.experiments import tables as tables_mod
from repro.graph import compute_statistics, suggest_schemes
from repro.utils import format_table


def _add_common_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="taobao", choices=available_datasets())
    parser.add_argument("--scale", type=float, default=0.25,
                        help="dataset size multiplier")
    parser.add_argument("--seed", type=int, default=0)


def cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in available_datasets():
        dataset = load_dataset(name, scale=args.scale, seed=args.seed)
        stats = compute_statistics(dataset.graph)
        rows.append([
            name, stats.num_nodes, stats.num_edges, stats.num_node_types,
            stats.num_relationships, ", ".join(dataset.metapath_patterns),
        ])
    print(format_table(
        ["Dataset", "|V|", "|E|", "|O|", "|R|", "Schemes"], rows,
        title=f"Dataset-alikes (scale={args.scale})",
    ))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    import dataclasses

    profile = get_profile(args.profile)
    if args.resample_walks:
        profile = dataclasses.replace(
            profile,
            trainer=dataclasses.replace(
                profile.trainer, resample_walks_every=args.resample_walks
            ),
        )
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    split = split_edges(dataset.graph, rng=args.seed + 10_000)
    print(dataset.graph)
    model = make_model(args.model, profile, args.seed)
    print(f"training {args.model} ({profile.name} profile) ...")
    model.fit(dataset, split)

    link = evaluate_link_prediction(model, split.test)
    rows = [
        [relation, m["roc_auc"], m["pr_auc"], m["f1"]]
        for relation, m in link.per_relation.items()
    ]
    rows.append(["OVERALL", link["roc_auc"], link["pr_auc"], link["f1"]])
    print(format_table(["Relation", "ROC-AUC", "PR-AUC", "F1"], rows,
                       title="Test link prediction (%)", float_fmt="{:.2f}"))
    ranking = evaluate_ranking(
        model, split.train_graph, split.test, k=args.k,
        max_sources=profile.ranking_max_sources,
    )
    print(format_table(
        ["Relation", f"PR@{args.k}", f"HR@{args.k}", "NDCG", "MRR"],
        [
            [rel, m["pr_at_k"], m["hr_at_k"], m["ndcg_at_k"], m["mrr"]]
            for rel, m in ranking.per_relation.items()
        ],
        title="Test top-K recommendation",
    ))

    if args.save_embeddings:
        written = export_embeddings(
            model, split.train_graph.num_nodes,
            split.train_graph.schema.relationships, args.save_embeddings,
        )
        print(f"embeddings written to {written}")
    if args.save_checkpoint:
        module = getattr(model, "module", None) or getattr(model, "_module", None)
        if module is None:
            print("note: this model kind has no checkpointable module; skipped")
        else:
            written = save_checkpoint(module, args.save_checkpoint)
            print(f"checkpoint written to {written}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    split = split_edges(dataset.graph, rng=args.seed + 10_000)
    store = load_embeddings(args.embeddings)
    link = evaluate_link_prediction(store, split.test)
    rows = [
        [relation, m["roc_auc"], m["pr_auc"], m["f1"]]
        for relation, m in link.per_relation.items()
    ]
    print(format_table(["Relation", "ROC-AUC", "PR-AUC", "F1"], rows,
                       title=f"Stored embeddings on {args.dataset}",
                       float_fmt="{:.2f}"))
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    if args.node is None and not args.nodes:
        print("error: pass --node ID or --nodes ID,ID,... for batch mode",
              file=sys.stderr)
        return 2
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    split = split_edges(dataset.graph, rng=args.seed + 10_000)
    store = load_embeddings(args.embeddings)
    engine_options: dict = {"index": args.index}
    index_params = {"seed": args.seed}
    if args.nprobe is not None:
        index_params["nprobe"] = args.nprobe
    if args.ef_search is not None:
        index_params["ef_search"] = args.ef_search
    engine_options["index_params"] = index_params
    recommender = Recommender(store, split.train_graph, engine_options)
    if args.nodes:
        sources = [int(token) for token in args.nodes.split(",") if token.strip()]
        lists = recommender.recommend_batch(sources, args.relation, k=args.k)
        rows = [
            [source, rec.node, rec.score]
            for source, recs in zip(sources, lists)
            for rec in recs
        ]
        print(format_table(
            ["Source", "Node", "Score"], rows,
            title=(f"Top-{args.k} {args.relation!r} recommendations "
                   f"for {len(sources)} nodes (batch)"),
        ))
        if args.stats:
            print(recommender.engine.profiler.summary())
            stats = recommender.engine.stats.to_dict()
            latency = stats["latency_ms"]
            print(
                f"requests {stats['requests']}, sources {stats['sources']}, "
                f"candidates scored {stats['candidates_scored']}, "
                f"index builds {stats['index_builds']}, "
                f"exact fallbacks {stats['exact_fallbacks']}; "
                f"request latency p50 {latency['p50']:.2f}ms / "
                f"p95 {latency['p95']:.2f}ms / p99 {latency['p99']:.2f}ms"
            )
        return 0
    recs = recommender.recommend(args.node, args.relation, k=args.k)
    rows = [[rec.node, rec.score] for rec in recs]
    print(format_table(
        ["Node", "Score"], rows,
        title=f"Top-{args.k} {args.relation!r} recommendations for node {args.node}",
    ))
    return 0


def cmd_serve_sim(args: argparse.Namespace) -> int:
    """Drive the online service with a seeded mixed read/write trace."""
    import json

    from repro.serving import RecommendService, ServiceConfig
    from repro.serving.traffic import generate_trace, replay_trace
    from repro.utils.rng import as_rng

    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    graph = dataset.graph
    if args.embeddings:
        store = load_embeddings(args.embeddings)
    else:
        # No export given: serve seeded random tables (traffic-shape runs).
        from repro.core.persistence import EmbeddingStore

        rng = as_rng((args.seed, 2026))
        store = EmbeddingStore({
            rel: rng.standard_normal((graph.num_nodes, args.dim))
            for rel in graph.schema.relationships
        })
    config = ServiceConfig(
        max_batch=args.max_batch,
        flush_interval=args.flush_interval,
        max_queue=args.max_queue,
        compaction_threshold=args.compaction_threshold,
        default_k=args.k,
    )
    service = RecommendService(store, graph, config=config)
    trace = generate_trace(
        graph, args.ops, seed=args.seed,
        read_fraction=args.read_fraction,
        new_node_rate=args.new_node_rate, k=args.k,
    )
    print(f"replaying {len(trace)} ops on {args.dataset} "
          f"(|V|={graph.num_nodes}, |E|={graph.num_edges}) ...")
    summary = replay_trace(service, trace)
    report = service.stats_report()
    rows = []
    for endpoint, stats in report["endpoints"].items():
        latency = stats["latency_ms"]
        rows.append([
            endpoint, stats["requests"], stats["batches"], stats["rejected"],
            latency["p50"], latency["p95"], latency["p99"],
        ])
    print(format_table(
        ["Endpoint", "Requests", "Batches", "Rejected",
         "p50 ms", "p95 ms", "p99 ms"],
        rows, title="Per-endpoint service latency", float_fmt="{:.3f}",
    ))
    ingestion = report["ingestion"]
    print(
        f"ingested {ingestion['edges_ingested']} edges, "
        f"{ingestion['nodes_ingested']} cold-start nodes, "
        f"{ingestion['compactions']} compactions "
        f"({ingestion['duplicates_dropped']} duplicates dropped); "
        f"result digest {summary['digest'][:16]}..."
    )
    if args.report:
        with open(args.report, "w") as handle:
            json.dump({"summary": summary, "report": report}, handle,
                      indent=2, default=str)
        print(f"report written to {args.report}")
    return 0


def cmd_schemes(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    relation = args.relation or dataset.graph.schema.relationships[0]
    suggestions = suggest_schemes(
        dataset.graph, relation, max_length=args.max_length, top=args.top,
        rng=args.seed,
    )
    rows = [[s.scheme.describe(), s.coverage] for s in suggestions]
    print(format_table(
        ["Scheme", "Coverage"], rows,
        title=f"Suggested metapath schemes for {relation!r} on {args.dataset}",
    ))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    import json

    from repro import verify as verify_mod

    suites = (
        ["gradcheck", "oracles", "index", "service", "concurrency",
         "alloc", "transfer", "golden"]
        if args.suite == "all"
        else [args.suite]
    )
    datasets = [d for d in args.datasets.split(",") if d] or None
    models = [m for m in args.models.split(",") if m] or None
    report: dict = {"seed": args.seed, "suites": {}}
    ok = True

    if args.refresh_golden:
        entries = verify_mod.refresh_golden(
            datasets=datasets, models=models, seed=args.seed, verbose=True
        )
        print(f"refreshed {len(entries)} golden entries in {verify_mod.golden_dir()}")
        suites = [s for s in suites if s != "golden"] if args.suite == "all" else []

    if args.refresh_alloc_budgets:
        from repro.perf import default_budget_path

        budgets = verify_mod.refresh_alloc_budgets()
        print(
            f"refreshed {len(budgets)} allocation budgets in "
            f"{default_budget_path()}"
        )
        suites = [s for s in suites if s != "alloc"] if args.suite == "all" else []

    if "gradcheck" in suites:
        missing = verify_mod.uncovered_targets()
        reports = verify_mod.run_gradcheck_suite(seed=args.seed)
        failed = [r for r in reports if not r.passed]
        for r in failed:
            print(r.summary())
        print(
            f"gradcheck: {len(reports) - len(failed)}/{len(reports)} cases passed, "
            f"{len(missing)} uncovered targets"
            + (f" ({', '.join(missing)})" if missing else "")
        )
        ok &= not failed and not missing
        report["suites"]["gradcheck"] = {
            "uncovered_targets": missing,
            "cases": [r.to_dict() for r in reports],
        }

    if "oracles" in suites:
        results = verify_mod.run_oracle_suite(seed=args.seed)
        print(verify_mod.format_oracle_table(results))
        ok &= all(r.passed for r in results)
        report["suites"]["oracles"] = [r.to_dict() for r in results]

    if "index" in suites:
        results = verify_mod.index_oracles(seed=args.seed)
        print(verify_mod.format_oracle_table(results))
        ok &= all(r.passed for r in results)
        report["suites"]["index"] = [r.to_dict() for r in results]

    if "service" in suites:
        results = verify_mod.service_oracles(seed=args.seed)
        print(verify_mod.format_oracle_table(results))
        ok &= all(r.passed for r in results)
        report["suites"]["service"] = [r.to_dict() for r in results]

    if "concurrency" in suites:
        results = verify_mod.concurrency_oracles(seed=args.seed)
        print(verify_mod.format_oracle_table(results))
        ok &= all(r.passed for r in results)
        report["suites"]["concurrency"] = [r.to_dict() for r in results]

    if "alloc" in suites:
        results = verify_mod.alloc_oracles(seed=args.seed)
        print(verify_mod.format_oracle_table(results))
        ok &= all(r.passed for r in results)
        report["suites"]["alloc"] = [r.to_dict() for r in results]

    if "transfer" in suites:
        # Lazy import: the static checker is not needed by the other suites.
        from repro.check import format_transfer_table, run_transfer_suite

        checks = run_transfer_suite(seed=args.seed)
        print(format_transfer_table(checks))
        ok &= all(c.passed for c in checks)
        report["suites"]["transfer"] = [c.to_dict() for c in checks]

    if "golden" in suites:
        checks = verify_mod.verify_golden(
            datasets=datasets, models=models, verbose=True
        )
        print(verify_mod.format_golden_table(checks))
        ok &= all(c.passed for c in checks)
        report["suites"]["golden"] = [c.to_dict() for c in checks]

    report["passed"] = bool(ok)
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"report written to {args.report}")
    return 0 if ok else 1


def cmd_check_model(args: argparse.Namespace) -> int:
    # Imported lazily: the static checker pulls in the verification
    # registry, which no other command needs.
    from repro.check import check_model, format_json, format_text, run_self_test

    if args.self_test:
        ok, messages, reports = run_self_test(seed=args.seed)
        if args.format == "json":
            print(format_json([reports["stock"], reports["miswired"]], strict=True))
        else:
            for report in (reports["stock"], reports["miswired"]):
                print(format_text(report, strict=True))
        for message in messages:
            print(f"self-test: {message}", file=sys.stderr)
        print("self-test: " + ("ok" if ok else "FAILED"), file=sys.stderr)
        return 0 if ok else 1

    report = check_model(
        model=args.model,
        dataset=args.dataset,
        scale=args.scale,
        seed=args.seed,
        profile=args.profile,
    )
    if args.format == "json":
        print(format_json([report], strict=args.strict))
    else:
        print(format_text(report, strict=args.strict))
    return 0 if report.passed(strict=args.strict) else 1


def cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the linter (and the registry introspection R006
    # pulls in) is not needed by any other command.
    from repro.lint.cli import cmd_lint as run

    return run(args)


_TABLES = {
    "3": lambda profile: tables_mod.render_link_prediction(
        tables_mod.table3(profile=profile), "Table III"),
    "4": lambda profile: tables_mod.render_link_prediction(
        tables_mod.table4(profile=profile), "Table IV"),
    "5": lambda profile: tables_mod.render_table5(tables_mod.table5(profile=profile)),
    "6": lambda profile: tables_mod.render_table6(tables_mod.table6(profile=profile)),
    "7": lambda profile: tables_mod.render_table7(tables_mod.table7(profile=profile)),
    "8": lambda profile: tables_mod.render_table8(tables_mod.table8(profile=profile)),
}

_FIGURES = {
    "4": lambda profile: figures_mod.render_figure4(figures_mod.figure4(profile=profile)),
    "5": lambda profile: figures_mod.render_figure5(figures_mod.figure5(profile=profile)),
    "6": lambda profile: figures_mod.render_figure6(figures_mod.figure6(profile=profile)),
}


def cmd_table(args: argparse.Namespace) -> int:
    profile = get_profile(args.profile)
    print(_TABLES[args.number](profile))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    profile = get_profile(args.profile)
    print(_FIGURES[args.number](profile))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HybridGNN reproduction (ICDE 2022) command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list dataset-alikes and statistics")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_datasets)

    p = sub.add_parser("train", help="train a model and report test metrics")
    _add_common_dataset_args(p)
    p.add_argument("--model", default="HybridGNN", choices=MODEL_NAMES)
    p.add_argument("--profile", default="", help="smoke (default) or paper")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--save-embeddings", default="",
                   help="path for an .npz export (.npz is appended when missing)")
    p.add_argument("--save-checkpoint", default="",
                   help="path for an .npz checkpoint (.npz is appended when "
                        "missing; the path actually written is printed)")
    p.add_argument("--resample-walks", type=int, default=0,
                   help="regenerate random walks every N epochs "
                        "(0 = walk once and reuse, the default)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved embedding export")
    _add_common_dataset_args(p)
    p.add_argument("--embeddings", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", help="top-K recommendations from an export")
    _add_common_dataset_args(p)
    p.add_argument("--embeddings", required=True,
                   help="embedding export path (.npz appended when missing)")
    p.add_argument("--node", type=int, default=None,
                   help="single source node id")
    p.add_argument("--nodes", default="",
                   help="comma-separated node ids: batch mode through the "
                        "vectorised serving engine")
    p.add_argument("--relation", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--stats", action="store_true",
                   help="print serving-engine stage timings after a batch")
    p.add_argument("--index", default="exact",
                   choices=["exact", "ivf", "hnsw"],
                   help="retrieval backend: exact brute force (default), or "
                        "an approximate sub-linear index (recall-gated by "
                        "'repro verify --suite index')")
    p.add_argument("--nprobe", type=int, default=None,
                   help="ivf: clusters probed per query (higher = better "
                        "recall, more candidates scored)")
    p.add_argument("--ef-search", type=int, default=None,
                   help="hnsw: beam width during search (higher = better "
                        "recall, slower)")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("serve-sim",
                       help="simulate mixed live traffic on the online service")
    _add_common_dataset_args(p)
    p.add_argument("--embeddings", default="",
                   help="embedding export to serve (seeded random tables "
                        "when omitted)")
    p.add_argument("--ops", type=int, default=500,
                   help="trace length (reads + feedback writes)")
    p.add_argument("--read-fraction", type=float, default=0.7)
    p.add_argument("--new-node-rate", type=float, default=0.05,
                   help="fraction of writes that introduce a cold-start node")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--dim", type=int, default=16,
                   help="embedding dim for seeded random tables")
    p.add_argument("--max-batch", type=int, default=32)
    p.add_argument("--flush-interval", type=float, default=0.0,
                   help="micro-batch flush deadline in seconds (0 = "
                        "synchronous)")
    p.add_argument("--max-queue", type=int, default=256)
    p.add_argument("--compaction-threshold", type=int, default=512)
    p.add_argument("--report", default="", help="path for a JSON report")
    p.set_defaults(func=cmd_serve_sim)

    p = sub.add_parser("schemes", help="suggest metapath schemes")
    _add_common_dataset_args(p)
    p.add_argument("--relation", default="")
    p.add_argument("--max-length", type=int, default=2)
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_schemes)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", choices=sorted(_TABLES))
    p.add_argument("--profile", default="")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the correctness verification suites")
    p.add_argument("--suite", default="all",
                   choices=["all", "gradcheck", "oracles", "index",
                            "service", "concurrency", "alloc", "transfer",
                            "golden"])
    p.add_argument("--refresh-golden", action="store_true",
                   help="re-snapshot the golden corpus instead of checking it")
    p.add_argument("--refresh-alloc-budgets", action="store_true",
                   help="re-measure the canonical workloads and rewrite "
                        "benchmarks/alloc_budgets.json instead of checking it")
    p.add_argument("--datasets", default="",
                   help="comma-separated dataset subset for the golden suite")
    p.add_argument("--models", default="",
                   help="comma-separated model subset for the golden suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default="", help="path for a JSON report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check-model",
                       help="statically check a model's op graph (no training)")
    _add_common_dataset_args(p)
    from repro.check.runner import CHECKABLE_MODELS

    p.add_argument("--model", default="HybridGNN", choices=list(CHECKABLE_MODELS))
    p.add_argument("--profile", default="", help="smoke (default) or paper")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--strict", action="store_true",
                   help="treat warnings (C003-C006) as failures")
    p.add_argument("--self-test", action="store_true",
                   help="audit the seeded mis-wired HybridGNN variant instead: "
                        "the stock model must pass, the variant must be flagged")
    p.set_defaults(func=cmd_check_model)

    p = sub.add_parser("lint", help="run the project linter (AST rules R001-R017)")
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", choices=sorted(_FIGURES))
    p.add_argument("--profile", default="")
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
