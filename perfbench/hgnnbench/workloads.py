"""The four HybridGNN workloads: two training loops and two served traffic mixes.

Every workload is a closed loop: each client issues its next operation
only after the previous one returned.  A workload object knows how to set
the program up from a seed, how to fingerprint its inputs, how to run its
measured loop for a number of seconds, and how to check what came out.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import HybridGNN, HybridGNNConfig, SkipGramTrainer, TrainerConfig
from repro.datasets import load_dataset, split_edges
from repro.errors import QueueFullError
from repro.eval import evaluate_link_prediction
from repro.serving import RecommendService, ServiceConfig, generate_trace

from hgnnbench.record import batches_fingerprint, graph_fingerprint, trace_fingerprint
from hgnnbench.stats import OpLog
from hgnnbench.tracing import patch

#: Seed whose inputs are fingerprinted in ``fingerprints.json``.
CANONICAL_SEED = 0
DATASET = "taobao-xl"


def child_seeds(seed: int, count: int) -> List[int]:
    """Independent integer seeds derived from the run seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


class Workload:
    """Base: a named closed loop with a set-up, a measured phase and checks."""

    name = ""
    why = ""
    stresses: Tuple[str, ...] = ()
    op_kind = "op"
    #: Set-ups per run; ``setup_s`` is their median.  The first uses the
    #: canonical seed (fingerprint check), the rest the run's seed.
    setup_repeats = 3
    #: Extra run-seed set-ups after the measured loop, so a short-lived
    #: host disturbance cannot move every sample of a cheap set-up.
    trailing_setups = 0

    def setup(self, seed: int, tracer):
        raise NotImplementedError

    def prepare(self, state, seed: int) -> None:
        """Build client-side inputs (traces) outside the set-up timer."""

    def fingerprint(self, state) -> Dict[str, str]:
        raise NotImplementedError

    def probe(self, state):
        """Reference output from a same-seed twin, for determinism checks."""
        return None

    def measure(self, state, seconds: float, tracer) -> OpLog:
        raise NotImplementedError

    def check(self, state, reference) -> List[str]:
        return []

    def summary(self, state, log: OpLog) -> Dict[str, Tuple[float, str]]:
        """Workload-specific figures for the human-readable report."""
        return {}

    def layer_probe(self, state) -> Dict[str, float]:
        """Per-layer figures measured outside the traced phase."""
        return {}


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
@dataclass
class TrainState:
    dataset: object
    split: object
    model: HybridGNN
    trainer: SkipGramTrainer
    pairs: Optional[Dict[str, np.ndarray]] = None
    losses: List[float] = field(default_factory=list)
    val_scores: List[float] = field(default_factory=list)


class _Training(Workload):
    op_kind = "step"
    scale = 1.0
    model_config = HybridGNNConfig()
    trainer_config = TrainerConfig()
    #: Steps compared against the same-seed twin.
    determinism_steps = 3
    #: ``loss_final`` is the mean loss of steps [loss_end - 8, loss_end),
    #: a fixed window every run reaches, so it is deterministic per seed.
    loss_end = 8

    def setup(self, seed: int, tracer) -> TrainState:
        with tracer.span("datasets.generate"):
            dataset = load_dataset(DATASET, scale=self.scale, seed=seed)
        with tracer.span("datasets.split"):
            split = split_edges(dataset.graph, rng=seed)
        schemes = dataset.all_schemes()
        model = HybridGNN(split.train_graph, schemes, self.model_config, rng=seed)
        trainer = SkipGramTrainer(model, schemes, split, self.trainer_config, rng=seed)
        return TrainState(dataset, split, model, trainer)

    def _step(self, state: TrainState, batch, log: OpLog, tracer) -> None:
        start = time.perf_counter()
        with tracer.op("step"):
            loss = state.trainer.apply_updates([batch])
        log.record(time.perf_counter() - start, work=len(batch[1]), kind="step")
        state.losses.append(loss)

    def _first_batches(self, state: TrainState):
        raise NotImplementedError

    def fingerprint(self, state: TrainState) -> Dict[str, str]:
        return {
            "graph": graph_fingerprint(state.dataset.graph),
            "inputs": batches_fingerprint(self._first_batches(state)),
        }

    def probe(self, state: TrainState) -> List[float]:
        batches = self._first_batches(state)
        return [
            state.trainer.apply_updates([batch])
            for batch in batches[: self.determinism_steps]
        ]

    def check(self, state: TrainState, reference) -> List[str]:
        problems = []
        losses = state.losses
        if not all(math.isfinite(loss) for loss in losses):
            problems.append("a training loss is not finite")
        if losses[: len(reference)] != reference:
            problems.append(
                f"same-seed runs disagree: losses {losses[:len(reference)]} "
                f"against {reference}"
            )
        if len(losses) < self.loss_end:
            problems.append(f"only {len(losses)} steps ran, fewer than {self.loss_end}")
        return problems

    def summary(self, state: TrainState, log: OpLog):
        window = state.losses[self.loss_end - 8: self.loss_end]
        return {"loss_final": (float(np.mean(window)), "loss")}

    def layer_probe(self, state: TrainState) -> Dict[str, float]:
        """Backward allocation peak and Adam's useful-row share, 2 steps."""
        peaks: List[int] = []
        rows = [0, 0]

        def traced_backward(backward):
            def wrapper(tensor, *args, **kwargs):
                tracemalloc.start()
                try:
                    return backward(tensor, *args, **kwargs)
                finally:
                    peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            return wrapper

        def counted_step(step):
            def wrapper(optimizer):
                for param in optimizer.params:
                    if param.grad is None:
                        continue
                    grad = param.grad.reshape(param.grad.shape[0], -1) \
                        if param.grad.ndim else param.grad.reshape(1, 1)
                    rows[0] += int(np.count_nonzero(grad.any(axis=1)))
                    rows[1] += grad.shape[0]
                return step(optimizer)
            return wrapper

        restore = [patch("repro.nn.tensor:Tensor.backward", traced_backward),
                   patch("repro.nn.optim:Adam.step", counted_step)]
        try:
            for batch in self._first_batches(state)[:2]:
                state.trainer.apply_updates([batch])
        finally:
            for undo in reversed(restore):
                undo()
        return {
            "nn.backward_alloc_peak_mb": max(peaks) / 2**20,
            "nn.adam_useful_rows_ratio": rows[0] / rows[1],
        }


class TrainSmall(_Training):
    name = "train-small"
    why = ("460-node HybridGNN epochs (walks, pairs, batches, steps, validation): "
           "op dispatch dominates a step and Adam is small, the control for O(|V|) fixes")
    stresses = ("sampling.walks", "sampling.pairs", "sampling.negatives",
                "sampling.neighbors", "core.flows", "core.aggregate",
                "core.metapath_attention", "core.relationship_attention",
                "core.forward", "core.loss", "nn.backward", "eval.validation")
    scale = 0.00046
    # One walk per node and scheme, epochs capped at 48 batches: an epoch
    # is a few seconds, so every run holds several whole epochs.
    trainer_config = TrainerConfig(num_walks=1, max_batches_per_epoch=48)
    setup_repeats = 7
    trailing_setups = 6
    loss_end = 48

    def _first_batches(self, state: TrainState):
        return state.trainer.make_batches(state.trainer.generate_pairs())

    def measure(self, state: TrainState, seconds: float, tracer) -> OpLog:
        """Whole epochs until ``seconds`` have passed (at least one)."""
        log = OpLog()
        start = time.perf_counter()
        while True:
            epoch_start, epoch_work = time.perf_counter(), log.work
            pairs = state.trainer.generate_pairs()
            for batch in state.trainer.make_batches(pairs):
                self._step(state, batch, log, tracer)
            with tracer.span("eval.validation"):
                report = evaluate_link_prediction(state.model, state.split.val)
            state.val_scores.append(report["roc_auc"])
            now = time.perf_counter()
            log.windows.append((log.work - epoch_work, now - epoch_start))
            if now - start >= seconds:
                break
        log.elapsed = time.perf_counter() - start
        return log

    def check(self, state: TrainState, reference) -> List[str]:
        problems = super().check(state, reference)
        first, last = np.mean(state.losses[:8]), np.mean(state.losses[40:48])
        if not last < 0.9 * first:
            problems.append(
                f"the first epoch did not learn: loss {first:.4f} -> {last:.4f}"
            )
        if not all(math.isfinite(score) for score in state.val_scores):
            problems.append("a validation ROC-AUC is not finite")
        return problems

    def summary(self, state: TrainState, log: OpLog):
        out = super().summary(state, log)
        out["val_roc_auc_epoch1"] = (state.val_scores[0], "%")
        return out


class TrainLarge(_Training):
    name = "train-large"
    why = ("3e4-node HybridGNN steps after one sample stage: every step rewrites "
           "all |V| rows in Adam and backward, the O(|V|) cost")
    stresses = ("nn.optimizer", "nn.backward", "core.batching")
    # 3e4 nodes, not 1e5: Adam is still about two thirds of a step, and
    # at 1e5 its working set made run-to-run spread twice as wide.
    scale = 0.03
    # One walk per node and scheme keeps the sample stage small; a run
    # re-batches only if it outruns 1024 steps.
    trainer_config = TrainerConfig(num_walks=1, max_batches_per_epoch=1024)
    determinism_steps = 2

    def setup(self, seed: int, tracer) -> TrainState:
        state = super().setup(seed, tracer)
        state.pairs = state.trainer.generate_pairs()
        return state

    def _first_batches(self, state: TrainState):
        return state.trainer.make_batches(state.pairs)

    def measure(self, state: TrainState, seconds: float, tracer) -> OpLog:
        """``make_batches`` then single-batch steps until time is up."""
        log = OpLog()
        start = time.perf_counter()
        done = False
        while not done:
            for batch in state.trainer.make_batches(state.pairs):
                self._step(state, batch, log, tracer)
                if (time.perf_counter() - start >= seconds
                        and len(state.losses) >= self.loss_end):
                    done = True
                    break
        log.elapsed = time.perf_counter() - start
        return log


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
@dataclass
class ServeState:
    dataset: object
    split: object
    model: HybridGNN
    service: RecommendService
    traces: Dict[str, list] = field(default_factory=dict)
    positions: Dict[str, int] = field(default_factory=dict)
    sampled: Dict[int, tuple] = field(default_factory=dict)
    sample_at: frozenset = frozenset()
    feedback: List[tuple] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def _call(service: RecommendService, op):
    if op.op == "recommend":
        return service.recommend(op.nodes[0], op.relation, op.k)
    if op.op == "similar":
        return service.similar(op.nodes[0], op.relation, op.k)
    return service.feedback(op.nodes[0], op.nodes[1], op.relation)


class _Serving(Workload):
    op_kind = "request"
    scale = 0.03
    service_config = ServiceConfig()
    #: Ops per trace hashed into the fingerprint.
    fingerprint_ops = 2000
    warmup_ops = 16

    def setup(self, seed: int, tracer) -> ServeState:
        with tracer.span("datasets.generate"):
            dataset = load_dataset(DATASET, scale=self.scale, seed=seed)
        with tracer.span("datasets.split"):
            split = split_edges(dataset.graph, rng=seed)
        graph = split.train_graph
        # One sampled pass per embedding table, as a served model is loaded.
        model = HybridGNN(graph, dataset.all_schemes(),
                          HybridGNNConfig(eval_samples=1), rng=seed)
        service = RecommendService(model, graph, config=self.service_config)
        for relation in graph.schema.relationships:
            service.engine.cache.table(relation)
        warmup = generate_trace(graph, self.warmup_ops, seed=seed, read_fraction=1.0)
        for op in warmup:
            _call(service, op)
        return ServeState(dataset, split, model, service)

    def fingerprint(self, state: ServeState) -> Dict[str, str]:
        return {
            "graph": graph_fingerprint(state.dataset.graph),
            "inputs": trace_fingerprint(
                op for name in sorted(state.traces)
                for op in state.traces[name][: self.fingerprint_ops]
            ),
        }

    def _client(self, state: ServeState, name: str, cyclic: bool, log: OpLog,
                deadline: float, tracer) -> None:
        """One closed-loop client replaying its trace until ``deadline``."""
        trace = state.traces[name]
        position = state.positions.get(name, 0)
        try:
            while time.perf_counter() < deadline:
                if position >= len(trace) and not cyclic:
                    break
                index = position
                op = trace[position % len(trace)]
                position += 1
                start = time.perf_counter()
                try:
                    with tracer.op("request", (op.op, op.relation, op.nodes)):
                        result = _call(state.service, op)
                except QueueFullError:
                    log.record_failure(op.op)
                    if op.op == "feedback":
                        state.feedback.append((op, None))
                    continue
                end = time.perf_counter()
                log.record(end - start, kind=op.op, at=end)
                if op.op == "feedback":
                    state.feedback.append((op, result["accepted"]))
                elif index in state.sample_at:
                    state.sampled[index] = (op, result)
        except Exception as error:  # reported as a failed check, not a crash
            log.record_failure("error")
            state.errors.append(f"{name}: {error!r}")
        finally:
            state.positions[name] = position


class ServeRead(_Serving):
    name = "serve-read"
    why = ("one synchronous client replaying recommend/similar reads on a 3e4-node "
           "graph: scoring and top-K dominate and the delta layer is idle")
    stresses = ("serving.topk", "serving.similar")
    service_config = ServiceConfig(flush_interval=0)
    trace_ops = 20000
    checked_results = 24

    def prepare(self, state: ServeState, seed: int) -> None:
        trace_seed, sample_seed = child_seeds(seed, 2)
        state.traces["reads"] = generate_trace(
            state.split.train_graph, self.trace_ops, seed=trace_seed,
            read_fraction=1.0,
        )
        # Checked results come from the first few hundred requests, which
        # every run reaches.
        rng = np.random.default_rng(sample_seed)
        state.sample_at = frozenset(
            rng.choice(400, size=self.checked_results, replace=False).tolist()
        )

    def measure(self, state: ServeState, seconds: float, tracer) -> OpLog:
        log = OpLog()
        start = time.perf_counter()
        self._client(state, "reads", True, log, start + seconds, tracer)
        log.elapsed = time.perf_counter() - start
        log.slice_windows(start, 1.0)
        return log

    def check(self, state: ServeState, reference) -> List[str]:
        problems = list(state.errors)
        if len(state.sampled) < self.checked_results:
            problems.append(
                f"only {len(state.sampled)} of {self.checked_results} sampled "
                "results were served"
            )
        graph = state.split.train_graph
        for index, (op, served) in sorted(state.sampled.items()):
            # The replayed top-K, then the same read ranking every
            # candidate: an untrained model rarely ranks known edges in a
            # top 10, so only the full list shows that they are excluded.
            deep = dataclasses.replace(op, k=graph.num_nodes)
            for query, (ids, scores) in ((op, served), (deep, _call(state.service, deep))):
                want_ids, want_scores = brute_force(state.model, graph, query)
                if not (np.array_equal(ids, want_ids)
                        and np.allclose(scores, want_scores, rtol=1e-9, atol=0.0)):
                    problems.append(
                        f"request {index} ({query.op} {query.nodes[0]} under "
                        f"{query.relation}, k={query.k}) differs from the brute force"
                    )
        return problems


def brute_force(model, graph, op) -> Tuple[np.ndarray, np.ndarray]:
    """Top-K of one read by full scoring over the model's table in numpy.

    Candidates are the target node type (the type of the source's first
    neighbour, or the other end of the relationship's edges for a source
    with none), minus the source and, for ``recommend``, its known
    neighbours.  Ties go to the lower node id.
    """
    node = op.nodes[0]
    table = np.asarray(model.node_embeddings(np.arange(graph.num_nodes), op.relation))
    codes = graph.node_type_codes
    scores = table @ table[node]
    if op.op == "similar":
        target = codes[node]
        norms = np.linalg.norm(table, axis=1)
        scores = scores / np.maximum(norms * np.linalg.norm(table[node]), 1e-12)
        known = np.empty(0, dtype=np.int64)
    else:
        known = graph.neighbors(node, op.relation)
        if len(known):
            target = codes[known[0]]
        else:
            src, dst = graph.edges(op.relation)
            ends = np.concatenate([dst[codes[src] == codes[node]],
                                   src[codes[dst] == codes[node]]])
            target = np.bincount(codes[ends]).argmax()
    valid = codes == target
    valid[node] = False
    valid[known] = False
    candidates = np.flatnonzero(valid)
    order = np.lexsort((candidates, -scores[candidates]))[: op.k]
    return candidates[order], scores[candidates[order]]


class ServeMixed(_Serving):
    name = "serve-mixed"
    why = ("two clients, micro-batched: one 50/50 read/write trace with 5% cold "
           "nodes and compactions beside one read-only, so deltas and waits show")
    stresses = ("serving.deltas.csr", "serving.service.wait", "serving.refresh",
                "serving.deltas.add_edge", "serving.deltas.compact")
    # The default micro-batching service; compaction every 128 accepted
    # edges so every run folds the deltas at least once.
    service_config = ServiceConfig(compaction_threshold=128)
    writer_ops = 8000
    reader_ops = 20000

    def prepare(self, state: ServeState, seed: int) -> None:
        writer_seed, reader_seed = child_seeds(seed, 2)
        graph = state.split.train_graph
        state.traces["writer"] = generate_trace(
            graph, self.writer_ops, seed=writer_seed, read_fraction=0.5,
            new_node_rate=0.05,
        )
        state.traces["reader"] = generate_trace(
            graph, self.reader_ops, seed=reader_seed, read_fraction=1.0,
        )

    def measure(self, state: ServeState, seconds: float, tracer) -> OpLog:
        logs = {"writer": OpLog(), "reader": OpLog()}
        start = time.perf_counter()
        deadline = start + seconds
        clients = [
            threading.Thread(
                target=self._client,
                args=(state, name, name == "reader", logs[name], deadline, tracer),
                name=f"client-{name}", daemon=True,
            )
            for name in logs
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=seconds + 120)
        if any(client.is_alive() for client in clients):
            raise RuntimeError("a client did not finish within two minutes")
        log = logs["writer"]
        log.merge(logs["reader"])
        log.elapsed = time.perf_counter() - start
        log.slice_windows(start, 1.0)
        return log

    def check(self, state: ServeState, reference) -> List[str]:
        problems = list(state.errors)
        expected = expected_ingestion(
            state.split.train_graph, state.feedback,
            self.service_config.compaction_threshold,
        )
        report = state.service.stats_report()
        ingestion = report["ingestion"]
        for key, value in expected["counters"].items():
            if ingestion[key] != value:
                problems.append(
                    f"ingestion counter {key} is {ingestion[key]}, the writer's "
                    f"trace implies {value}"
                )
        admitted = report["endpoints"]["feedback"]["requests"]
        if admitted != expected["admitted"]:
            problems.append(
                f"{admitted} feedback requests admitted, {expected['admitted']} sent"
            )
        if expected["mismatched"]:
            problems.append(
                f"{expected['mismatched']} feedback results disagree with the trace"
            )
        if ingestion["compactions"] < 1:
            problems.append("no compaction happened")
        return problems


def expected_ingestion(graph, feedback: Sequence[tuple], threshold: int):
    """Replay the writer's executed feedback against a plain edge set.

    Returns the ``DeltaGraphView`` counters the writer's trace implies,
    the number of admitted feedback requests, and how many per-request
    ``accepted`` flags disagree with the replay.
    """
    num_nodes = graph.num_nodes
    seen = set()
    counters = {"edges_ingested": 0, "nodes_ingested": 0,
                "duplicates_dropped": 0, "compactions": 0}
    pending = admitted = mismatched = 0
    for op, accepted in feedback:
        if accepted is None:  # rejected at admission: never applied
            continue
        admitted += 1
        u, v = op.nodes
        for node in (u, v):
            if node == num_nodes:
                num_nodes += 1
                counters["nodes_ingested"] += 1
        key = (op.relation, min(u, v), max(u, v))
        duplicate = key in seen or (
            max(u, v) < graph.num_nodes and graph.has_edge(u, v, op.relation)
        )
        if duplicate:
            counters["duplicates_dropped"] += 1
        else:
            seen.add(key)
            counters["edges_ingested"] += 1
            pending += 1
            if pending >= threshold:
                counters["compactions"] += 1
                pending = 0
        mismatched += int(bool(accepted) == duplicate)
    return {"counters": counters, "admitted": admitted, "mismatched": mismatched}


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (TrainLarge(), TrainSmall(), ServeRead(), ServeMixed())
}
