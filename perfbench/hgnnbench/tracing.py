"""Span tracing from outside the program: wrap public callables, time layers.

The tracer never edits the library.  :meth:`Tracer.install` replaces a
fixed list of public functions and methods (``LAYER_TARGETS``) with thin
wrappers that record a span — name, start, end, parent span, operation id,
thread — and :meth:`Tracer.uninstall` puts the originals back.  Spans live
in per-thread lists in memory and are read out once, after the run.

A layer's *self time* is its span's duration minus the durations of the
spans directly inside it (:func:`self_times`).  Benchmark operations (a
training step, a served request) open a root span through
:meth:`Tracer.op`; whatever self time the root keeps is time no wrapped
layer accounts for.
"""

from __future__ import annotations

import bisect
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Public callables wrapped per layer, as ``module:Qualified.attribute``.
#: Module-level functions are wrapped where their caller looks them up.
LAYER_TARGETS: Dict[str, Tuple[str, ...]] = {
    "sampling.walks": ("repro.core.trainer:relationship_walk_matrix",),
    "sampling.pairs": ("repro.core.trainer:context_pairs",),
    "sampling.negatives": (
        "repro.sampling.negative:UnigramNegativeSampler.sample_like",),
    "sampling.neighbors": (
        "repro.sampling.neighbor_sampler:MetapathNeighborSampler.sample_layers",),
    "core.batching": ("repro.core.trainer:SkipGramTrainer.make_batches",),
    "core.flows": ("repro.core.hybrid_aggregation:MetapathFlow.forward",
                   "repro.core.hybrid_aggregation:ExplorationFlow.forward"),
    "core.aggregate": ("repro.core.hybrid_aggregation:aggregate_layers",),
    "core.metapath_attention": (
        "repro.core.hierarchical_attention:MetapathLevelAttention.forward",),
    "core.relationship_attention": (
        "repro.core.hierarchical_attention:RelationshipLevelAttention.forward",),
    "core.forward": ("repro.core.model:HybridGNN.forward",),
    "core.loss": ("repro.core.trainer:skip_gram_loss",),
    "nn.backward": ("repro.nn.tensor:Tensor.backward",),
    "nn.optimizer": ("repro.nn.optim:Adam.step", "repro.nn.optim:Adam.zero_grad"),
    "serving.topk": ("repro.serving.engine:BatchServingEngine.topk_batch",),
    "serving.similar": ("repro.serving.engine:BatchServingEngine.similar_topk",),
    "serving.refresh": ("repro.serving.engine:BatchServingEngine.refresh_topology",),
    "serving.deltas.csr": ("repro.serving.deltas:DeltaGraphView.csr",),
    "serving.deltas.add_edge": ("repro.serving.deltas:DeltaGraphView.add_edge",),
    "serving.deltas.compact": ("repro.serving.deltas:DeltaGraphView.compact",),
}

#: Layers recorded only on a cache miss / a full-graph embedding fill.
CACHE_FILL_TARGET = "repro.serving.engine:RelationEmbeddingCache.table"
EMBED_TARGET = "repro.core.model:HybridGNN.node_embeddings"
INVALIDATE_TARGET = "repro.core.model:HybridGNN.invalidate_cache"

#: Engine entry points whose spans carry ``(relation, sources)``.
ENGINE_LAYERS = ("serving.topk", "serving.similar")


class Span:
    """One timed call.  ``parent`` is the enclosing span in the same thread."""

    __slots__ = ("name", "start", "end", "parent", "op", "thread", "info")

    def __init__(self, name, start, parent, op, thread, info):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, index: Dict[int, int]) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": index.get(id(self.parent)) if self.parent else None,
            "op": self.op,
            "thread": self.thread,
        }


def _resolve(target: str) -> Tuple[object, str]:
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def patch(target: str, make: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``target`` with ``make(original)``; returns the undo."""
    owner, attr = _resolve(target)
    original = getattr(owner, attr)
    # An inherited method is restored by deleting the override.
    owned = not isinstance(owner, type) or attr in owner.__dict__
    setattr(owner, attr, make(original))

    def undo() -> None:
        if owned:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
    return undo


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self):
        self._local = threading.local()
        self._buffers: List[List[Span]] = []
        self._buffers_lock = threading.Lock()
        self._patches: List[Callable[[], None]] = []
        self._next_op = 0
        self.ops: Dict[int, str] = {}
        # (id(model), relation) pairs whose embedding table is resident;
        # a node_embeddings call outside this set is a full-graph fill.
        # Kept across install/uninstall: it must have seen every fill, so
        # tables filled while tracing was off are invalidated (a training
        # step) or filled under tracing (a traced set-up) before use.
        self._embedded: set = set()

    # -- recording -----------------------------------------------------
    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = None
            local.spans = []
            with self._buffers_lock:
                self._buffers.append(local.spans)
        return local

    def begin(self, name: str, info=None) -> Span:
        local = self._thread_state()
        parent = local.stack[-1] if local.stack else None
        span = Span(name, time.perf_counter(), parent, local.op,
                    threading.get_ident(), info)
        local.stack.append(span)
        local.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str, info=None):
        span = self.begin(name, info)
        try:
            yield span
        finally:
            self.end(span)

    @contextmanager
    def op(self, kind: str, info=None):
        """Root span of one benchmark operation; nested spans share its id."""
        local = self._thread_state()
        with self._buffers_lock:
            op_id = self._next_op
            self._next_op += 1
        self.ops[op_id] = kind
        previous, local.op = local.op, op_id
        try:
            with self.span("op." + kind, info) as span:
                yield span
        finally:
            local.op = previous

    def spans(self) -> List[Span]:
        with self._buffers_lock:
            merged = [span for buffer in self._buffers for span in buffer]
        merged.sort(key=lambda span: span.start)
        return merged

    # -- patching --------------------------------------------------------
    def _plain(self, layer: str, fn: Callable) -> Callable:
        tracer = self
        if layer in ENGINE_LAYERS:
            def wrapper(engine, sources, relation, *args, **kwargs):
                span = tracer.begin(layer, (relation, tuple(map(int, sources))))
                try:
                    return fn(engine, sources, relation, *args, **kwargs)
                finally:
                    tracer.end(span)
        else:
            def wrapper(*args, **kwargs):
                span = tracer.begin(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end(span)
        wrapper.__wrapped__ = fn
        return wrapper

    def _cache_fill(self, fn: Callable) -> Callable:
        tracer = self

        def table(cache, relation):
            if relation in cache.cached_relations:
                return fn(cache, relation)
            span = tracer.begin("serving.cache_fill")
            try:
                return fn(cache, relation)
            finally:
                tracer.end(span)
        return table

    def _embed(self, fn: Callable) -> Callable:
        tracer = self

        def node_embeddings(model, nodes, relation, *args, **kwargs):
            key = (id(model), relation)
            if key in tracer._embedded:
                return fn(model, nodes, relation, *args, **kwargs)
            span = tracer.begin("eval.embed", model.graph.num_nodes)
            try:
                return fn(model, nodes, relation, *args, **kwargs)
            finally:
                tracer.end(span)
                tracer._embedded.add(key)
        return node_embeddings

    def _invalidate(self, fn: Callable) -> Callable:
        tracer = self

        def invalidate_cache(model):
            tracer._embedded = {
                key for key in tracer._embedded if key[0] != id(model)
            }
            return fn(model)
        return invalidate_cache

    def install(self) -> None:
        """Wrap every layer target; idempotent."""
        if self._patches:
            return
        for layer, targets in LAYER_TARGETS.items():
            for target in targets:
                self._patches.append(
                    patch(target, lambda fn, layer=layer: self._plain(layer, fn)))
        self._patches.append(patch(CACHE_FILL_TARGET, self._cache_fill))
        self._patches.append(patch(EMBED_TARGET, self._embed))
        self._patches.append(patch(INVALIDATE_TARGET, self._invalidate))

    def uninstall(self) -> None:
        """Restore every wrapped callable, newest first."""
        while self._patches:
            self._patches.pop()()


class NullTracer:
    """Tracing off: operation and span contexts cost one call each."""

    _null = nullcontext()

    def op(self, kind: str, info=None):
        return self._null

    def span(self, name: str, info=None):
        return self._null


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``id(span) -> duration minus the durations of its direct children``."""
    inner: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            inner[id(span.parent)] += span.duration
    return {id(span): span.duration - inner[id(span)] for span in spans}


def layer_totals(spans: Sequence[Span], ops: Optional[set] = None
                 ) -> Dict[str, Tuple[int, float]]:
    """Per span name: ``(calls, total self seconds)``.

    With ``ops`` given, only spans recorded inside those operations count.
    """
    own = self_times(spans)
    totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for span in spans:
        if ops is not None and span.op not in ops:
            continue
        entry = totals[span.name]
        entry[0] += 1
        entry[1] += own[id(span)]
    return {name: (int(calls), seconds) for name, (calls, seconds) in totals.items()}


def request_waits(spans: Sequence[Span]) -> List[float]:
    """Per request: latency minus the engine work that served it.

    A read is served by the engine call (``topk_batch``/``similar_topk``)
    whose sources include the request's node, inside the request's
    interval, in whichever client thread flushed the micro-batch.  A
    write is served by the delta work its own thread ran inside it.
    """
    engine = sorted((s for s in spans if s.name in ENGINE_LAYERS),
                    key=lambda span: span.start)
    starts = [span.start for span in engine]
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None and span.parent.name == "op.request":
            children[id(span.parent)] += span.duration
    kinds = {"recommend": "serving.topk", "similar": "serving.similar"}
    waits = []
    for request in (s for s in spans if s.name == "op.request"):
        endpoint, relation, nodes = request.info
        served = children[id(request)]
        if endpoint in kinds:
            for call in engine[bisect.bisect_left(starts, request.start):]:
                if call.start > request.end:
                    break
                if (call.name == kinds[endpoint] and call.start >= request.start
                        and call.end <= request.end and call.info[0] == relation
                        and nodes[0] in call.info[1]):
                    served = call.duration
                    break
        waits.append(max(0.0, request.duration - served))
    return waits


def spans_to_json(spans: Sequence[Span]) -> List[Dict[str, object]]:
    index = {id(span): i for i, span in enumerate(spans)}
    return [span.to_dict(index) for span in spans]
