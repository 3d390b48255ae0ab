"""Benchmark-side tracing: wrap the program's public entry points.

Nothing here changes the program.  :class:`Patcher` replaces methods and
functions of the ``repro`` package, for the duration of a traced phase,
with wrappers that open a span on the program's own
:class:`repro.obs.trace.Tracer` (in-memory sink) around each call, and
restores every patched attribute on :meth:`Patcher.uninstall`.  A child
process (the serve set-up and the server) writes the tracer's events as
JSONL when it ends (:func:`write_events`); the parent reads them back
with ``repro.obs.trace.read_events``.  :func:`spans_from_events` pairs
begin and end events into spans, and :func:`training_metrics` and
:func:`serving_metrics` turn spans into the per-layer metrics listed in
``perfbench/README.md``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional
from urllib.parse import parse_qs, urlparse

import common


class Patcher:
    """The wrappers that feed :attr:`tracer`, and how to take them out."""

    def __init__(self) -> None:
        from repro.obs.trace import Tracer

        self.tracer = Tracer()
        self._local = threading.local()  # request id of the calling thread
        self._submitted: Dict[int, float] = {}  # batcher item -> submit time
        self._patches: List[tuple] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, attrs: Optional[Callable] = None) -> None:
        """Span every call of ``owner.attr`` (module function, method or classmethod).

        Each span carries the calling thread's request id as ``rid``, and
        ``attrs(*args, **kwargs)`` when given (e.g. the pairs scored).
        """
        original = vars(owner)[attr]
        tracer, local = self.tracer, self._local
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original

        @functools.wraps(func)
        def wrapped(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            with tracer.span(name, rid=getattr(local, "rid", None), **extra):
                return func(*args, **kwargs)

        self._patch(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def wrap_steps(self, module, attr: str, name: str) -> None:
        """Span each item of a batch generator: one span per training step.

        The step span opens when the batch is handed to the training loop
        and closes when the loop asks for the next one, so the forward,
        backward and optimizer calls of that step become its children.
        """
        original = vars(module)[attr]
        tracer = self.tracer

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            for step, batch in enumerate(original(*args, **kwargs), 1):
                span = tracer.begin(name, step=step)
                try:
                    yield batch
                finally:
                    tracer.end(span)

        self._patch(module, attr, wrapped)

    def wrap_batcher(self, batcher_cls, retriever_cls) -> None:
        """Span ``recommend_batch`` with its size and each item's queue wait.

        The wait runs from ``submit`` to the start of the batch holding
        the item; the waits ride on the batch span as ``wait_ms``.
        """
        submit = vars(batcher_cls)["submit"]
        batch = vars(retriever_cls)["recommend_batch"]
        tracer, submitted = self.tracer, self._submitted

        @functools.wraps(submit)
        def traced_submit(batcher, item, *args, **kwargs):
            submitted[id(item)] = time.perf_counter()
            return submit(batcher, item, *args, **kwargs)

        @functools.wraps(batch)
        def traced_batch(retriever, requests):
            now = time.perf_counter()
            queued = [submitted.pop(id(item), None) for item in requests]
            waits = [(now - t) * 1e3 for t in queued if t is not None]
            with tracer.span("serve.retrieval.batch", size=len(requests), wait_ms=waits):
                return batch(retriever, requests)

        self._patch(batcher_cls, "submit", traced_submit)
        self._patch(retriever_cls, "recommend_batch", traced_batch)

    def reset(self, keep=()) -> None:
        """Forget the events so far (a warm-up), except those named in ``keep``.

        Only call it while no wrapped call is running.
        """
        events = self.tracer.events
        events[:] = [event for event in events if event["name"] in keep]
        self._submitted.clear()

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- installation sets -----------------------------------------------
    def install_training(self) -> "Patcher":
        """Wrap the text/core/nn entry points that fit and predict reach."""
        import repro.core.trainer as trainer_module
        from repro.core import RRRE, EntityNet, RRRETrainer
        from repro.core.encoder import (
            BiLSTMReviewEncoder,
            CNNReviewEncoder,
            MeanReviewEncoder,
        )
        from repro.data import ReviewTextTable
        from repro.nn import Adam
        from repro.nn.tensor import Tensor

        self.wrap(ReviewTextTable, "build", "text.table_build")
        self.wrap(trainer_module, "train_skipgram", "text.skipgram")
        self.wrap_steps(trainer_module, "iter_batches", "core.step")
        self.wrap(RRRE, "forward", "core.forward")
        for encoder in (BiLSTMReviewEncoder, CNNReviewEncoder, MeanReviewEncoder):
            self.wrap(encoder, "forward", "core.encoder")
        self.wrap(EntityNet, "forward", "core.attention")
        self.wrap(Tensor, "backward", "nn.backward")
        self.wrap(Adam, "step", "nn.optim")
        self.wrap(RRRETrainer, "fit", "core.fit")
        self.wrap(
            RRRETrainer,
            "predict_pairs",
            "core.predict_pairs",
            attrs=lambda trainer, users, *a, **k: {"pairs": len(users)},
        )
        return self

    def install_serving(self, with_http: bool = False) -> "Patcher":
        """Wrap the serve.* entry points (and the HTTP handler in a server)."""
        from repro.serve import EmbeddingStore, MicroBatcher, Retriever, TTLCache
        from repro.serve.service import RecommendationService

        self.wrap(EmbeddingStore, "load", "serve.store.load")
        self.wrap(EmbeddingStore, "score_users", "serve.store.score")
        self.wrap(TTLCache, "get", "serve.cache.get")
        self.wrap(Retriever, "explain", "serve.retrieval.explain")
        self.wrap_batcher(MicroBatcher, Retriever)
        self.wrap(RecommendationService, "recommend", "serve.service.recommend")
        if with_http:
            from repro.serve.http import _Handler

            handle = vars(_Handler)["do_GET"]
            tracer, local = self.tracer, self._local

            @functools.wraps(handle)
            def traced_get(handler):
                local.rid = request_id(handler.path)
                try:
                    with tracer.span("serve.http.handle", rid=local.rid):
                        return handle(handler)
                finally:
                    local.rid = None

            self._patch(_Handler, "do_GET", traced_get)
        return self


def write_events(tracer, path) -> None:
    """Write an in-memory tracer's events as JSONL (``read_events`` reads them)."""
    with open(path, "w", encoding="utf-8") as fh:
        for event in tracer.events:
            fh.write(json.dumps(event, default=str) + "\n")


def request_id(path: str) -> Optional[int]:
    """The benchmark's ``rid=`` query tag of a request path (the server ignores it)."""
    rid = parse_qs(urlparse(path).query).get("rid")
    return int(rid[0]) if rid else None


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------
@dataclass
class Span:
    sid: str
    name: str
    start: float  # wall-clock seconds, from the begin event
    end: float  # start + the end event's perf_counter duration
    parent: Optional[str]
    attrs: dict


def spans_from_events(events: List[dict]) -> List[Span]:
    """Pair ``span_begin``/``span_end`` events into finished spans."""
    begun = {e["span"]: e for e in events if e.get("event") == "span_begin"}
    spans = []
    for event in events:
        if event.get("event") != "span_end" or event["span"] not in begun:
            continue
        begin = begun[event["span"]]
        spans.append(
            Span(event["span"], event["name"], begin["ts"], begin["ts"] + event["duration"],
                 event["parent"], begin["attrs"])
        )
    return spans


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Seconds of each span not covered by its child spans."""
    children: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered, cursor = 0.0, span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.sid] = span.end - span.start - covered
    return result


def span_table(spans: List[Span]) -> List[tuple]:
    """``(name, calls, total_ms, self_ms)`` per span name, by self time."""
    own = self_times(spans)
    rows: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        row = rows[span.name]
        row[0] += 1
        row[1] += (span.end - span.start) * 1e3
        row[2] += own[span.sid] * 1e3
    return sorted(((name, *row) for name, row in rows.items()), key=lambda r: -r[3])


def _under(spans: List[Span], ancestor: str) -> set:
    """Ids of the spans that have a span named ``ancestor`` above them."""
    by_sid = {span.sid: span for span in spans}
    inside = set()
    for span in spans:
        above = by_sid.get(span.parent)
        while above is not None:
            if above.name == ancestor:
                inside.add(span.sid)
                break
            above = by_sid.get(above.parent)
    return inside


def _durations(spans: List[Span], name: str, keep=None) -> List[float]:
    return [
        span.end - span.start
        for span in spans
        if span.name == name and (keep is None or span.sid in keep)
    ]


def training_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of the data/text/core/nn/store-export layers."""
    steps = len(_durations(spans, "core.step"))
    in_step = _under(spans, "core.step")
    own = self_times(spans)

    def per_step_ms(name: str) -> float:
        return sum(_durations(spans, name, in_step)) * 1e3 / max(steps, 1)

    forward_self = sum(own[s.sid] for s in spans if s.name == "core.forward" and s.sid in in_step)
    nested = _under(spans, "core.predict_pairs")
    predicts = [s for s in spans if s.name == "core.predict_pairs" and s.sid not in nested]
    predict_s = sum(s.end - s.start for s in predicts)
    pairs = sum(s.attrs["pairs"] for s in predicts)
    return {
        "data.generate_s": common.median(_durations(spans, "data.generate")),
        "text.table_build_s": sum(_durations(spans, "text.table_build")),
        "text.skipgram_s": sum(_durations(spans, "text.skipgram")),
        "core.steps": steps,
        "core.forward_ms": per_step_ms("core.forward"),
        "core.forward_self_ms": forward_self * 1e3 / max(steps, 1),
        "core.encoder_ms": per_step_ms("core.encoder"),
        "core.attention_ms": per_step_ms("core.attention"),
        "nn.backward_ms": per_step_ms("nn.backward"),
        "nn.optim_ms": per_step_ms("nn.optim"),
        "core.predict_pairs_s": predict_s,
        "core.predict_pairs": pairs,
        "core.predict_pairs_per_s": pairs / predict_s if predicts else 0.0,
        "serve.store.export_s": common.median(_durations(spans, "serve.store.export")),
    }


def serving_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of the store/batcher/retrieval/service layers."""
    batches = [s for s in spans if s.name == "serve.retrieval.batch"]
    waits = [wait for s in batches for wait in s.attrs["wait_ms"]]
    return {
        "serve.store.load_s": common.median(_durations(spans, "serve.store.load")),
        "serve.store.score_ms": 1e3 * common.median(_durations(spans, "serve.store.score")),
        "serve.batcher.wait_ms": common.median(waits),
        "serve.batcher.wait_tail_ms": common.percentile(waits, 95.0) if waits else 0.0,
        "serve.batcher.batch_size": common.mean([s.attrs["size"] for s in batches]),
        "serve.retrieval.batch_ms": 1e3 * common.median(_durations(spans, "serve.retrieval.batch")),
        "serve.retrieval.explain_ms": 1e3
        * common.median(_durations(spans, "serve.retrieval.explain")),
        "serve.service.recommend_ms": 1e3
        * common.median(_durations(spans, "serve.service.recommend")),
    }


def recommend_ms_by_request(spans: List[Span]) -> Dict[int, float]:
    """Server-side ``recommend`` milliseconds keyed by the request's ``rid``."""
    return {
        span.attrs["rid"]: (span.end - span.start) * 1e3
        for span in spans
        if span.name == "serve.service.recommend" and span.attrs.get("rid") is not None
    }
