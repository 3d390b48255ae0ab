"""Span-based structured tracing with a JSONL event log.

A :class:`Tracer` emits a flat stream of events — span begin/end pairs
and point events — each carrying a trace id, a span id, and the parent
span id, so one training run serializes into a single reconstructable
tree covering data generation, every epoch, evaluation, and re-ranking.

Two ways to produce spans:

* explicitly, via the context manager / decorator API::

      with tracer.span("load", kind="data", dataset="yelpchi"):
          ...

      @traced("rank.recommend", kind="rank")
      def recommend_items(...): ...

  :meth:`repro.obs.RunObserver.phase` opens its ``fit.*`` phase spans
  this way, and the run report's ``timers`` section is computed from
  their durations;

* ambiently: library code calls :func:`maybe_span` / :func:`emit_event`,
  which are no-ops (one global read + ``None`` check) unless a tracer
  was installed with :func:`use_tracer` — that is how
  ``repro.data.synthetic``, ``repro.data.catalogs``, and
  ``repro.core.recommend`` join a trace without API changes.

Events are JSON objects, one per line (JSONL), flushed eagerly so
``python -m repro watch`` can tail a live run::

    {"event": "span_begin", "ts": ..., "trace": "...", "span": "1",
     "parent": null, "name": "fit.epoch.train", "kind": "epoch", "attrs": {}}
    {"event": "span_end", ..., "duration": 3.21}
    {"event": "point", ..., "name": "epoch", "attrs": {"train_loss": 4.2}}
"""

from __future__ import annotations

import functools
import json
import threading
import time
import uuid
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from ..analysis.concurrency.locks import make_lock

__all__ = [
    "Span",
    "Tracer",
    "current_tracer",
    "emit_event",
    "maybe_span",
    "read_events",
    "set_tracer",
    "traced",
    "use_tracer",
]

class Span:
    """One open span: identity plus start time (attrs ride on the events)."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "kind", "start")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        kind: str,
        start: float,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start


class Tracer:
    """Emits span and point events to a sink, one JSON object per line.

    Parameters
    ----------
    sink:
        ``None`` → events buffer in memory (:attr:`events`);
        a path → JSONL file, line-flushed so it can be tailed.
    trace_id:
        Identity shared by every event of this tracer (random default).
    """

    def __init__(
        self,
        sink: Union[None, str, Path] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.events: List[Dict[str, Any]] = []
        self._lock = make_lock("obs.trace")
        self._counter = 0
        self._local = threading.local()
        self._file = None
        if sink is not None:
            path = Path(sink)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(path, "w", encoding="utf-8")

    # -- span stack (per thread) ---------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_id(self) -> str:
        with self._lock:
            self._counter += 1
            return str(self._counter)

    def current_span(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- emission ------------------------------------------------------
    def _emit(self, payload: Dict[str, Any]) -> None:
        # The file handle is checked *under* the lock so a concurrent
        # close() cannot yank it between the check and the write.
        with self._lock:
            if self._file is not None:
                line = json.dumps(payload, sort_keys=False, default=str)
                self._file.write(line + "\n")  # lint: allow[LOCK003] — line-flushed JSONL sink by design; the lock scope IS the write
                self._file.flush()  # lint: allow[LOCK003] — tail-ability contract: every event visible immediately
            else:
                self.events.append(payload)

    def begin(self, name: str, kind: str = "span", **attrs: Any) -> Span:
        """Open a span explicitly (prefer :meth:`span`); returns it."""
        parent = self.current_span()
        span = Span(
            trace_id=self.trace_id,
            span_id=self._next_id(),
            parent_id=parent.span_id if parent else None,
            name=name,
            kind=kind,
            start=time.perf_counter(),
        )
        self._stack().append(span)
        self._emit(
            {
                "event": "span_begin",
                "ts": time.time(),  # lint: allow[TIME001] — trace events carry wall-clock timestamps by design
                "trace": span.trace_id,
                "span": span.span_id,
                "parent": span.parent_id,
                "name": name,
                "kind": kind,
                "attrs": attrs,
            }
        )
        return span

    def end(self, span: Span, **attrs: Any) -> float:
        """Close ``span`` (and any stale children); returns its duration."""
        stack = self._stack()
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        duration = time.perf_counter() - span.start
        self._emit(
            {
                "event": "span_end",
                "ts": time.time(),  # lint: allow[TIME001] — trace events carry wall-clock timestamps by design
                "trace": span.trace_id,
                "span": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "kind": span.kind,
                "duration": duration,
                "attrs": attrs,
            }
        )
        return duration

    @contextmanager
    def span(self, name: str, kind: str = "span", **attrs: Any):
        """Context manager: a span around the ``with`` body."""
        handle = self.begin(name, kind, **attrs)
        try:
            yield handle
        finally:
            self.end(handle)

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a point event under the current span."""
        parent = self.current_span()
        self._emit(
            {
                "event": "point",
                "ts": time.time(),  # lint: allow[TIME001] — trace events carry wall-clock timestamps by design
                "trace": self.trace_id,
                "span": self._next_id(),
                "parent": parent.span_id if parent else None,
                "name": name,
                "attrs": attrs,
            }
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Flush and close the sink (idempotent, safe against live emits)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- ambient tracer ----------------------------------------------------

_current_tracer: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The ambient tracer, or ``None`` when tracing is off."""
    return _current_tracer


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` as the ambient one; returns the previous."""
    global _current_tracer
    previous = _current_tracer
    _current_tracer = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer):
    """Make ``tracer`` ambient for the duration of the ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def maybe_span(name: str, kind: str = "span", **attrs: Any):
    """A span on the ambient tracer, or a no-op context when tracing is off."""
    tracer = _current_tracer
    if tracer is None:
        return nullcontext()
    return tracer.span(name, kind, **attrs)


def emit_event(name: str, **attrs: Any) -> None:
    """A point event on the ambient tracer; silently dropped when off."""
    tracer = _current_tracer
    if tracer is not None:
        tracer.event(name, **attrs)


def traced(name: Optional[str] = None, kind: str = "span") -> Callable:
    """Decorator: run the function inside :func:`maybe_span`.

    Zero-cost when no ambient tracer is installed (one global read).
    """

    def decorate(fn: Callable) -> Callable:
        label = name or fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _current_tracer is None:
                return fn(*args, **kwargs)
            with _current_tracer.span(label, kind):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def read_events(path) -> List[Dict[str, Any]]:
    """Parse a JSONL event file; malformed/truncated lines are skipped.

    Tolerance to a trailing partial line matters because the file may be
    mid-write when tailed by ``python -m repro watch``.
    """
    events: List[Dict[str, Any]] = []
    text = Path(path).read_text(encoding="utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(event, dict):
            events.append(event)
    return events
