"""Request micro-batching: amortize vectorized scoring across callers.

Scoring one user against the item table is a dot product; scoring
sixteen is one matmul — nearly the same wall time.  The
:class:`MicroBatcher` exploits that without a timer: concurrent callers
``submit()`` work items and block on a future; a single worker thread
takes the first queued item as soon as it arrives, adds whatever else is
already queued (up to ``max_batch_size``), and hands the batch to the
handler at once.  A lone request is scored immediately; under load, the
items that queue while one batch is scored form the next, so batches
grow exactly when there is contention to amortize.

Items whose request :class:`~repro.serve.Deadline` has expired by
dispatch time are not scored at all: their futures fail with
:class:`~repro.serve.DeadlineExceeded` and the handler only sees the
live ones — a dead request must not consume scoring capacity.

The handler receives the item list and must return one result per item,
in order; results (or the handler's exception) are routed back through
each caller's future.  Dispatch reasons and batch sizes are observable
via a per-flush callback so the service can export them as metrics.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .resilience import Deadline, DeadlineExceeded

__all__ = ["MicroBatcher"]

#: Sentinel queued to wake the worker for shutdown.
_STOP = object()


class MicroBatcher:
    """Queue + worker thread scoring whatever is queued, as soon as it is.

    Parameters
    ----------
    handler:
        ``handler(items) -> results`` with ``len(results) == len(items)``.
        Runs on the worker thread; an exception fails every future of
        that batch (the batcher itself keeps running).
    max_batch_size:
        Most items handed to one handler call.
    on_flush:
        Optional ``on_flush(size, reason)`` observer, ``reason`` in
        ``{"size", "drained", "close"}``: the batch reached
        ``max_batch_size``, the queue ran empty, or the batcher is
        closing — the metrics hook.  ``size`` counts the items actually
        handed to the handler (expired ones are failed, not scored).
    """

    def __init__(
        self,
        handler: Callable[[Sequence[Any]], Sequence[Any]],
        max_batch_size: int = 16,
        on_flush: Optional[Callable[[int, str], None]] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self.handler = handler
        self.max_batch_size = max_batch_size
        self.on_flush = on_flush
        self._queue: "queue.Queue" = queue.Queue()
        self._closed = threading.Event()
        self._worker = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    def submit(self, item: Any, deadline: Optional[Deadline] = None) -> "Future":
        """Enqueue one item; the future resolves to its handler result.

        If ``deadline`` (optional) has expired by the time the item's
        batch is dispatched, the future fails with
        :class:`DeadlineExceeded` instead of being scored.
        """
        if self._closed.is_set():
            raise RuntimeError("batcher is closed")
        future: "Future" = Future()
        self._queue.put((item, future, deadline))
        return future

    def close(self, timeout: float = 5.0) -> None:
        """Drain remaining items, stop the worker, reject new submits."""
        if self._closed.is_set():
            return
        self._closed.set()
        self._queue.put(_STOP)
        self._worker.join(timeout=timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            batch = [self._queue.get()]
            while batch[-1] is not _STOP and len(batch) < self.max_batch_size:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            if batch[-1] is _STOP:
                self._dispatch(batch[:-1] + self._drain(), "close")
                return
            reason = "size" if len(batch) == self.max_batch_size else "drained"
            self._dispatch(batch, reason)

    def _drain(self) -> List[Tuple]:
        """Everything still queued at close time."""
        leftovers: List[Tuple] = []
        while True:
            try:
                entry = self._queue.get_nowait()
            except queue.Empty:
                return leftovers
            if entry is not _STOP:
                leftovers.append(entry)

    def _dispatch(self, batch: List[Tuple], reason: str) -> None:
        live: List[Tuple] = []
        for item, future, deadline in batch:
            if deadline is not None and deadline.expired():
                # Dead on arrival at dispatch: fail fast, don't score.
                if not future.done():
                    future.set_exception(
                        DeadlineExceeded("batch flush", deadline.budget)
                    )
            else:
                live.append((item, future))
        if not live:
            return
        items = [item for item, _ in live]
        futures = [future for _, future in live]
        if self.on_flush is not None:
            try:
                self.on_flush(len(live), reason)
            except Exception:  # observer must never break serving
                pass
        try:
            results = self.handler(items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"handler returned {len(results)} results for {len(items)} items"
                )
        except BaseException as exc:
            for future in futures:
                if not future.done():
                    future.set_exception(exc)
            return
        for future, result in zip(futures, results):
            if not future.done():
                future.set_result(result)
