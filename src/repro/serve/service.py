"""The recommendation service: store → cache → batcher → retriever.

:class:`RecommendationService` is the transport-independent core behind
the HTTP API (and directly usable in-process).  One request flows:

1. **admission** — a per-request :class:`~repro.serve.Deadline` is
   minted and the :class:`~repro.serve.AdmissionController` decides
   whether the request may enter at all (bounded in-flight, estimated-
   wait shedding → HTTP 503 + ``Retry-After``);
2. **cache** — an LRU+TTL lookup keyed on ``(user, k, explain_k)``;
   a warm hit returns immediately, touching no scoring code at all;
3. **batcher** — on a miss the request joins the micro-batch queue and
   is scored as soon as the worker is free, together with whatever else
   queued meanwhile; it waits no longer than its share of the deadline;
4. **retriever** — the flushed batch is scored in one fused pass over
   the embedding store, re-ranked, and explanations attached.

When scoring fails or times out — or the :class:`~repro.serve.
CircuitBreaker` guarding it is open — the request walks the
**degradation ladder** instead of erroring: serve-stale from the cache,
then the popularity fallback, then 503/504.  Every degraded response
carries ``"degraded": <reason>`` and cites only reviews that were
genuinely scored (protocol reference: ``docs/serving_resilience.md``).

The store is swappable under live traffic: :meth:`RecommendationService.
reload_store` validates a candidate version (manifest hashes +
factorization parity) and atomically swaps the (store, retriever) pair —
readers snapshot the pair once per request, so they see the old engine
or the new one, never a mix; a corrupt candidate is rejected and the old
engine keeps serving.

Every stage records into the service's :class:`~repro.obs.MetricsRegistry`
(request latency histograms, shed/degraded/breaker/reload counters and
gauges — family reference in ``docs/observability.md``) and emits
``serve.*`` spans on the ambient tracer when one is installed.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.obs import MetricsRegistry
from repro.obs.metrics import use_metrics
from repro.obs.trace import maybe_span

from .batcher import MicroBatcher
from .cache import TTLCache
from .resilience import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    ServerOverloaded,
    ServiceUnavailable,
)
from .retrieval import Retriever
from .store import EmbeddingStore, current_version

__all__ = ["RecommendationService", "ServeConfig"]

#: Histogram buckets for request latency (seconds) — serving targets
#: single-digit milliseconds, far below the training-flavoured defaults.
_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: Histogram buckets for micro-batch sizes (requests per flush).
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serving process (documented in ``docs/serving.md``).

    Attributes
    ----------
    top_k:
        Default recommendations per request (overridable per query).
    candidate_pool:
        Rating-sorted pool size fed to the reliability re-rank.
    explain_k / explain_pool / min_reliability:
        Explanation payload: reviews served per item, candidate pool per
        item, and the reliability floor below which a review is filtered.
    max_batch_size:
        Most requests the micro-batcher scores in one fused pass.
    cache_size / cache_ttl:
        LRU entry budget and seconds-to-live of cached results;
        ``cache_size=0`` disables caching.
    request_timeout:
        Hard ceiling (seconds) on the batch-flush wait when deadlines
        are disabled (``deadline_ms=0``).
    deadline_ms:
        Default per-request time budget in milliseconds (overridable per
        query via ``?deadline_ms=``); ``0`` disables deadlines.
    batch_share:
        Fraction of the remaining budget granted to the scoring stage;
        the rest is reserved for the degradation ladder, so a timed-out
        request can still degrade to stale/popularity inside its budget.
    max_inflight:
        Admission bound on concurrently admitted requests; excess load
        is shed with 503 + ``Retry-After``.
    breaker_failures / breaker_reset_s:
        Circuit breaker: consecutive scoring failures that trip it open,
        and seconds before it lets a half-open probe through.
    stale_on_error:
        Whether the ladder's first rung (serve-stale from the cache) is
        enabled.
    """

    top_k: int = 10
    candidate_pool: int = 50
    explain_k: int = 2
    explain_pool: int = 5
    min_reliability: float = 0.5
    max_batch_size: int = 16
    cache_size: int = 1024
    cache_ttl: float = 30.0
    request_timeout: float = 10.0
    deadline_ms: float = 250.0
    batch_share: float = 0.7
    max_inflight: int = 64
    breaker_failures: int = 3
    breaker_reset_s: float = 5.0
    stale_on_error: bool = True


class RecommendationService:
    """Serve top-K recommendations with explanations from a store.

    Parameters
    ----------
    store:
        An :class:`EmbeddingStore`, or a path to one — a plain store
        directory or a versioned root (``CURRENT`` pointer), loaded
        mmap'd.  Paths are remembered as the default
        :meth:`reload_store` source.
    config:
        :class:`ServeConfig`; defaults serve ~millisecond warm paths.
    registry:
        Metrics sink; a fresh :class:`~repro.obs.MetricsRegistry` is
        created when omitted (exposed at ``/metrics`` by the HTTP API).
    clock:
        Injectable clock for cache/deadline/breaker (tests step time
        explicitly).
    chaos:
        Optional :class:`~repro.resilience.ChaosEngine`; its serving
        faults fire inside the scoring handler (``on_score``) and at the
        hot-reload swap point (``on_reload``).
    """

    def __init__(
        self,
        store,
        config: Optional[ServeConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        clock=time.monotonic,
        chaos=None,
    ) -> None:
        self._store_source: Optional[Path] = None
        if not isinstance(store, EmbeddingStore):
            self._store_source = Path(store)
            store = EmbeddingStore.load(store)
        self.config = config or ServeConfig()
        self.registry = registry or MetricsRegistry()
        self.chaos = chaos
        # The swappable engine: requests snapshot this tuple exactly once,
        # so a concurrent reload_store swap is atomic from their view.
        self._engine: Tuple[EmbeddingStore, Retriever] = (
            store, self._make_retriever(store)
        )
        self.cache: Optional[TTLCache] = None
        if self.config.cache_size > 0:
            self.cache = TTLCache(
                max_size=self.config.cache_size,
                ttl=self.config.cache_ttl or None,
                clock=clock,
            )
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight, clock=clock
        )
        self.batcher = MicroBatcher(
            self._score_batch,
            max_batch_size=self.config.max_batch_size,
            on_flush=self._record_flush,
        )
        self._started = clock()
        self._clock = clock
        self._score_calls = 0
        self._last_reload: Optional[Dict] = None
        self._watcher: Optional[threading.Thread] = None
        self._watcher_stop = threading.Event()

        reg = self.registry
        self._requests = reg.counter(
            "repro_serve_requests_total",
            "Requests served, by endpoint and outcome",
            labels=("endpoint", "status"),
        )
        self._latency = reg.histogram(
            "repro_serve_request_seconds",
            "End-to-end request latency (seconds)",
            labels=("endpoint",),
            buckets=_LATENCY_BUCKETS,
        )
        self._cache_events = reg.counter(
            "repro_serve_cache_events_total",
            "Result-cache lookups, by outcome",
            labels=("result",),
        )
        self._batch_sizes = reg.histogram(
            "repro_serve_batch_size",
            "Requests per micro-batch flush",
            buckets=_BATCH_BUCKETS,
        )
        self._flushes = reg.counter(
            "repro_serve_batch_flushes_total",
            "Micro-batch flushes, by trigger",
            labels=("reason",),
        )
        self._fallbacks = reg.counter(
            "repro_serve_fallbacks_total",
            "Requests degraded to the popularity fallback",
        )
        self._shed = reg.counter(
            "repro_serve_shed_total",
            "Requests shed by admission control, by reason",
            labels=("reason",),
        )
        self._degraded_total = reg.counter(
            "repro_serve_degraded_total",
            "Requests answered by a degradation-ladder rung, by mode",
            labels=("mode",),
        )
        self._deadline_total = reg.counter(
            "repro_serve_deadline_exceeded_total",
            "Requests that blew their deadline budget, by stage",
            labels=("stage",),
        )
        self._errors = reg.counter(
            "repro_serve_errors_total",
            "Request errors, by endpoint and kind",
            labels=("endpoint", "kind"),
        )
        self._reloads = reg.counter(
            "repro_serve_store_reloads_total",
            "Store hot-reload attempts, by outcome",
            labels=("outcome",),
        )
        self._breaker_gauge = reg.gauge(
            "repro_serve_breaker_state",
            "Scoring circuit breaker state (0=closed, 1=open, 2=half-open)",
        )
        self._inflight_gauge = reg.gauge(
            "repro_serve_inflight", "Requests currently admitted"
        )
        self._version_gauge = reg.gauge(
            "repro_serve_store_version",
            "Numeric version of the live store (0 when unversioned)",
        )
        self._rows_gauge = reg.gauge(
            "repro_serve_store_rows", "Embedding-store table sizes", labels=("table",)
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            reset_after=self.config.breaker_reset_s,
            clock=clock,
            on_state_change=self._on_breaker_change,
        )
        self._breaker_gauge.labels().set(0)
        self._inflight_gauge.labels().set(0)
        self._export_store_gauges(store)

    # -- engine snapshot accessors -------------------------------------
    @property
    def store(self) -> EmbeddingStore:
        """The live store (callers wanting consistency snapshot ``_engine``)."""
        return self._engine[0]

    @property
    def retriever(self) -> Retriever:
        return self._engine[1]

    def _make_retriever(self, store: EmbeddingStore) -> Retriever:
        return Retriever(
            store,
            candidate_pool=self.config.candidate_pool,
            explain_pool=self.config.explain_pool,
            min_reliability=self.config.min_reliability,
        )

    # ------------------------------------------------------------------
    def recommend(
        self,
        user_id: int,
        k: Optional[int] = None,
        explain_k: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> Dict:
        """Top-K for ``user_id`` with explanation payloads.

        Returns a JSON-ready dict; ``served_from`` reports the path
        taken (``cache`` / ``model`` / ``stale_cache`` / ``fallback``)
        and ``degraded`` is ``None`` on the healthy path or the ladder
        rung that answered.  Unknown users get the popularity fallback
        instead of an error.  Raises :class:`ServerOverloaded` (shed),
        :class:`DeadlineExceeded` (budget blown, no rung available), or
        :class:`ServiceUnavailable` (every rung failed).
        """
        k = self.config.top_k if k is None else int(k)
        explain_k = self.config.explain_k if explain_k is None else int(explain_k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        user_id = int(user_id)
        budget_ms = self.config.deadline_ms if deadline_ms is None else float(
            deadline_ms
        )
        if deadline_ms is not None and budget_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {deadline_ms}")
        deadline = (
            Deadline(budget_ms / 1000.0, clock=self._clock)
            if budget_ms > 0
            else None
        )
        start = time.perf_counter()
        try:
            self.admission.acquire(deadline)
        except ServerOverloaded as exc:
            self._shed.labels(reason=exc.reason).inc()
            self._finish("recommend", "shed", start)
            raise
        self._inflight_gauge.labels().set(self.admission.inflight)
        try:
            with maybe_span("serve.request", kind="serve", user=user_id, k=k):
                return self._recommend_admitted(
                    user_id, k, explain_k, deadline, start
                )
        finally:
            self.admission.release(time.perf_counter() - start)
            self._inflight_gauge.labels().set(self.admission.inflight)

    def _recommend_admitted(
        self,
        user_id: int,
        k: int,
        explain_k: int,
        deadline: Optional[Deadline],
        start: float,
    ) -> Dict:
        store, retriever = self._engine  # one snapshot: old xor new, never a mix
        if not store.knows_user(user_id):
            try:
                recs = retriever.popular_items(k, explain_k)
            except Exception as exc:
                self.record_error("recommend", "fallback")
                raise ServiceUnavailable(
                    f"popularity fallback failed: {exc}"
                ) from exc
            self._fallbacks.labels().inc()
            payload = self._payload(
                user_id, k, recs, served_from="fallback", fallback="popularity"
            )
            self._finish("recommend", "fallback", start)
            return payload
        key = (user_id, k, explain_k)
        if self.cache is not None:
            with maybe_span("serve.cache", kind="serve"):
                hit, cached = self.cache.get(key)
            self._cache_events.labels(result="hit" if hit else "miss").inc()
            if hit:
                payload = self._payload(user_id, k, cached, served_from="cache")
                self._finish("recommend", "hit", start)
                return payload
        failure: Optional[Tuple[str, BaseException]] = None
        if self.breaker.allow():
            try:
                recs = self._score_with_deadline((user_id, k, explain_k), deadline)
            except DeadlineExceeded as exc:
                self.breaker.record_failure()
                self._deadline_total.labels(stage=exc.stage).inc()
                failure = ("timeout", exc)
            except Exception as exc:
                self.breaker.record_failure()
                self.record_error("recommend", type(exc).__name__)
                failure = ("fault", exc)
            else:
                self.breaker.record_success()
                if self.cache is not None:
                    self.cache.put(key, recs)
                payload = self._payload(user_id, k, recs, served_from="model")
                self._finish("recommend", "miss", start)
                return payload
        else:
            failure = ("breaker_open", ServiceUnavailable("circuit breaker open"))
        return self._degrade(user_id, k, explain_k, key, retriever, failure, start)

    def _score_with_deadline(self, request, deadline: Optional[Deadline]):
        """Submit to the batcher, bounding the wait by the budget share."""
        if deadline is None:
            future = self.batcher.submit(request)
            try:
                return future.result(timeout=self.config.request_timeout)
            except _FutureTimeout:
                future.cancel()
                raise DeadlineExceeded("scoring", self.config.request_timeout)
        share = min(max(self.config.batch_share, 0.05), 1.0)
        budget = deadline.remaining() * share
        if budget <= 0:
            raise DeadlineExceeded("scoring", deadline.budget)
        future = self.batcher.submit(
            request, deadline=Deadline(budget, clock=self._clock)
        )
        try:
            # Small grace on top of the budget: the batcher scores the
            # item as soon as its worker is free, or fails it unscored once
            # the budget is gone, so the future normally resolves first.
            return future.result(timeout=budget + 0.05)
        except _FutureTimeout:
            future.cancel()
            raise DeadlineExceeded("scoring", deadline.budget)

    def _degrade(
        self,
        user_id: int,
        k: int,
        explain_k: int,
        key,
        retriever: Retriever,
        failure: Tuple[str, BaseException],
        start: float,
    ) -> Dict:
        """Walk the ladder: stale cache → popularity → 503/504.

        Every rung's payload carries ``degraded=<mode>`` and cites only
        genuinely scored reviews: stale entries were scored before they
        aged out, and popularity explanations come from the store's
        precomputed per-review predictions (fail-soft to ``[]``).
        """
        kind, exc = failure
        if self.config.stale_on_error and self.cache is not None:
            found, recs = self.cache.get_stale(key)
            if found:
                self._degraded_total.labels(mode="stale_cache").inc()
                payload = self._payload(
                    user_id, k, recs, served_from="stale_cache",
                    degraded="stale_cache",
                )
                self._finish("recommend", "degraded", start)
                return payload
        try:
            recs = retriever.popular_items(k, explain_k)
        except Exception:
            recs = None
        if recs is not None:
            self._degraded_total.labels(mode="popularity").inc()
            self._fallbacks.labels().inc()
            payload = self._payload(
                user_id, k, recs, served_from="fallback",
                fallback="popularity", degraded="popularity",
            )
            self._finish("recommend", "degraded", start)
            return payload
        self._degraded_total.labels(mode="none").inc()
        if kind == "timeout":
            self._finish("recommend", "deadline", start)
            raise exc
        self._finish("recommend", "unavailable", start)
        if isinstance(exc, ServiceUnavailable):
            raise exc
        raise ServiceUnavailable(f"scoring path down ({kind}: {exc})") from exc

    def explain(self, item_id: int, k: Optional[int] = None) -> Dict:
        """Explanation payload for one item (no user context needed).

        ``k=0`` asks for no citations; a negative ``k`` is a
        ``ValueError`` (HTTP 400).
        """
        k = self.config.explain_k if k is None else int(k)
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        start = time.perf_counter()
        item_id = int(item_id)
        store, retriever = self._engine
        if not 0 <= item_id < store.num_items:
            self._finish("explain", "bad_item", start)
            raise IndexError(
                f"item_id {item_id} outside [0, {store.num_items})"
            )
        with maybe_span("serve.explain", kind="serve", item=item_id):
            explanations = retriever.explain(item_id, k)
        self._finish("explain", "ok", start)
        return {
            "item_id": item_id,
            "item_name": store.item_name(item_id),
            "explanations": explanations,
        }

    def health(self) -> Dict:
        """Liveness payload: breaker/admission state, store shape, cache."""
        store = self.store
        breaker_state = self.breaker.state
        payload = {
            "status": "ok" if breaker_state == CircuitBreaker.CLOSED else "degraded",
            "dataset": store.meta.get("dataset"),
            "users": store.num_users,
            "items": store.num_items,
            "reviews": store.num_reviews,
            "uptime_seconds": self._clock() - self._started,
            "breaker": {
                "state": breaker_state,
                "code": CircuitBreaker.STATE_CODES[breaker_state],
                "failures": self.breaker.failures,
            },
            "inflight": self.admission.inflight,
            "max_inflight": self.admission.max_inflight,
            "store_version": store.path.name if store.path else None,
            "last_reload": self._last_reload,
        }
        if self.cache is not None:
            payload["cache"] = self.cache.stats.to_dict()
        return payload

    # -- store hot-reload ----------------------------------------------
    def reload_store(self, path=None) -> Dict:
        """Validate and atomically swap in a new store version.

        ``path`` defaults to the path the service was constructed from
        (typically a versioned root whose ``CURRENT`` pointer moved).
        The candidate is fully validated *before* the swap — manifest
        hash check, shape validation, factorization parity sample — so a
        corrupt or partial store is rejected while the old engine keeps
        serving (rollback is the default, not an action).  The swap
        itself is one reference assignment; in-flight requests that
        already snapshotted the old engine finish on it.

        Returns a summary dict; raises :class:`~repro.serve.StoreCorrupt`
        (or the underlying error) on a rejected candidate.
        """
        source = Path(path) if path is not None else self._store_source
        if source is None:
            raise ValueError(
                "no reload source: service was built from an in-memory store; "
                "pass reload_store(path=...)"
            )
        old_version = self.store.path.name if self.store.path else None
        outcome = "rejected"
        try:
            new_store = EmbeddingStore.load(source, verify=True)
            if self.chaos is not None:
                self.chaos.on_reload("swap")
            self._engine = (new_store, self._make_retriever(new_store))
            outcome = "ok"
        except BaseException as exc:
            self._last_reload = {
                "outcome": "rejected",
                "error": f"{type(exc).__name__}: {exc}",
                "kept_version": old_version,
                "at_uptime": self._clock() - self._started,
            }
            raise
        finally:
            self._reloads.labels(outcome=outcome).inc()
        if self.cache is not None:
            # Old-store results (and their review citations) must not
            # outlive the store that scored them.
            self.cache.clear()
        self._export_store_gauges(new_store)
        self._last_reload = {
            "outcome": "ok",
            "from_version": old_version,
            "version": new_store.path.name if new_store.path else None,
            "at_uptime": self._clock() - self._started,
        }
        return dict(self._last_reload)

    def start_store_watcher(self, interval: float = 2.0) -> None:
        """Poll the versioned root's ``CURRENT`` pointer; reload on change.

        Failed reloads (corrupt candidate) are recorded in metrics and
        ``health()['last_reload']`` and retried on the next poll; the
        old engine keeps serving throughout.
        """
        if self._store_source is None:
            raise ValueError("store watcher needs a path-constructed service")
        if self._watcher is not None:
            return
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")

        def _watch() -> None:
            while not self._watcher_stop.wait(interval):
                try:
                    live = current_version(self._store_source)
                    loaded = self.store.path.name if self.store.path else None
                    if live is not None and live != loaded:
                        self.reload_store()
                except Exception:
                    continue  # rejected candidate: counted, retried next poll

        self._watcher = threading.Thread(
            target=_watch, name="repro-serve-store-watcher", daemon=True
        )
        self._watcher.start()

    def close(self) -> None:
        """Stop the watcher, then drain and stop the batcher (idempotent)."""
        self._watcher_stop.set()
        if self._watcher is not None:
            self._watcher.join(timeout=5.0)
            self._watcher = None
        self.batcher.close()

    def __enter__(self) -> "RecommendationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def record_error(self, endpoint: str, kind: str) -> None:
        """Count one request error (also called by the HTTP layer)."""
        self._errors.labels(endpoint=endpoint, kind=kind).inc()

    def _on_breaker_change(self, old: str, new: str) -> None:
        self._breaker_gauge.labels().set(CircuitBreaker.STATE_CODES[new])

    def _export_store_gauges(self, store: EmbeddingStore) -> None:
        rows = self._rows_gauge
        rows.labels(table="users").set(store.num_users)
        rows.labels(table="items").set(store.num_items)
        rows.labels(table="reviews").set(store.num_reviews)
        version = 0
        name = store.path.name if store.path else ""
        if name.startswith("v"):
            try:
                version = int(name[1:])
            except ValueError:
                version = 0
        self._version_gauge.labels().set(version)

    def _score_batch(self, requests):
        """Micro-batcher handler: fused scoring under this registry.

        Chaos faults (slow/failing scoring) fire here, addressed by the
        scoring-call ordinal — deterministic because the batcher has a
        single worker thread.
        """
        self._score_calls += 1
        call = self._score_calls  # 1-based ordinal, matching slow_score_at
        if self.chaos is not None:
            self.chaos.on_score(call)
        retriever = self._engine[1]
        with use_metrics(self.registry):
            with maybe_span("serve.batch", kind="serve", size=len(requests)):
                return retriever.recommend_batch(requests)

    def _record_flush(self, size: int, reason: str) -> None:
        self._batch_sizes.labels().observe(size)
        self._flushes.labels(reason=reason).inc()

    def _payload(
        self,
        user_id: int,
        k: int,
        recommendations,
        served_from: str,
        fallback: Optional[str] = None,
        degraded: Optional[str] = None,
    ) -> Dict:
        return {
            "user_id": user_id,
            "k": k,
            "served_from": served_from,
            "fallback": fallback,
            "degraded": degraded,
            "recommendations": recommendations,
        }

    def _finish(self, endpoint: str, status: str, start: float) -> None:
        self._requests.labels(endpoint=endpoint, status=status).inc()
        self._latency.labels(endpoint=endpoint).observe(
            time.perf_counter() - start
        )
