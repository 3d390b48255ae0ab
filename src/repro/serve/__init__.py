"""``repro.serve`` — the online serving runtime.

Answers "top-K for user u, with review-level explanations" as a live
service instead of an offline table (ROADMAP item 1).  The pipeline:

* :mod:`repro.serve.store` — :func:`export_store` factors a fitted
  :class:`repro.core.RRRETrainer` into an :class:`EmbeddingStore` of
  per-entity terms (``rating = A_u + B_i + p_u . q_i``,
  ``reliability = sigmoid(a_u + c_i + b)``) plus per-review predicted
  scores, persisted as memory-mappable ``.npy`` tables — serving never
  re-encodes review text, and store pair scores are bitwise-equal to
  ``predict_pairs`` (both read the trainer's profile table).  Versioned roots (``v0001/`` + SHA-256 manifest +
  ``CURRENT`` pointer) support atomic hot-reload with validation and
  rollback (:class:`StoreCorrupt` on a rejected candidate);
* :mod:`repro.serve.retrieval` — :class:`Retriever`, dot-product
  candidate generation over the item table + the paper's
  rating→reliability re-rank (shared with the offline path via
  :func:`repro.core.rank_by_rating_then_reliability`), explanations
  attached from the precomputed review table;
* :mod:`repro.serve.cache` — :class:`TTLCache`, the LRU+TTL result
  cache in front of scoring (warm path), with a serve-stale read
  (:meth:`TTLCache.get_stale`) backing the degradation ladder;
* :mod:`repro.serve.batcher` — :class:`MicroBatcher`, queue + worker
  flushing on batch size, deadline, or per-request budget so concurrent
  cold requests share one fused scoring pass;
* :mod:`repro.serve.resilience` — :class:`Deadline` (per-request
  budgets, HTTP → batcher), :class:`AdmissionController` (bounded
  in-flight load shedding), :class:`CircuitBreaker` (closed → open →
  half-open isolation of the scoring path), and the error taxonomy
  (:class:`DeadlineExceeded` → 504, :class:`ServerOverloaded` /
  :class:`ServiceUnavailable` → 503);
* :mod:`repro.serve.service` — :class:`RecommendationService`, the
  transport-independent composition: admission → cache → batcher →
  retriever, with the degradation ladder (stale cache → popularity →
  503/504), atomic store hot-reload under traffic, metrics + tracing;
* :mod:`repro.serve.http` — the stdlib HTTP API (``/recommend``,
  ``/explain``, ``/healthz``, ``/metrics``, ``POST /reload``) with a
  structured-JSON error contract.

CLI: ``python -m repro export-embeddings`` then ``python -m repro
serve``; the full story is in ``docs/serving.md`` and
``docs/serving_resilience.md``.
"""

from .batcher import MicroBatcher
from .cache import CacheStats, TTLCache
from .http import RecommendationServer, make_server
from .resilience import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    ServerOverloaded,
    ServiceUnavailable,
)
from .retrieval import Retriever
from .service import RecommendationService, ServeConfig
from .store import (
    STORE_VERSION,
    EmbeddingStore,
    StoreCorrupt,
    current_version,
    export_store,
    read_store_manifest,
    resolve_store_path,
    set_current_version,
    validate_store,
    verify_store_manifest,
    write_store_manifest,
)

__all__ = [
    "AdmissionController",
    "CacheStats",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "EmbeddingStore",
    "MicroBatcher",
    "RecommendationServer",
    "RecommendationService",
    "Retriever",
    "STORE_VERSION",
    "ServeConfig",
    "ServerOverloaded",
    "ServiceUnavailable",
    "StoreCorrupt",
    "TTLCache",
    "current_version",
    "export_store",
    "make_server",
    "read_store_manifest",
    "resolve_store_path",
    "set_current_version",
    "validate_store",
    "verify_store_manifest",
    "write_store_manifest",
]
