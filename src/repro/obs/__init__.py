"""``repro.obs`` — observability: metrics, tracing, health, reports.

The reproduction's measurement layer, in two tiers:

*Passive* (PR 1) — record what happened:

* :mod:`repro.obs.hooks` — :class:`ModuleProfiler`, opt-in per-layer
  forward/backward timing, gradient norms, activation dead-unit stats,
  and NaN/Inf guards for any :class:`repro.nn.Module` tree;
* :mod:`repro.obs.report` — :class:`RunReport`, a schema-versioned JSON
  document of one training run (v2: ``health`` + ``metrics`` sections;
  per-phase ``timers`` computed by :func:`timer_stats` from span
  durations), :func:`write_bench_artifact`, the
  ``benchmarks/out/BENCH_*.json`` trajectory writer, and the
  :func:`validate_report` / :func:`validate_bench_artifact` schema
  checkers.

*Active* (PR 2) — export, stream, and alert:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, typed
  counter/gauge/histogram families with labels, streaming quantiles,
  Prometheus text-format and JSONL exporters;
* :mod:`repro.obs.trace` — :class:`Tracer`, span-based structured
  tracing with a JSONL event log; spans are the only timer of a fit;
* :mod:`repro.obs.health` — :class:`HealthSuite`, thresholded monitors
  for gradient drift, dead units, fraud-attention entropy collapse, and
  reliability-head calibration drift;
* :mod:`repro.obs.watch` — the live terminal renderer behind
  ``python -m repro watch``.

:mod:`repro.obs.run` puts all of it behind one :class:`RunObserver`,
the single object :meth:`repro.core.RRRETrainer.fit` reports through.

Everything here is opt-in: with no profiler attached, no active metrics
registry, and no ambient tracer, the hook points reduce to a single
``None`` check.  See ``docs/observability.md`` for a guided tour.
"""

from .._lazy import lazy_exports

# Lazy (PEP 562): the server reads metrics and traces, and must not load
# ``hooks``/``run``, which import ``repro.nn``.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".health": (
            "AttentionEntropyMonitor",
            "CalibrationDriftMonitor",
            "DeadUnitMonitor",
            "GradientDriftMonitor",
            "HealthAlert",
            "HealthSuite",
            "attention_entropy",
        ),
        ".hooks": ("LayerRecord", "ModuleProfiler", "NumericsError"),
        ".metrics": ("MetricsRegistry", "use_metrics"),
        ".report": (
            "SCHEMA_VERSION",
            "RunReport",
            "timer_stats",
            "validate_bench_artifact",
            "validate_report",
            "write_bench_artifact",
        ),
        ".run": ("RunObserver",),
        ".trace": (
            "Span",
            "Tracer",
            "current_tracer",
            "emit_event",
            "maybe_span",
            "read_events",
            "traced",
            "use_tracer",
        ),
    },
)

__all__ = [
    "AttentionEntropyMonitor",
    "CalibrationDriftMonitor",
    "DeadUnitMonitor",
    "GradientDriftMonitor",
    "HealthAlert",
    "HealthSuite",
    "LayerRecord",
    "MetricsRegistry",
    "ModuleProfiler",
    "NumericsError",
    "RunObserver",
    "RunReport",
    "SCHEMA_VERSION",
    "Span",
    "Tracer",
    "attention_entropy",
    "current_tracer",
    "emit_event",
    "maybe_span",
    "read_events",
    "timer_stats",
    "traced",
    "use_metrics",
    "use_tracer",
    "validate_bench_artifact",
    "validate_report",
    "write_bench_artifact",
]
