"""Structured run reports: serialize what a training run did and saw.

A :class:`RunReport` captures one training run end to end — the exact
configuration, the dataset shape, every epoch's losses/timings/metrics,
the per-layer forward/backward profile (when hooks were enabled), the
per-phase timer statistics, and the final evaluation metrics — as a
schema-versioned, JSON-round-trippable document.  The CLI writes it via
``python -m repro train --report-json out.json``; benchmarks write their
sibling artifact via :func:`write_bench_artifact` so the repository
accumulates a machine-readable performance trajectory under
``benchmarks/out/``.

The JSON schema is stable: fields are only added, never renamed or
removed, and ``schema_version`` is bumped on additions so downstream
tooling can branch on it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Bumped whenever a field is added to :class:`RunReport` or the bench
#: artifact layout.  Consumers should accept any version >= the one they
#: were written against (fields are append-only).
#:
#: * v1 — config/dataset/history/layers/timers/eval_metrics/model/
#:   backward/meta.
#: * v2 — adds ``health`` (monitor summaries + alerts, see
#:   :class:`repro.obs.HealthSuite`) and ``metrics``
#:   (:meth:`repro.obs.MetricsRegistry.snapshot`); bench artifacts gain
#:   a ``metrics`` section.  v1 documents still load
#:   (:meth:`RunReport.load` defaults the new sections to empty).
SCHEMA_VERSION = 2


#: Smoothing factor of the ``ema`` column of :func:`timer_stats`.
TIMER_EMA_ALPHA = 0.2


def _utc_now() -> str:
    """ISO-8601 UTC timestamp (second resolution)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def timer_stats(durations: Sequence[float]) -> Dict[str, float]:
    """One ``timers`` entry of a :class:`RunReport` from a phase's span durations.

    ``count``/``total``/``mean``/``min``/``max``/``last`` over the
    observations in order, and ``ema``, an exponential moving average
    (:data:`TIMER_EMA_ALPHA`) seeded with the first observation.
    """
    ema = durations[0]
    for value in durations[1:]:
        ema += TIMER_EMA_ALPHA * (value - ema)
    total = sum(durations)
    return {
        "count": len(durations),
        "total": total,
        "mean": total / len(durations),
        "ema": ema,
        "min": min(durations),
        "max": max(durations),
        "last": durations[-1],
    }


@dataclass
class RunReport:
    """Everything observable about one training run, JSON-serializable.

    Attributes
    ----------
    config:
        The exact hyper-parameter dict the run used
        (``dataclasses.asdict(RRREConfig)``).
    dataset:
        Dataset identity and shape (name, users, items, reviews, ...).
    history:
        One dict per epoch (``repro.core.EpochRecord`` fields: losses,
        wall seconds, gradient norm, eval metrics).
    layers:
        Per-layer profile dicts from
        :meth:`repro.obs.ModuleProfiler.layer_profiles` — empty when
        hooks were disabled.
    timers:
        ``{phase: timer_stats(...)}`` — statistics of the durations of
        each ``fit.*`` phase span (see :meth:`repro.obs.RunObserver.phase`).
    eval_metrics:
        Final evaluation metrics (last epoch's, or a dedicated pass).
    model:
        Parameter accounting (total count, per-component breakdown).
    backward:
        Tape statistics (passes, cumulative seconds, total nodes) of
        the profiled run.
    health:
        :meth:`repro.obs.HealthSuite.report` output — overall status,
        per-monitor summaries, and the alert list (schema v2; empty for
        v1 reports).
    metrics:
        :meth:`repro.obs.MetricsRegistry.snapshot` of the run's metric
        families (schema v2; empty for v1 reports).
    meta:
        Free-form context: dataset seed, CLI argv, library version.
    """

    config: Dict[str, Any] = field(default_factory=dict)
    dataset: Dict[str, Any] = field(default_factory=dict)
    history: List[Dict[str, Any]] = field(default_factory=list)
    layers: List[Dict[str, Any]] = field(default_factory=list)
    timers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    eval_metrics: Dict[str, float] = field(default_factory=dict)
    model: Dict[str, Any] = field(default_factory=dict)
    backward: Dict[str, Any] = field(default_factory=dict)
    health: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION
    created: str = field(default_factory=_utc_now)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict view with a stable key order."""
        return {
            "schema_version": self.schema_version,
            "created": self.created,
            "config": self.config,
            "dataset": self.dataset,
            "model": self.model,
            "history": self.history,
            "layers": self.layers,
            "timers": self.timers,
            "backward": self.backward,
            "eval_metrics": self.eval_metrics,
            "health": self.health,
            "metrics": self.metrics,
            "meta": self.meta,
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def save(self, path) -> Path:
        """Write the JSON report to ``path`` (parents created); returns it."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output.

        Backward compatible across schema versions: a v1 document (no
        ``health``/``metrics`` sections) loads with those sections
        empty, keeping its original ``schema_version``.
        """
        return cls(
            config=dict(payload.get("config", {})),
            dataset=dict(payload.get("dataset", {})),
            history=list(payload.get("history", [])),
            layers=list(payload.get("layers", [])),
            timers=dict(payload.get("timers", {})),
            eval_metrics=dict(payload.get("eval_metrics", {})),
            model=dict(payload.get("model", {})),
            backward=dict(payload.get("backward", {})),
            health=dict(payload.get("health", {})),
            metrics=dict(payload.get("metrics", {})),
            meta=dict(payload.get("meta", {})),
            schema_version=int(payload.get("schema_version", SCHEMA_VERSION)),
            created=str(payload.get("created", "")),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "RunReport":
        """Read a report written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # -- rendering -----------------------------------------------------
    def render(self, top_layers: int = 12) -> str:
        """Human-readable text report for terminals and logs."""
        lines: List[str] = []
        name = self.dataset.get("name", "?")
        lines.append(f"Run report — dataset={name}  created={self.created}")
        lines.append("=" * max(40, len(lines[0])))

        if self.dataset:
            shape = "  ".join(
                f"{key}={self.dataset[key]}"
                for key in ("users", "items", "reviews", "fake_fraction")
                if key in self.dataset
            )
            if shape:
                lines.append(f"dataset: {shape}")
        if self.model:
            parts = [f"parameters={self.model.get('parameters', '?')}"]
            components = self.model.get("components", {})
            if components:
                top = sorted(components.items(), key=lambda kv: -kv[1])[:4]
                parts.append(
                    "largest: " + ", ".join(f"{k}={v}" for k, v in top)
                )
            lines.append("model:   " + "  ".join(parts))
        if self.config:
            keys = (
                "encoder", "pooling", "review_dim", "word_dim", "id_dim",
                "s_u", "s_i", "epochs", "batch_size", "lr", "lambda_weight",
            )
            shown = "  ".join(
                f"{k}={self.config[k]}" for k in keys if k in self.config
            )
            lines.append(f"config:  {shown}")

        if self.history:
            lines.append("")
            lines.append(
                "epoch     loss    rel_loss  rating    sec   grad_norm  metrics"
            )
            lines.append("-" * 72)
            for rec in self.history:
                metrics = rec.get("eval_metrics") or {}
                metric_text = " ".join(f"{k}={v:.4f}" for k, v in metrics.items())
                lines.append(
                    f"{rec.get('epoch', '?'):>5}"
                    f"  {rec.get('train_loss', float('nan')):>8.4f}"
                    f"  {rec.get('reliability_loss', float('nan')):>8.4f}"
                    f"  {rec.get('rating_loss', float('nan')):>8.4f}"
                    f"  {rec.get('seconds', float('nan')):>5.1f}"
                    f"  {rec.get('grad_norm', 0.0):>9.3f}"
                    f"  {metric_text}"
                )
            losses = [r["train_loss"] for r in self.history if "train_loss" in r]
            if len(losses) > 1:
                lines.append("loss curve: " + _sparkline(losses))

        if self.layers:
            lines.append("")
            lines.append(_render_layer_table(self.layers, top_layers))

        if self.backward:
            lines.append("")
            lines.append(
                "backward: passes={passes}  seconds={seconds:.3f}  tape_nodes={tape_nodes}".format(
                    passes=self.backward.get("passes", 0),
                    seconds=self.backward.get("seconds", 0.0),
                    tape_nodes=self.backward.get("tape_nodes", 0),
                )
            )
        if self.eval_metrics:
            lines.append("")
            lines.append(
                "final metrics: "
                + "  ".join(f"{k}={v:.4f}" for k, v in self.eval_metrics.items())
            )
        if self.health:
            lines.append("")
            lines.append(_render_health(self.health))
        return "\n".join(lines)


def _render_layer_table(layers: List[Dict[str, Any]], top: int) -> str:
    """Fixed-width per-layer profile table (top-N by forward time)."""
    width = max([len(str(l.get("name", ""))) for l in layers[:top]] + [10]) + 2
    header = (
        "layer".ljust(width)
        + "calls".rjust(7)
        + "fwd s".rjust(9)
        + "bwd s".rjust(9)
        + "grad|g|".rjust(10)
        + "params".rjust(10)
    )
    lines = [header, "-" * len(header)]
    for layer in layers[:top]:
        lines.append(
            str(layer.get("name", "")).ljust(width)
            + f"{layer.get('calls', 0):>7}"
            + f"{layer.get('forward_seconds', 0.0):>9.3f}"
            + f"{layer.get('backward_seconds', 0.0):>9.3f}"
            + f"{layer.get('grad_norm_mean', 0.0):>10.3f}"
            + f"{layer.get('parameters', 0):>10}"
        )
    if len(layers) > top:
        lines.append(f"... {len(layers) - top} more layers (see JSON report)")
    return "\n".join(lines)


def _render_health(health: Dict[str, Any]) -> str:
    """Health section: overall status, per-monitor one-liners, alerts."""
    lines = [f"health: {health.get('status', '?')}"]
    for name, summary in health.get("monitors", {}).items():
        last = summary.get("last_value")
        last_text = f"{last:.4f}" if isinstance(last, (int, float)) else "-"
        lines.append(
            f"  {name:20s} {summary.get('status', '?'):8s} "
            f"obs={summary.get('observations', 0):<4} last={last_text}"
        )
    for alert in health.get("alerts", []):
        lines.append(
            f"  [{alert.get('severity', '?')}] epoch {alert.get('epoch', '?')} "
            f"{alert.get('monitor', '?')}: {alert.get('message', '')}"
        )
    return "\n".join(lines)


def _sparkline(values: List[float]) -> str:
    """Loss-curve sparkline of the run report and the ``watch`` board."""
    blocks = "▁▂▃▄▅▆▇█"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return "".join(blocks[int((v - lo) / span * (len(blocks) - 1))] for v in values)


# ---------------------------------------------------------------------------
# Benchmark artifacts
# ---------------------------------------------------------------------------


def write_bench_artifact(
    out_dir,
    name: str,
    data: Dict[str, Any],
    timing: Optional[Dict[str, float]] = None,
    params: Optional[Dict[str, Any]] = None,
    rendered: str = "",
    metrics: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write one benchmark's results as ``<out_dir>/BENCH_<name>.json``.

    The artifact is a trajectory point: future sessions diff these files
    to see whether a table regenerated with the same numbers and how
    long it took.  Returns the written path.

    Parameters
    ----------
    out_dir:
        Target directory (created if missing), normally ``benchmarks/out``.
    name:
        Benchmark identifier, e.g. ``table3`` or ``test_fig2``.
    data:
        The raw numbers of the regenerated artifact
        (``ExperimentReport.data``); must be JSON-serializable.
    timing:
        Optional wall-time stats, e.g. ``{"seconds": 12.3}``.
    params:
        The scale/seeds/epochs knobs the run used.
    rendered:
        Optional printable table, stored for eyeballing diffs.
    metrics:
        Optional :meth:`repro.obs.MetricsRegistry.snapshot` collected
        while the benchmark ran (schema v2).
    """
    safe = "".join(c if (c.isalnum() or c in "._-") else "_" for c in name)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": name,
        "created": _utc_now(),
        "params": params or {},
        "timing": timing or {},
        "data": _jsonable(data),
        "rendered": rendered,
        "metrics": _jsonable(metrics or {}),
    }
    target = Path(out_dir) / f"BENCH_{safe}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return target


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of numpy scalars/arrays for json.dumps."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # numpy array or scalar
        return value.tolist()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

#: ``section name -> required python type`` for a RunReport document.
_REPORT_SECTIONS = {
    "config": dict,
    "dataset": dict,
    "model": dict,
    "history": list,
    "layers": list,
    "timers": dict,
    "backward": dict,
    "eval_metrics": dict,
    "meta": dict,
}

#: Sections added in schema v2 (optional for v1 documents).
_REPORT_V2_SECTIONS = {"health": dict, "metrics": dict}

#: Required keys of a ``BENCH_*.json`` artifact and their types.
_BENCH_KEYS = {
    "benchmark": str,
    "params": dict,
    "timing": dict,
    "data": (dict, list),
    "rendered": str,
}


def _check_version(payload: Dict[str, Any], problems: List[str]) -> int:
    version = payload.get("schema_version")
    if not isinstance(version, int) or version < 1:
        problems.append(f"schema_version must be a positive int, got {version!r}")
        return 0
    return version


#: Required keys of the ``concurrency`` pass inside an analyze report.
_CONCURRENCY_KEYS = {
    "ok": bool,
    "files_checked": int,
    "violations": list,
    "models": dict,
}


def _validate_analyze_report(payload: Dict[str, Any]) -> List[str]:
    """Structural check of an ``analyze --report-json`` document."""
    problems: List[str] = []
    _check_version(payload, problems)
    if not isinstance(payload.get("ok"), bool):
        problems.append("analyze report needs a boolean 'ok'")
    if not isinstance(payload.get("failed_passes"), list):
        problems.append("analyze report needs a 'failed_passes' list")
    passes = payload.get("passes")
    if not isinstance(passes, dict):
        return problems + ["analyze report needs a 'passes' object"]
    concurrency = passes.get("concurrency")
    if concurrency is None:
        return problems
    if not isinstance(concurrency, dict):
        return problems + ["passes.concurrency must be an object"]
    for key, expected in _CONCURRENCY_KEYS.items():
        if key not in concurrency:
            problems.append(f"passes.concurrency missing key {key!r}")
        elif not isinstance(concurrency[key], expected):
            problems.append(
                f"passes.concurrency.{key} must be {expected.__name__}, "
                f"got {type(concurrency[key]).__name__}"
            )
    violations = concurrency.get("violations")
    for i, violation in enumerate(violations if isinstance(violations, list) else []):
        if not isinstance(violation, dict) or not {
            "rule",
            "path",
            "line",
        } <= set(violation):
            problems.append(
                f"passes.concurrency.violations[{i}] must be an object "
                "with rule/path/line"
            )
    dynamic = concurrency.get("dynamic")
    if dynamic is not None:
        if not isinstance(dynamic, dict):
            problems.append("passes.concurrency.dynamic must be an object")
        else:
            if not isinstance(dynamic.get("ok"), bool):
                problems.append("passes.concurrency.dynamic needs a boolean 'ok'")
            if not isinstance(dynamic.get("races"), list):
                problems.append("passes.concurrency.dynamic needs a 'races' list")
            if not isinstance(dynamic.get("self_check"), dict):
                problems.append(
                    "passes.concurrency.dynamic needs a 'self_check' object"
                )
    return problems


def validate_report(payload: Dict[str, Any]) -> List[str]:
    """Structural check of a RunReport JSON document.

    Returns a list of problems (empty = valid).  Accepts any schema
    version >= 1; v2-only sections are required only from v2 on.  An
    ``analyze --report-json`` payload (recognized by its ``passes``
    section and the absence of a training ``history``) is validated
    against the analyze schema instead, including the ``concurrency``
    pass structure.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"report must be a JSON object, got {type(payload).__name__}"]
    if "passes" in payload and "history" not in payload:
        return _validate_analyze_report(payload)
    version = _check_version(payload, problems)
    required = dict(_REPORT_SECTIONS)
    if version >= 2:
        required.update(_REPORT_V2_SECTIONS)
    for key, expected in required.items():
        if key not in payload:
            problems.append(f"missing section {key!r}")
        elif not isinstance(payload[key], expected):
            problems.append(
                f"section {key!r} must be {expected.__name__}, "
                f"got {type(payload[key]).__name__}"
            )
    for i, record in enumerate(payload.get("history", []) or []):
        if not isinstance(record, dict):
            problems.append(f"history[{i}] must be an object")
    return problems


def validate_bench_artifact(payload: Dict[str, Any]) -> List[str]:
    """Structural check of a ``BENCH_*.json`` artifact.

    Returns a list of problems (empty = valid).  The ``metrics`` section
    is required from schema v2 on, tolerated as absent in v1 artifacts.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"artifact must be a JSON object, got {type(payload).__name__}"]
    version = _check_version(payload, problems)
    for key, expected in _BENCH_KEYS.items():
        if key not in payload:
            problems.append(f"missing key {key!r}")
        elif not isinstance(payload[key], expected):
            expected_name = (
                expected.__name__
                if isinstance(expected, type)
                else "/".join(t.__name__ for t in expected)
            )
            problems.append(
                f"key {key!r} must be {expected_name}, "
                f"got {type(payload[key]).__name__}"
            )
    if version >= 2 and not isinstance(payload.get("metrics"), dict):
        problems.append("v2 artifact must carry a 'metrics' object")
    return problems
