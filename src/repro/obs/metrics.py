"""Typed metrics registry: counters, gauges, and histograms with labels.

A :class:`MetricsRegistry` holds named metric *families*; each family is
one metric kind (counter / gauge / histogram) plus a fixed set of label
names, and fans out to one child series per distinct label-value tuple —
the Prometheus data model, scaled down:

* :class:`Counter` — monotonically increasing totals (batches seen,
  examples trained, recommendations served);
* :class:`Gauge` — last-write-wins levels (current epoch loss, gradient
  norm, calibration error);
* :class:`Histogram` — fixed cumulative buckets plus *streaming
  quantile* estimates (P² algorithm, no sample retention) for latency
  style distributions.

Two exporters ship with the registry: :meth:`MetricsRegistry.to_prometheus`
emits the Prometheus text exposition format (``# HELP``/``# TYPE``
headers, escaped label values, ``_bucket``/``_sum``/``_count`` triples)
and :meth:`MetricsRegistry.to_jsonl` writes one JSON line per family,
invertible via :meth:`MetricsRegistry.from_jsonl`.

Library code records into the process-wide *active* registry so hot
paths pay a single ``None`` check when metrics are off::

    from repro.obs import metrics

    reg = metrics.active()
    if reg is not None:
        reg.counter("repro_batches_total", "Batches yielded").labels().inc()

``RRRETrainer.fit`` and the benchmarks activate their own registry via
:func:`use_metrics`, so concurrent runs never share series.
"""

from __future__ import annotations

import json
import math
import re
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.concurrency.locks import make_lock

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "P2Quantile",
    "active",
    "set_active",
    "use_metrics",
]

#: Default histogram bucket upper bounds (seconds-flavoured, like
#: Prometheus' ``DefBuckets``); ``+Inf`` is always implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Quantiles every histogram tracks with a streaming estimator.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class P2Quantile:
    """Streaming quantile estimator (Jain & Chlamtac's P² algorithm).

    Tracks one quantile ``q`` in O(1) memory: five markers whose heights
    converge on the ``q``-quantile as observations stream in.  Exact for
    the first five observations, a piecewise-parabolic approximation
    after — accurate to a few percent on smooth distributions.
    """

    __slots__ = ("q", "count", "_heights", "_positions", "_desired", "_rates")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self.count = 0
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._rates = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def observe(self, value: float) -> None:
        """Fold one observation into the running estimate."""
        self.count += 1
        heights = self._heights
        if self.count <= 5:
            heights.append(float(value))
            heights.sort()
            return
        positions = self._positions
        # Locate the cell containing the new observation; clamp extremes.
        if value < heights[0]:
            heights[0] = float(value)
            k = 0
        elif value >= heights[4]:
            heights[4] = float(value)
            k = 3
        else:
            k = 0
            while k < 3 and value >= heights[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._rates[i]
        # Nudge interior markers toward their desired positions.
        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta > 0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """Current estimate (NaN before any observation)."""
        if self.count == 0:
            return float("nan")
        if self.count <= 5:
            # Exact: linear interpolation over the sorted sample.
            rank = self.q * (self.count - 1)
            lo = int(math.floor(rank))
            hi = min(lo + 1, self.count - 1)
            frac = rank - lo
            return self._heights[lo] * (1.0 - frac) + self._heights[hi] * frac
        return self._heights[2]


class Counter:
    """One monotonically increasing series (a family child)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """One last-write-wins series (a family child)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """Fixed cumulative buckets plus streaming quantile estimates.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``
    (non-cumulative storage; cumulated at export time), with one
    overflow cell for ``+Inf``.  Quantile *estimates* come from one
    :class:`P2Quantile` per tracked quantile; :meth:`bucket_quantile`
    gives the coarser histogram-interpolation answer whose error is
    bounded by the bucket width.
    """

    __slots__ = ("_lock", "buckets", "bucket_counts", "sum", "count", "_estimators", "_restored")

    def __init__(
        self,
        lock: threading.Lock,
        buckets: Sequence[float],
        quantiles: Sequence[float],
    ) -> None:
        self._lock = lock
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0
        self._estimators = {float(q): P2Quantile(q) for q in quantiles}
        self._restored: Dict[float, float] = {}

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._restored.clear()
            self.sum += value
            self.count += 1
            idx = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    idx = i
                    break
            self.bucket_counts[idx] += 1
            for estimator in self._estimators.values():
                estimator.observe(value)

    def quantile(self, q: float) -> float:
        """Streaming estimate of quantile ``q`` (must be tracked)."""
        q = float(q)
        with self._lock:
            if self._restored and q in self._restored:
                return self._restored[q]
            if q not in self._estimators:
                raise KeyError(
                    f"quantile {q} not tracked; have {sorted(self._estimators)}"
                )
            return self._estimators[q].value()

    def bucket_quantile(self, q: float) -> Tuple[float, float]:
        """The ``(lower, upper)`` bounds of the bucket holding quantile ``q``.

        The exact quantile of the observed data is guaranteed to lie in
        this interval (the lower edge of the first bucket is taken as
        the histogram's minimum recordable value, ``-inf``).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return (float("nan"), float("nan"))
            rank = q * self.count
            cumulative = 0
            for i, bucket_count in enumerate(self.bucket_counts):
                cumulative += bucket_count
                if cumulative >= rank and bucket_count:
                    lower = self.buckets[i - 1] if i > 0 else float("-inf")
                    upper = self.buckets[i] if i < len(self.buckets) else float("inf")
                    return (lower, upper)
            return (self.buckets[-1], float("inf"))

    def quantiles(self) -> Dict[float, float]:
        """All tracked quantile estimates, keyed by ``q``."""
        with self._lock:
            if self._restored:
                return dict(self._restored)
            return {q: est.value() for q, est in sorted(self._estimators.items())}


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric of one kind, fanned out by label values."""

    __slots__ = ("kind", "name", "help", "label_names", "_children", "_lock", "_buckets", "_quantiles")

    def __init__(
        self,
        kind: str,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> None:
        self.kind = kind
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._lock = lock
        self._buckets = tuple(buckets)
        self._quantiles = tuple(quantiles)

    def labels(self, **label_values: str):
        """The child series for one label-value assignment.

        Call with no arguments for an unlabelled family.  Unknown or
        missing label names raise ``ValueError``.
        """
        if set(label_values) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, got "
                f"{tuple(sorted(label_values))}"
            )
        key = tuple(str(label_values[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self._lock, self._buckets, self._quantiles)
                else:
                    child = _KINDS[self.kind](self._lock)
                self._children[key] = child
        return child

    def samples(self) -> List[Tuple[Dict[str, str], Any]]:
        """``(label_dict, child)`` pairs in insertion order."""
        with self._lock:
            return [
                (dict(zip(self.label_names, key)), child)
                for key, child in self._children.items()
            ]


class MetricsRegistry:
    """Thread-safe registry of counter/gauge/histogram families.

    Families are created lazily and idempotently: requesting an existing
    name with the same kind and labels returns the same family;
    requesting it with a different kind or label set raises.
    """

    def __init__(self) -> None:
        self._lock = make_lock("obs.metrics.registry")
        self._families: Dict[str, _Family] = {}

    # -- family constructors ------------------------------------------
    def counter(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> _Family:
        """Get or create a counter family."""
        return self._family("counter", name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> _Family:
        """Get or create a gauge family."""
        return self._family("gauge", name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> _Family:
        """Get or create a histogram family."""
        return self._family("histogram", name, help_text, labels, buckets, quantiles)

    def _family(
        self,
        kind: str,
        name: str,
        help_text: str,
        labels: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind} "
                        f"with labels {family.label_names}"
                    )
                return family
            family = _Family(kind, name, help_text, label_names, self._lock, buckets, quantiles)
            self._families[name] = family
            return family

    # -- introspection -------------------------------------------------
    def families(self) -> List[_Family]:
        """All families, sorted by name."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> _Family:
        """The family registered under ``name`` (KeyError if absent)."""
        with self._lock:
            return self._families[name]

    def reset(self) -> None:
        """Drop every family and series."""
        with self._lock:
            self._families.clear()

    # -- exporters -----------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-serializable view: ``{name: {kind, help, labels, samples}}``."""
        out: Dict[str, Dict[str, Any]] = {}
        for family in self.families():
            samples = []
            for label_values, child in family.samples():
                if family.kind == "histogram":
                    samples.append(
                        {
                            "labels": label_values,
                            "sum": child.sum,
                            "count": child.count,
                            "buckets": {
                                _format_bound(b): c
                                for b, c in zip(
                                    list(family._buckets) + [float("inf")],
                                    child.bucket_counts,
                                )
                            },
                            "quantiles": {
                                _format_bound(q): _nan_to_none(v)
                                for q, v in child.quantiles().items()
                            },
                        }
                    )
                else:
                    samples.append({"labels": label_values, "value": child.value})
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "samples": samples,
            }
        return out

    def to_jsonl(self) -> str:
        """One JSON object per family, newline-delimited."""
        lines = []
        for name, payload in self.snapshot().items():
            record = {"name": name}
            record.update(payload)
            if payload["kind"] == "histogram":
                family = self.get(name)
                record["bucket_bounds"] = [_format_bound(b) for b in family._buckets]
                record["quantile_grid"] = [
                    _format_bound(q) for q in sorted(family._quantiles)
                ]
            lines.append(json.dumps(record, sort_keys=False))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_jsonl` output.

        Counter/gauge values and histogram buckets/sums/counts restore
        exactly; histogram quantiles restore as frozen estimates (served
        until the next ``observe``, which resumes live estimation).
        """
        registry = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record["kind"]
            labels = tuple(record.get("labels", ()))
            if kind == "histogram":
                bounds = [float(b) for b in record.get("bucket_bounds", DEFAULT_BUCKETS)]
                grid = [float(q) for q in record.get("quantile_grid", DEFAULT_QUANTILES)]
                family = registry.histogram(
                    record["name"], record.get("help", ""), labels,
                    buckets=bounds, quantiles=grid,
                )
            else:
                family = registry._family(kind, record["name"], record.get("help", ""), labels)
            for sample in record.get("samples", ()):
                child = family.labels(**sample.get("labels", {}))
                if kind == "histogram":
                    child.sum = float(sample["sum"])
                    child.count = int(sample["count"])
                    child.bucket_counts = [
                        int(v) for v in sample.get("buckets", {}).values()
                    ]
                    child._restored = {
                        float(q): (float("nan") if v is None else float(v))
                        for q, v in sample.get("quantiles", {}).items()
                    }
                else:
                    child.value = float(sample["value"])
        return registry

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for label_values, child in family.samples():
                if family.kind == "histogram":
                    cumulative = 0
                    bounds = list(family._buckets) + [float("inf")]
                    for bound, bucket_count in zip(bounds, child.bucket_counts):
                        cumulative += bucket_count
                        labels = dict(label_values)
                        labels["le"] = _format_bound(bound)
                        lines.append(
                            f"{family.name}_bucket{_format_labels(labels)} {cumulative}"
                        )
                    base = _format_labels(label_values)
                    lines.append(f"{family.name}_sum{base} {_format_value(child.sum)}")
                    lines.append(f"{family.name}_count{base} {child.count}")
                else:
                    lines.append(
                        f"{family.name}{_format_labels(label_values)} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def save_prometheus(self, path) -> None:
        """Write :meth:`to_prometheus` output to ``path``."""
        from pathlib import Path

        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_prometheus(), encoding="utf-8")


# -- formatting helpers -----------------------------------------------


def _format_labels(label_values: Dict[str, str]) -> str:
    if not label_values:
        return ""
    body = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in label_values.items()
    )
    return "{" + body + "}"


def _escape_label(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_bound(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf" if bound > 0 else "-Inf"
    formatted = repr(float(bound))
    return formatted[:-2] if formatted.endswith(".0") else formatted


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return _format_bound(value) if value == int(value) else repr(float(value))


def _nan_to_none(value: float) -> Optional[float]:
    return None if math.isnan(value) else value


# -- active-registry plumbing -----------------------------------------

_active_registry: Optional[MetricsRegistry] = None


def active() -> Optional[MetricsRegistry]:
    """The currently active registry, or ``None`` when metrics are off."""
    return _active_registry


def set_active(registry: Optional[MetricsRegistry]) -> Optional[MetricsRegistry]:
    """Install ``registry`` as the process-wide active one; returns the old."""
    global _active_registry
    previous = _active_registry
    _active_registry = registry
    return previous


@contextmanager
def use_metrics(registry: MetricsRegistry):
    """Activate ``registry`` for the duration of the ``with`` block."""
    previous = set_active(registry)
    try:
        yield registry
    finally:
        set_active(previous)
