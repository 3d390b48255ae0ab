"""Thresholded model-health monitors: catch silent training degradation.

The failure mode RRRE guards against in *data* — fake reviews polluting
the signal — has training-time analogues that a loss curve alone hides:
the reliability head collapsing to the majority class while the joint
loss still falls, fraud-attention degenerating to uniform (or one-hot)
weights so explanations stop being review-specific, units dying behind
a saturated nonlinearity, or gradients drifting away from their running
scale long before they explode.  Each monitor here watches one of those
signals per epoch and raises a :class:`HealthAlert` when a threshold is
crossed:

* :class:`GradientDriftMonitor` — per-epoch global gradient norm vs. an
  exponential-moving-average baseline; alerts on drift beyond a ratio
  (and critically on non-finite norms);
* :class:`DeadUnitMonitor` — per-layer dead-unit and saturation
  fractions from :class:`repro.obs.ModuleProfiler` activation stats;
* :class:`AttentionEntropyMonitor` — mean entropy of the fraud-attention
  weights, normalized by the maximum possible entropy; alerts on
  collapse toward a degenerate distribution;
* :class:`CalibrationDriftMonitor` — per-epoch expected calibration
  error (ECE) of the reliability probabilities vs. the best value seen,
  the "explanation quality drifts independently of rating accuracy"
  signal from the faithfulness literature.

A :class:`HealthSuite` owns one of each, collects alerts across the
run, and renders the ``health`` section of a
:class:`repro.obs.RunReport` (schema v2).  All monitors are pure
observers: they never change training behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "AttentionEntropyMonitor",
    "CalibrationDriftMonitor",
    "DeadUnitMonitor",
    "GradientDriftMonitor",
    "HealthAlert",
    "HealthMonitor",
    "HealthSuite",
    "attention_entropy",
]


@dataclass(frozen=True)
class HealthAlert:
    """One threshold crossing observed by a monitor."""

    monitor: str
    severity: str  # "warn" | "critical"
    epoch: int
    message: str
    value: float
    threshold: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (stored in ``RunReport.health``)."""
        return {
            "monitor": self.monitor,
            "severity": self.severity,
            "epoch": self.epoch,
            "message": self.message,
            "value": self.value,
            "threshold": self.threshold,
        }


class HealthMonitor:
    """Base class: alert bookkeeping shared by all monitors."""

    name = "monitor"

    def __init__(self) -> None:
        self.alerts: List[HealthAlert] = []
        self.observations = 0
        self.last_value = float("nan")

    def _record(self, epoch: int, value: float) -> None:
        self.observations += 1
        self.last_value = float(value)

    def _alert(
        self, severity: str, epoch: int, message: str, value: float, threshold: float
    ) -> HealthAlert:
        alert = HealthAlert(
            monitor=self.name,
            severity=severity,
            epoch=epoch,
            message=message,
            value=float(value),
            threshold=float(threshold),
        )
        self.alerts.append(alert)
        return alert

    @property
    def status(self) -> str:
        """``"ok"``, or the worst severity this monitor has raised."""
        if any(a.severity == "critical" for a in self.alerts):
            return "critical"
        if self.alerts:
            return "warn"
        return "ok"

    def summary(self) -> Dict[str, Any]:
        """Per-monitor entry of the report's ``health`` section."""
        return {
            "status": self.status,
            "observations": self.observations,
            "last_value": None if math.isnan(self.last_value) else self.last_value,
            "alerts": len(self.alerts),
        }


class GradientDriftMonitor(HealthMonitor):
    """Global gradient norm vs. an EMA baseline of itself.

    After ``warmup`` observations seed the baseline, an epoch whose mean
    gradient norm is more than ``ratio``× the baseline (or less than
    baseline/``ratio``) raises a warning; NaN/Inf norms are critical.
    """

    name = "gradient_drift"

    def __init__(self, ratio: float = 4.0, warmup: int = 2, ema_alpha: float = 0.3) -> None:
        super().__init__()
        if ratio <= 1.0:
            raise ValueError(f"ratio must be > 1, got {ratio}")
        self.ratio = ratio
        self.warmup = warmup
        self.ema_alpha = ema_alpha
        self.baseline = float("nan")

    def observe(self, epoch: int, grad_norm: float) -> Optional[HealthAlert]:
        """Feed one epoch's mean gradient norm; maybe returns an alert."""
        self._record(epoch, grad_norm)
        if not math.isfinite(grad_norm):
            return self._alert(
                "critical", epoch,
                f"non-finite gradient norm {grad_norm}", grad_norm, self.ratio,
            )
        alert = None
        if self.observations > self.warmup and self.baseline > 0:
            drift = grad_norm / self.baseline
            if drift > self.ratio or drift < 1.0 / self.ratio:
                alert = self._alert(
                    "warn", epoch,
                    f"gradient norm {grad_norm:.4f} drifted {drift:.2f}x from "
                    f"EMA baseline {self.baseline:.4f}",
                    drift, self.ratio,
                )
        if math.isnan(self.baseline):
            self.baseline = float(grad_norm)
        else:
            self.baseline += self.ema_alpha * (grad_norm - self.baseline)
        return alert


class DeadUnitMonitor(HealthMonitor):
    """Dead-unit / saturation rates from per-layer activation stats.

    Consumes the ``dead_fraction`` / ``saturation_fraction`` columns of
    :meth:`repro.obs.ModuleProfiler.layer_profiles`.  A layer whose outputs are
    more than ``max_dead`` zeros, or more than ``max_saturated``
    saturated, raises a warning naming the layer.
    """

    name = "dead_units"

    def __init__(self, max_dead: float = 0.90, max_saturated: float = 0.90) -> None:
        super().__init__()
        self.max_dead = max_dead
        self.max_saturated = max_saturated
        self.worst_layer: Optional[str] = None

    def observe_layers(
        self, epoch: int, layer_profiles: Sequence[Dict[str, Any]]
    ) -> List[HealthAlert]:
        """Scan one snapshot of layer profiles; returns any new alerts."""
        alerts: List[HealthAlert] = []
        worst = 0.0
        for layer in layer_profiles:
            dead = float(layer.get("dead_fraction", 0.0) or 0.0)
            saturated = float(layer.get("saturation_fraction", 0.0) or 0.0)
            name = layer.get("name", "?")
            if dead >= worst:
                worst, self.worst_layer = dead, str(name)
            if dead > self.max_dead:
                alerts.append(
                    self._alert(
                        "warn", epoch,
                        f"layer {name!r}: {dead:.1%} of activations are zero",
                        dead, self.max_dead,
                    )
                )
            if saturated > self.max_saturated:
                alerts.append(
                    self._alert(
                        "warn", epoch,
                        f"layer {name!r}: {saturated:.1%} of activations saturated",
                        saturated, self.max_saturated,
                    )
                )
        self._record(epoch, worst)
        return alerts

    def summary(self) -> Dict[str, Any]:
        payload = super().summary()
        payload["worst_layer"] = self.worst_layer
        return payload


class AttentionEntropyMonitor(HealthMonitor):
    """Fraud-attention entropy collapse detector.

    Feed the mean Shannon entropy of the attention rows and the maximum
    achievable entropy (``log`` of the mean number of valid slots).  An
    epoch whose *normalized* entropy falls below ``floor`` means the
    attention has collapsed toward a point mass — review-level
    explanations are no longer discriminating between reviews.
    """

    name = "attention_entropy"

    def __init__(self, floor: float = 0.15, warmup: int = 1) -> None:
        super().__init__()
        if not 0.0 <= floor <= 1.0:
            raise ValueError(f"floor must be in [0, 1], got {floor}")
        self.floor = floor
        self.warmup = warmup

    def observe(
        self, epoch: int, entropy: float, max_entropy: float
    ) -> Optional[HealthAlert]:
        """Feed one epoch's mean attention entropy; maybe returns an alert."""
        normalized = entropy / max_entropy if max_entropy > 0 else 1.0
        self._record(epoch, normalized)
        if self.observations <= self.warmup:
            return None
        if normalized < self.floor:
            return self._alert(
                "warn", epoch,
                f"attention entropy collapsed to {normalized:.3f} of maximum "
                f"({entropy:.3f} / {max_entropy:.3f} nats)",
                normalized, self.floor,
            )
        return None


class CalibrationDriftMonitor(HealthMonitor):
    """Per-epoch ECE of the reliability head vs. the best epoch so far.

    Alerts when ECE exceeds ``best + drift`` (the head is *losing*
    calibration while training continues — the classic symptom of
    collapsing to the majority class) or the absolute ceiling
    ``max_ece``.
    """

    name = "calibration_drift"

    def __init__(self, drift: float = 0.10, max_ece: float = 0.30) -> None:
        super().__init__()
        self.drift = drift
        self.max_ece = max_ece
        self.best = float("nan")

    def observe(self, epoch: int, ece: float) -> Optional[HealthAlert]:
        """Feed one epoch's expected calibration error; maybe alerts."""
        self._record(epoch, ece)
        alert = None
        if ece > self.max_ece:
            alert = self._alert(
                "warn", epoch,
                f"ECE {ece:.4f} above absolute ceiling {self.max_ece}",
                ece, self.max_ece,
            )
        elif not math.isnan(self.best) and ece > self.best + self.drift:
            alert = self._alert(
                "warn", epoch,
                f"ECE {ece:.4f} drifted {ece - self.best:+.4f} from best "
                f"{self.best:.4f}",
                ece, self.best + self.drift,
            )
        if math.isnan(self.best) or ece < self.best:
            self.best = float(ece)
        return alert


class HealthSuite:
    """The four standard monitors plus cross-monitor alert collection.

    ``RRRETrainer.fit`` owns one per telemetry-enabled run; custom
    monitors can be appended to :attr:`extra` and are included in the
    report under their ``name``.
    """

    def __init__(
        self,
        gradient: Optional[GradientDriftMonitor] = None,
        dead_units: Optional[DeadUnitMonitor] = None,
        attention: Optional[AttentionEntropyMonitor] = None,
        calibration: Optional[CalibrationDriftMonitor] = None,
    ) -> None:
        self.gradient = gradient or GradientDriftMonitor()
        self.dead_units = dead_units or DeadUnitMonitor()
        self.attention = attention or AttentionEntropyMonitor()
        self.calibration = calibration or CalibrationDriftMonitor()
        self.extra: List[HealthMonitor] = []

    def monitors(self) -> List[HealthMonitor]:
        """Every monitor in report order."""
        return [
            self.gradient,
            self.dead_units,
            self.attention,
            self.calibration,
            *self.extra,
        ]

    @property
    def alerts(self) -> List[HealthAlert]:
        """All alerts across monitors, in observation order per monitor."""
        collected: List[HealthAlert] = []
        for monitor in self.monitors():
            collected.extend(monitor.alerts)
        return collected

    @property
    def status(self) -> str:
        """Worst status across monitors."""
        statuses = {m.status for m in self.monitors()}
        if "critical" in statuses:
            return "critical"
        if "warn" in statuses:
            return "warn"
        return "ok"

    def report(self) -> Dict[str, Any]:
        """The ``health`` section of a schema-v2 :class:`RunReport`."""
        return {
            "status": self.status,
            "monitors": {m.name: m.summary() for m in self.monitors()},
            "alerts": [a.to_dict() for a in self.alerts],
        }


def attention_entropy(
    weights: np.ndarray, mask: Optional[np.ndarray] = None, eps: float = 1e-12
) -> Dict[str, float]:
    """Mean Shannon entropy of attention rows, plus the achievable maximum.

    Parameters
    ----------
    weights:
        ``(B, s)`` attention weights (rows ≈ sum to 1; renormalized
        defensively here).
    mask:
        Optional ``(B, s)`` validity mask; padded slots are excluded
        from both the entropy and the per-row maximum ``log(valid)``.

    Returns ``{"entropy": ..., "max_entropy": ...}`` in nats; a row with
    a single valid slot contributes 0 to both.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"weights must be (B, s), got shape {weights.shape}")
    if mask is None:
        mask = np.ones_like(weights)
    else:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != weights.shape:
            raise ValueError("mask must match weights shape")
    masked = np.clip(weights, 0.0, None) * mask
    totals = masked.sum(axis=1, keepdims=True)
    probs = masked / np.maximum(totals, eps)
    entropy_rows = -(probs * np.log(probs + eps) * mask).sum(axis=1)
    valid = mask.sum(axis=1)
    max_rows = np.log(np.maximum(valid, 1.0))
    return {
        "entropy": float(entropy_rows.mean()),
        "max_entropy": float(max_rows.mean()),
    }
