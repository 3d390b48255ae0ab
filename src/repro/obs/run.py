"""One training run's observability behind one object.

:class:`RunObserver` is what :meth:`repro.core.RRRETrainer.fit` reports
through: phase spans, per-layer profiling, the metrics registry, the
health monitors, trace events, ``verbose`` console lines, and the final
:class:`RunReport`.  It is built from fit's ``telemetry=`` switch; with
telemetry off every component is absent and each method reduces to a
``None`` check, so the training loop calls it unconditionally.

Phases are spans: on the ambient tracer (:func:`repro.obs.use_tracer`)
when the run is traced, else on a private in-memory :class:`Tracer`.
The report's ``timers`` section is computed from their durations.

Everything it takes is a plain value (dicts, arrays, the model as a
:class:`repro.nn.Module`) — ``repro.obs`` never imports ``repro.core``.
The trainer keeps what changes training: the divergence guard, the
checkpoints, and the model/optimizer/RNG state they rewind.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Dict, List, Optional

import numpy as np

from repro.nn.module import Module

from . import trace as _trace
from .health import HealthAlert, HealthSuite, attention_entropy
from .hooks import ModuleProfiler
from .metrics import MetricsRegistry, use_metrics
from .report import RunReport, timer_stats

__all__ = ["RunObserver"]


class RunObserver:
    """Phase spans, profiler, metrics, health, events and report of one fit.

    Parameters
    ----------
    telemetry:
        ``False`` is the no-op form; ``True`` turns on everything:
        phase spans, layer profiling, metrics, health monitors and the
        report.
    verbose:
        Print one line per epoch, rollback, failed checkpoint and resume.
    """

    def __init__(self, telemetry: bool = False, verbose: bool = False) -> None:
        self.telemetry = bool(telemetry)
        self.verbose = verbose
        self.tracer: Optional[_trace.Tracer] = None
        self.metrics: Optional[MetricsRegistry] = None
        self.health: Optional[HealthSuite] = None
        self.profiler: Optional[ModuleProfiler] = None
        self._durations: Dict[str, List[float]] = {}
        self._run: Dict[str, Any] = {}
        self._entropy = np.zeros(3)  # entropy, max entropy, batches
        if not self.telemetry:
            return
        self.tracer = _trace.current_tracer() or _trace.Tracer()
        self.metrics = MetricsRegistry()
        self.health = HealthSuite()

    # ------------------------------------------------------------------
    def phase(self, name: str, kind: str):
        """A span named ``name`` of ``kind`` whose duration feeds the report's timers."""
        return self._phase(name, kind) if self.tracer is not None else nullcontext()

    @contextmanager
    def _phase(self, name: str, kind: str):
        span = self.tracer.begin(name, kind)
        try:
            yield
        finally:
            self._durations.setdefault(name, []).append(self.tracer.end(span))

    @contextmanager
    def run(self, model: Module, **info: Any):
        """The epoch loop's scope: profiler attached, metrics registry active.

        ``info`` describes the run (``dataset``, ``epochs``, …, and
        ``resumed_from_epoch`` after a resume); it becomes the
        ``run_start`` event.
        """
        self._run = info
        if self.verbose and "resumed_from_epoch" in info:
            print(f"[resilience] resumed from checkpoint at epoch {info['resumed_from_epoch']}")
        if self.telemetry:
            self.profiler = ModuleProfiler().attach(model)
        self._event("run_start", **info)
        if self.metrics is not None:
            # Registered up front so the families keep their report order.
            self.metrics.histogram("repro_epoch_seconds", "Wall time per training epoch")
            self.metrics.gauge("repro_train_loss", "Mean joint loss of the last epoch")
            self.metrics.gauge(
                "repro_grad_norm", "Mean pre-clip gradient norm of the last epoch"
            )
            self.metrics.counter("repro_epochs_total", "Training epochs completed")
        try:
            with use_metrics(self.metrics) if self.metrics is not None else nullcontext():
                yield self
        finally:
            if self.profiler is not None:
                self.profiler.detach()

    def batch(self, attention: np.ndarray, slot_mask: np.ndarray, rows: np.ndarray) -> None:
        """Fold one step's user fraud-attention weights into the epoch's entropy."""
        if self.health is not None:
            stats = attention_entropy(attention, slot_mask[rows])
            self._entropy += (stats["entropy"], stats["max_entropy"], 1)

    def epoch(self, record: Dict[str, Any], ece: Optional[float] = None) -> List[HealthAlert]:
        """Close an epoch: health monitors, metrics, events; returns new alerts.

        ``record`` is the epoch's history row as a dict; ``ece`` the
        reliability head's calibration error on the test split, if any.
        """
        epoch = record["epoch"]
        alerts: List[Optional[HealthAlert]] = []
        if self.health is not None:
            health = self.health
            alerts.append(health.gradient.observe(epoch, record["grad_norm"]))
            entropy, max_entropy, batches = self._entropy
            if batches:
                alerts.append(
                    health.attention.observe(epoch, entropy / batches, max_entropy / batches)
                )
            if ece is not None:
                alerts.append(health.calibration.observe(epoch, ece))
            if self.profiler is not None:
                alerts.extend(
                    health.dead_units.observe_layers(epoch, self.profiler.layer_profiles())
                )
        self._entropy[:] = 0.0
        new_alerts = [alert for alert in alerts if alert is not None]
        if self.metrics is not None:
            metrics = self.metrics
            metrics.get("repro_epoch_seconds").labels().observe(record["seconds"])
            metrics.get("repro_train_loss").labels().set(record["train_loss"])
            metrics.get("repro_grad_norm").labels().set(record["grad_norm"])
            metrics.get("repro_epochs_total").labels().inc()
            if ece is not None:
                metrics.gauge(
                    "repro_calibration_ece", "Reliability-head ECE on the test split"
                ).labels().set(ece)
        if self.tracer is not None:
            payload = dict(record)
            payload.update(payload.pop("eval_metrics", {}))
            if ece is not None:
                payload["ece"] = ece
            self.tracer.event("epoch", **payload)
            for alert in new_alerts:
                self.tracer.event("health", **alert.to_dict())
        if self.verbose:
            extra = " ".join(f"{k}={v:.4f}" for k, v in record["eval_metrics"].items())
            print(
                f"[{self._run['dataset']}] epoch {epoch}/{self._run['epochs']} "
                f"loss={record['train_loss']:.4f} ({record['seconds']:.1f}s) {extra}"
            )
        return new_alerts

    # -- resilience ----------------------------------------------------
    def rollback(self, event: Dict[str, Any], retries: int, max_retries: int) -> None:
        """A divergence was answered by a rollback (``event`` as recorded by the guard)."""
        self._entropy[:] = 0.0  # the aborted epoch's steps no longer count
        self._count("repro_rollbacks_total", "Divergence rollbacks executed")
        self._event("rollback", retries=retries, **event)
        if self.verbose:
            print(
                f"[resilience] rollback at epoch {event['epoch']} step {event['step']}: "
                f"{event['reason']} (value={event['value']:.4g}), lr "
                f"{event['lr_before']:.2e} -> {event['lr_after']:.2e}, retry "
                f"{retries}/{max_retries}"
            )

    def divergence_failure(self, epoch: int, step: int, reason: str, retries: int) -> None:
        """The guard's retry budget ran out; the run is about to fail."""
        self._event("divergence_failure", epoch=epoch, step=step, reason=reason, retries=retries)

    def checkpoint(self, epoch: int, path) -> None:
        """A checkpoint was written, timed by the ``fit.checkpoint`` phase just closed."""
        if self.tracer is None:
            return
        seconds = self._durations["fit.checkpoint"][-1]
        self._count("repro_checkpoints_total", "Checkpoints written")
        if self.metrics is not None:
            self.metrics.histogram(
                "repro_checkpoint_seconds", "Wall time per checkpoint write"
            ).labels().observe(seconds)
        self._event("checkpoint", epoch=epoch, path=str(path), seconds=seconds)

    def checkpoint_failed(self, epoch: int, error: Exception) -> None:
        """A checkpoint write failed; training carries on."""
        self._count(
            "repro_checkpoint_failures_total",
            "Checkpoint writes that failed (training continued)",
        )
        self._event("checkpoint_failed", epoch=epoch, error=str(error))
        if self.verbose:
            print(f"[resilience] checkpoint write failed: {error}")

    # ------------------------------------------------------------------
    def finish(self, history: List[Dict[str, Any]], **sections: Any) -> Optional[RunReport]:
        """End the run: the ``run_end`` event, and the report when telemetry is on.

        ``history`` is the run's history rows as dicts; ``sections`` are
        the trainer-owned :class:`RunReport` fields (``config``,
        ``dataset``, ``model``, ``meta``).
        """
        eval_metrics = dict(history[-1]["eval_metrics"]) if history else {}
        report = None
        if self.telemetry:
            profiler = self.profiler
            backward: Dict[str, float] = {}
            if profiler is not None:
                backward = {
                    "passes": profiler.backward_passes,
                    "seconds": profiler.backward_seconds,
                    "tape_nodes": profiler.tape_nodes,
                }
            report = RunReport(
                history=history,
                layers=profiler.layer_profiles() if profiler is not None else [],
                timers={
                    name: timer_stats(durations)
                    for name, durations in sorted(self._durations.items())
                },
                eval_metrics=eval_metrics,
                backward=backward,
                health=self.health.report() if self.health is not None else {},
                metrics=self.metrics.snapshot() if self.metrics is not None else {},
                **sections,
            )
        if self.tracer is not None:
            self.tracer.event(
                "run_end",
                epochs=len(history),
                health=self.health.status if self.health is not None else "unknown",
                **eval_metrics,
            )
        return report

    # ------------------------------------------------------------------
    def _event(self, name: str, **fields: Any) -> None:
        if self.tracer is not None:
            self.tracer.event(name, **fields)

    def _count(self, name: str, help_text: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, help_text).labels().inc()
