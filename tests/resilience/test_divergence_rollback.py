"""Divergence guard: rollback, LR backoff, bounded retries, telemetry."""

import math

import numpy as np
import pytest

from repro.core import RRRETrainer
from repro.obs import Tracer, read_events, use_tracer
from repro.resilience import (
    ChaosEngine,
    DivergenceError,
    DivergenceGuard,
    DivergencePolicy,
)

from .conftest import EPOCHS, tiny_config


def finite_metrics(trainer):
    metrics = trainer.history[-1].eval_metrics
    return metrics and all(math.isfinite(v) for v in metrics.values())


class TestNanGradientRecovery:
    def test_rollback_backoff_and_completion(self, splits):
        dataset, train, test = splits
        chaos = ChaosEngine(seed=0).nan_grad_at(epoch=2, step=1)
        guard = DivergenceGuard(DivergencePolicy(max_retries=2, lr_backoff=0.5))
        trainer = RRRETrainer(tiny_config())
        trainer.fit(dataset, train, test, guard=guard, chaos=chaos)

        assert [event.reason for event in guard.events] == ["non_finite_grad_norm"]
        event = guard.events[0]
        assert event.epoch == 2 and event.step == 1
        assert event.lr_after == pytest.approx(event.lr_before * 0.5)
        assert len(trainer.history) == EPOCHS
        assert finite_metrics(trainer)
        # The poisoned update never reached the weights.
        for _, param in trainer.model.named_parameters():
            assert np.isfinite(param.data).all()

    def test_corrupt_batch_triggers_loss_guard(self, splits):
        dataset, train, test = splits
        chaos = ChaosEngine(seed=1).corrupt_batch_at(epoch=1, step=2)
        guard = DivergenceGuard()
        trainer = RRRETrainer(tiny_config())
        trainer.fit(dataset, train, test, guard=guard, chaos=chaos)
        assert [event.reason for event in guard.events] == ["non_finite_loss"]
        assert len(trainer.history) == EPOCHS
        assert finite_metrics(trainer)

    def test_rollback_with_checkpoints_on_disk(self, splits, tmp_path):
        dataset, train, test = splits
        chaos = ChaosEngine(seed=2).nan_grad_at(epoch=2, step=2)
        guard = DivergenceGuard()
        trainer = RRRETrainer(tiny_config())
        trainer.fit(
            dataset,
            train,
            test,
            checkpoint_dir=tmp_path,
            guard=guard,
            chaos=chaos,
        )
        assert guard.retries == 1
        assert len(trainer.history) == EPOCHS
        assert finite_metrics(trainer)


class TestRetryExhaustion:
    def test_persistent_divergence_fails_structurally(self, splits):
        dataset, train, test = splits
        chaos = ChaosEngine(seed=0).nan_grad_at(epoch=1, step=1, times=None)
        trainer = RRRETrainer(tiny_config())
        with pytest.raises(DivergenceError) as excinfo:
            trainer.fit(
                dataset,
                train,
                test,
                guard=DivergencePolicy(max_retries=2),
                chaos=chaos,
            )
        error = excinfo.value
        assert len(error.events) == 3  # 2 rollbacks + the terminal event
        payload = error.to_dict()
        assert payload["events"][0]["reason"] == "non_finite_grad_norm"
        # Backoff compounded across retries before the budget ran out.
        assert payload["events"][1]["lr_before"] == pytest.approx(
            payload["events"][0]["lr_after"]
        )

    def test_zero_retries_fails_immediately(self, splits):
        dataset, train, test = splits
        chaos = ChaosEngine(seed=0).nan_grad_at(epoch=1, step=1)
        with pytest.raises(DivergenceError):
            RRRETrainer(tiny_config()).fit(
                dataset,
                train,
                test,
                guard=DivergencePolicy(max_retries=0),
                chaos=chaos,
            )


class TestGuardChecks:
    def test_batch_thresholds(self):
        guard = DivergenceGuard(DivergencePolicy(max_grad_norm=10.0, max_loss=100.0))
        assert guard.check_batch(1.0, 1.0) is None
        assert guard.check_batch(float("nan"), 1.0) == "non_finite_loss"
        assert guard.check_batch(1.0, float("inf")) == "non_finite_grad_norm"
        assert guard.check_batch(1.0, 11.0) == "exploding_grad_norm"
        assert guard.check_batch(101.0, 1.0) == "loss_overflow"

    def test_thresholds_can_be_disabled(self):
        guard = DivergenceGuard(DivergencePolicy(max_grad_norm=None, max_loss=None))
        assert guard.check_batch(1e12, 1e12) is None

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DivergencePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            DivergencePolicy(lr_backoff=1.0)

    def test_backoff_floors_at_min_lr(self):
        guard = DivergenceGuard(DivergencePolicy(lr_backoff=0.5, min_lr=1e-3))
        assert guard.backoff_lr(1e-3) == 1e-3


class TestObservabilityIntegration:
    def test_rollback_and_checkpoint_events_traced(self, splits, tmp_path):
        dataset, train, test = splits
        events_path = tmp_path / "run.jsonl"
        chaos = ChaosEngine(seed=0).nan_grad_at(epoch=2, step=1)
        trainer = RRRETrainer(tiny_config())
        with Tracer(events_path) as tracer, use_tracer(tracer):
            trainer.fit(
                dataset,
                train,
                test,
                telemetry=True,
                checkpoint_dir=tmp_path / "ckpts",
                guard=True,
                chaos=chaos,
            )
        points = [e["name"] for e in read_events(events_path) if e["event"] == "point"]
        assert "rollback" in points
        assert "checkpoint" in points
        snapshot = trainer.metrics_registry.snapshot()
        assert "repro_rollbacks_total" in snapshot
        assert "repro_checkpoints_total" in snapshot
