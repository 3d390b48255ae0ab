"""Full-config parity: the default (planned) fit matches interpreted training.

The per-layer suite pins each kernel; this one pins the composition —
the complete RRRE model (embeddings, BiLSTM review encoders, fraud
attention, FM rating head) trained end to end on a real synthetic
dataset must produce the same losses, parameters, and evaluation
metrics to 1e-9 whether the hot path is interpreted or planned.
"""

import numpy as np
import pytest

from repro.core import RRRETrainer, fast_config
from repro.data import load_dataset, train_test_split

TOL = 1e-9


class InterpretedTrainer(RRRETrainer):
    """The reference: every trainer installs its plan in ``_prepare``;
    this one takes it off again, so the model runs the interpreted layers."""

    def _prepare(self, dataset, train):
        super()._prepare(dataset, train)
        self.plan.uninstall()


@pytest.fixture(scope="module")
def parity_pair():
    dataset = load_dataset("yelpchi", seed=5, scale=0.2)
    train, test = train_test_split(dataset, seed=5)

    def run(trainer_cls):
        trainer = trainer_cls(fast_config(epochs=3, seed=5))
        trainer.fit(dataset, train)
        metrics = trainer.evaluate(test)
        return trainer, metrics

    interp, interp_metrics = run(InterpretedTrainer)
    planned, planned_metrics = run(RRRETrainer)
    return interp, interp_metrics, planned, planned_metrics


class TestFullModelParity:
    def test_plan_installed_and_covers_the_encoders(self, parity_pair):
        _, _, planned, _ = parity_pair
        assert planned.plan is not None and planned.plan.installed
        stats = planned.plan.stats()
        assert "bilstm" in stats["kinds"]
        assert "attention" in stats["kinds"]
        assert all(e.executor.generation > 0 for e in planned.plan.entries if e.executor)

    def test_epoch_losses_match(self, parity_pair):
        interp, _, planned, _ = parity_pair
        assert len(interp.history) == len(planned.history) == 3
        for a, b in zip(interp.history, planned.history):
            assert abs(a.train_loss - b.train_loss) <= TOL
            assert abs(a.reliability_loss - b.reliability_loss) <= TOL
            assert abs(a.rating_loss - b.rating_loss) <= TOL
            assert abs(a.grad_norm - b.grad_norm) <= TOL

    def test_final_parameters_match(self, parity_pair):
        interp, _, planned, _ = parity_pair
        a = dict(interp.model.named_parameters())
        b = dict(planned.model.named_parameters())
        assert set(a) == set(b)
        for name in a:
            diff = float(np.max(np.abs(a[name].data - b[name].data)))
            assert diff <= TOL, f"{name}: {diff}"

    def test_eval_metrics_match(self, parity_pair):
        _, interp_metrics, _, planned_metrics = parity_pair
        assert set(interp_metrics) == set(planned_metrics)
        for key in interp_metrics:
            assert abs(interp_metrics[key] - planned_metrics[key]) <= TOL, key

    def test_reference_trainer_ran_interpreted(self, parity_pair):
        interp, _, _, _ = parity_pair
        assert not interp.plan.installed
        assert all(e.executor.generation == 0 for e in interp.plan.entries if e.executor)
