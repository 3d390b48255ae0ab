"""Full-config parity: the default (fused) fit matches the reference layers.

The per-layer suite pins each kernel; this one pins the composition —
the complete RRRE model (embeddings, BiLSTM review encoders, fraud
attention, FM rating head) trained end to end on a real synthetic
dataset must produce the same losses, parameters, and evaluation
metrics to 1e-9 whether the encoders and the attention softmax run
fused or as their reference compositions.
"""

import numpy as np
import pytest

from repro.core import RRRETrainer, fast_config
from repro.data import load_dataset, train_test_split
from repro.nn import BiLSTM

TOL = 1e-9


@pytest.fixture(scope="module")
def parity_pair(reference_layers):
    dataset = load_dataset("yelpchi", seed=5, scale=0.2)
    train, test = train_test_split(dataset, seed=5)
    calls = {"reference": 0}
    reference_forward = BiLSTM.reference_forward

    def counted(self, x, mask=None):
        calls["reference"] += 1
        return reference_forward(self, x, mask)

    def run():
        trainer = RRRETrainer(fast_config(epochs=3, seed=5))
        trainer.fit(dataset, train)
        metrics = trainer.evaluate(test)
        return trainer, metrics

    with reference_layers(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(BiLSTM, "forward", counted)
        interp, interp_metrics = run()
    reference_calls = calls["reference"]
    fused, fused_metrics = run()
    assert calls["reference"] == reference_calls  # the fused fit never ran it
    return interp, interp_metrics, fused, fused_metrics, reference_calls


class TestFullModelParity:
    def test_epoch_losses_match(self, parity_pair):
        interp, _, fused, _, _ = parity_pair
        assert len(interp.history) == len(fused.history) == 3
        for a, b in zip(interp.history, fused.history):
            assert abs(a.train_loss - b.train_loss) <= TOL
            assert abs(a.reliability_loss - b.reliability_loss) <= TOL
            assert abs(a.rating_loss - b.rating_loss) <= TOL
            assert abs(a.grad_norm - b.grad_norm) <= TOL

    def test_final_parameters_match(self, parity_pair):
        interp, _, fused, _, _ = parity_pair
        a = dict(interp.model.named_parameters())
        b = dict(fused.model.named_parameters())
        assert set(a) == set(b)
        for name in a:
            diff = float(np.max(np.abs(a[name].data - b[name].data)))
            assert diff <= TOL, f"{name}: {diff}"

    def test_eval_metrics_match(self, parity_pair):
        _, interp_metrics, _, fused_metrics, _ = parity_pair
        assert set(interp_metrics) == set(fused_metrics)
        for key in interp_metrics:
            assert abs(interp_metrics[key] - fused_metrics[key]) <= TOL, key

    def test_reference_trainer_ran_interpreted(self, parity_pair):
        # The reference fit encoded its reviews through the child LSTMs
        # (two encoders, every epoch), so the parity above compares two
        # different code paths.
        interp, _, _, _, reference_calls = parity_pair
        assert reference_calls >= 2 * len(interp.history)
