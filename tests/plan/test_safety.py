"""Safety contract: the fused BiLSTM's backward refuses stale state.

The fused backward reads parameter arrays in place and overwrites its
own activations with gate gradients, so it is only sound against the
exact arrays the forward saw, and only once.  These tests prove the
version counters fire in every situation where the backward would
otherwise compute gradients from rebound state, that a second backward
through one forward is refused, that the graph validator sees the same
conflicts the layer does, and that each tape owns its scratch: an
older tape still backpropagates after a newer forward.
"""

import numpy as np
import pytest

from repro.analysis import snapshot_graph
from repro.nn import Adam, BiLSTM, PlanSafetyError, Tensor
from repro.nn import functional as F


def _bilstm(seed=0, B=4, L=5, D=3, H=4):
    rng = np.random.default_rng(seed)
    layer = BiLSTM(D, H, rng)
    x = Tensor(rng.normal(size=(B, L, D)), requires_grad=True)
    return layer, x


class TestVersionConflicts:
    def test_optimizer_step_before_backward_raises(self):
        layer, x = _bilstm()
        opt = Adam(layer.parameters(), lr=0.1)
        # First round populates gradients legitimately.
        F.sum(layer(x)).backward()
        # Second forward, then the optimizer fires too early: the
        # parameter arrays the fused forward read are gone.
        loss = F.sum(layer(x))
        opt.step()
        with pytest.raises(PlanSafetyError, match="version"):
            loss.backward()

    def test_data_rebind_before_backward_raises(self):
        layer, x = _bilstm()
        loss = F.sum(layer(x))
        weight = layer.forward_lstm.cell.weight
        weight.data = weight.data * 1.0  # setter bumps the version
        with pytest.raises(PlanSafetyError, match="version"):
            loss.backward()

    def test_input_mutation_before_backward_raises(self):
        layer, x = _bilstm()
        loss = F.sum(layer(x))
        x.bump_version()  # declares an out-of-band write to x.data
        with pytest.raises(PlanSafetyError, match="version"):
            loss.backward()


class TestGenerationConflicts:
    def test_older_tape_backward_after_newer_forward(self):
        # Each tape owns its scratch, so a newer forward leaves an older
        # tape intact: its backward equals the reference gradients.
        layer, x = _bilstm()
        other = Tensor(np.random.default_rng(9).normal(size=x.shape), requires_grad=True)
        first = F.sum(layer(x))
        layer(other)
        first.backward()
        fused = {n: p.grad.copy() for n, p in layer.named_parameters()}
        fused_dx = x.grad.copy()
        for p in [x, *layer.parameters()]:
            p.zero_grad()
        F.sum(layer.reference_forward(x)).backward()
        assert np.max(np.abs(fused_dx - x.grad)) <= 1e-9
        for name, p in layer.named_parameters():
            assert np.max(np.abs(fused[name] - p.grad)) <= 1e-9, name

    def test_latest_forward_stays_valid(self):
        layer, x = _bilstm()
        layer(x)
        F.sum(layer(x)).backward()
        assert x.grad is not None

    def test_second_backward_through_one_forward_raises(self):
        # Backward writes the gate gradients over the activations, so a
        # replay of the same tape would read gradients as gates.
        layer, x = _bilstm()
        loss = F.sum(layer(x))
        loss.backward()
        with pytest.raises(PlanSafetyError, match="second backward"):
            loss.backward()


class TestGraphValidatorAgreement:
    def test_no_inplace_kernel_runs_on_a_snapshot_conflict(self):
        # The graph validator and the fused layer must agree: any
        # mutation the snapshot can see blocks the fused backward.
        layer, x = _bilstm()
        loss = F.sum(layer(x))
        snapshot = snapshot_graph(loss)
        assert snapshot.find_mutations() == []  # clean tape: no issues

        weight = layer.forward_lstm.cell.weight
        weight.data = weight.data + 0.5
        issues = snapshot.find_mutations()
        assert issues, "validator missed the parameter rebind"
        assert any("version" in str(issue) for issue in issues)
        # ...and precisely because the conflict exists, the in-place
        # backward kernel refuses to run.
        with pytest.raises(PlanSafetyError):
            loss.backward()

    def test_training_loop_discipline_passes(self):
        # backward -> step -> next forward never trips the detectors:
        # the version bumps land before the next capture, not after.
        layer, x = _bilstm()
        opt = Adam(layer.parameters(), lr=0.05)
        losses = []
        for _ in range(3):
            opt.zero_grad()
            summary = layer(x)
            loss = F.sum(summary * summary)
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
        assert losses[-1] < losses[0]  # it actually trains


def test_explain_mentions_safety_and_scratch(capsys):
    from repro.__main__ import run_plan

    assert run_plan("yelpchi", 0.1, explain=True) == 0
    text = capsys.readouterr().out
    assert "PlanSafetyError" in text
    assert text.count("[bilstm]") == 2 and "[attention]" in text
    assert "out: summary" in text and "scratch: acts" in text
    assert "per-call scratch at B=" in text
