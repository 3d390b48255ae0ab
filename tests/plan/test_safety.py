"""Safety contract: planned in-place kernels refuse stale state.

The planned executors reuse pooled scratch and read parameter arrays
in place, so their backward closures are only sound against the exact
arrays the forward saw.  These tests prove the two staleness detectors
— version counters and the executor generation — fire in every
situation where an in-place kernel would otherwise compute gradients
from overwritten state, and that the graph validator sees the same
conflicts the executor does.
"""

import numpy as np
import pytest

from repro.analysis import snapshot_graph
from repro.nn import SGD, BiLSTM, Tensor
from repro.nn import functional as F
from repro.plan import PlanSafetyError, compile_plan


def _planned_bilstm(seed=0, B=4, L=5, D=3, H=4):
    rng = np.random.default_rng(seed)
    layer = BiLSTM(D, H, rng)
    plan = compile_plan(layer).install()
    x = Tensor(rng.normal(size=(B, L, D)), requires_grad=True)
    return layer, plan, x


class TestVersionConflicts:
    def test_optimizer_step_before_backward_raises(self):
        layer, plan, x = _planned_bilstm()
        try:
            opt = SGD(layer.parameters(), lr=0.1)
            # First round populates gradients legitimately.
            F.sum(layer(x)).backward()
            # Second forward, then the optimizer fires too early: the
            # parameter arrays the planned kernels captured are gone.
            loss = F.sum(layer(x))
            opt.step()
            with pytest.raises(PlanSafetyError, match="version"):
                loss.backward()
        finally:
            plan.uninstall()

    def test_data_rebind_before_backward_raises(self):
        layer, plan, x = _planned_bilstm()
        try:
            loss = F.sum(layer(x))
            weight = layer.forward_lstm.cell.weight
            weight.data = weight.data * 1.0  # setter bumps the version
            with pytest.raises(PlanSafetyError, match="version"):
                loss.backward()
        finally:
            plan.uninstall()

    def test_input_mutation_before_backward_raises(self):
        layer, plan, x = _planned_bilstm()
        try:
            loss = F.sum(layer(x))
            x.bump_version()  # declares an out-of-band write to x.data
            with pytest.raises(PlanSafetyError, match="version"):
                loss.backward()
        finally:
            plan.uninstall()


class TestGenerationConflicts:
    def test_double_forward_invalidates_first_tape(self):
        layer, plan, x = _planned_bilstm()
        try:
            first = F.sum(layer(x))
            layer(x)  # overwrites the pooled activations
            with pytest.raises(PlanSafetyError, match="generation"):
                first.backward()
        finally:
            plan.uninstall()

    def test_latest_forward_stays_valid(self):
        layer, plan, x = _planned_bilstm()
        try:
            layer(x)
            F.sum(layer(x)).backward()  # newest tape owns the buffers: fine
            assert x.grad is not None
        finally:
            plan.uninstall()

    def test_second_backward_through_one_forward_raises(self):
        # Backward writes the gate gradients over the pooled activations,
        # so a replay of the same tape would read gradients as gates.
        layer, plan, x = _planned_bilstm()
        try:
            loss = F.sum(layer(x))
            loss.backward()
            with pytest.raises(PlanSafetyError, match="second backward"):
                loss.backward()
        finally:
            plan.uninstall()


class TestGraphValidatorAgreement:
    def test_no_inplace_kernel_runs_on_a_snapshot_conflict(self):
        # The PR-4 graph validator and the executor must agree: any
        # mutation the snapshot can see blocks the planned backward.
        layer, plan, x = _planned_bilstm()
        try:
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
        finally:
            plan.uninstall()

    def test_training_loop_discipline_passes(self):
        # backward -> step -> next forward never trips the detectors:
        # the version bumps land before the next capture, not after.
        layer, plan, x = _planned_bilstm()
        try:
            opt = SGD(layer.parameters(), lr=0.05)
            losses = []
            for _ in range(3):
                opt.zero_grad()
                summary = layer(x)
                loss = F.sum(summary * summary)
                loss.backward()
                opt.step()
                losses.append(float(loss.data))
            assert losses[-1] < losses[0]  # it actually trains
        finally:
            plan.uninstall()


class TestInstallLifecycle:
    def test_uninstall_restores_interpreted_mode(self):
        layer, plan, x = _planned_bilstm()
        plan.uninstall()
        assert layer._planned is None
        F.sum(layer(x)).backward()  # interpreted path, no safety machinery
        assert x.grad is not None

    def test_context_manager_scopes_the_install(self):
        rng = np.random.default_rng(1)
        layer = BiLSTM(3, 4, rng)
        plan = compile_plan(layer)
        assert layer._planned is None
        with plan:
            assert layer._planned is not None
        assert layer._planned is None

    def test_unplannable_model_is_rejected(self):
        from repro.nn import Linear

        with pytest.raises(ValueError, match="nothing to plan"):
            compile_plan(Linear(3, 2, np.random.default_rng(0)))

    def test_describe_mentions_safety_and_buffers(self):
        layer, plan, _ = _planned_bilstm()
        try:
            text = plan.describe(explain=True)
            assert "PlanSafetyError" in text
            assert "buffer pool" in text
            assert "out:" in text and "buf:" in text
        finally:
            plan.uninstall()
