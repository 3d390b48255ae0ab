"""Autograd-graph validator: dead params, detachment, mutation, modes."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import functional as F
from repro.nn import Tensor
from repro.analysis import (
    snapshot_graph,
    track_mutation_sites,
    validate_graph,
)


RNG = np.random.default_rng(0)


class TwoHead(nn.Module):
    """A model whose second head can be deliberately left unused."""

    def __init__(self, use_b=True, detach=False, drop_rate=0.0):
        super().__init__()
        self.a = nn.Linear(3, 3, RNG)
        self.b = nn.Linear(3, 3, RNG)
        self.drop = nn.Dropout(drop_rate, np.random.default_rng(1))
        self.use_b = use_b
        self.detach = detach

    def forward(self, x):
        h = self.a(x)
        if self.detach:
            h = h.detach() * h
        if self.use_b:
            h = self.b(h)
        return F.sum(self.drop(h))


def make_loss(**kwargs):
    model = TwoHead(**kwargs)
    loss = model(Tensor(RNG.normal(size=(2, 3)), requires_grad=True))
    return model, loss


class TestDeadParameters:
    def test_all_reachable_when_used(self):
        model, loss = make_loss()
        report = validate_graph(loss, model=model)
        assert report.ok
        assert report.reachable_parameters == report.num_parameters == 4

    def test_unused_head_is_flagged_by_name(self):
        model, loss = make_loss(use_b=False)
        report = validate_graph(loss, model=model)
        assert not report.ok
        messages = [i.message for i in report.errors]
        assert any("b.weight" in m for m in messages)
        assert any("b.bias" in m for m in messages)

    def test_explicit_parameter_list(self):
        model, loss = make_loss(use_b=False)
        report = validate_graph(loss, parameters=model.parameters())
        assert not report.ok


class TestDetachment:
    def test_detach_on_the_path_warns(self):
        model, loss = make_loss(detach=True)
        report = validate_graph(loss, model=model)
        assert any(i.code == "detached-tensor" for i in report.warnings)

    def test_detach_of_a_leaf_is_silent(self):
        # Detaching a constant (no grad, no tape) is not suspicious.
        x = Tensor(np.ones(3))
        loss = F.sum(x.detach() * Tensor(np.ones(3), requires_grad=True))
        report = validate_graph(loss)
        assert not any(i.code == "detached-tensor" for i in report.issues)


class TestMutation:
    def test_data_rebind_is_caught_with_site(self):
        x = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        loss = F.sum(x * x)
        snap = snapshot_graph(loss)
        with track_mutation_sites():
            x.data = x.data * 2.0
        report = validate_graph(loss, snapshot=snap)
        assert not report.ok
        issue = next(i for i in report.errors if i.code == "mutated-tensor")
        assert "test_graph.py" in issue.message

    def test_direct_element_write_is_caught(self):
        x = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        loss = F.sum(x * x)
        snap = snapshot_graph(loss)
        x.data[2] = 99.0
        report = validate_graph(loss, snapshot=snap)
        assert any(i.code == "mutated-tensor" for i in report.errors)

    def test_clean_graph_has_no_mutation_issues(self):
        model, loss = make_loss()
        snap = snapshot_graph(loss)
        loss.backward()  # backward must not count as mutation
        report = validate_graph(loss, model=model, snapshot=snap)
        assert report.ok

    def test_optimizer_step_after_snapshot_is_caught(self):
        model, loss = make_loss()
        snap = snapshot_graph(loss)
        loss.backward()
        nn.Adam(model.parameters(), lr=0.1).step()
        report = validate_graph(loss, snapshot=snap)
        codes = {i.code for i in report.errors}
        assert "mutated-tensor" in codes


class TestModes:
    def test_dropout_active_in_eval_is_an_error(self):
        model = TwoHead(drop_rate=0.5)
        model.eval()
        model.drop.train()  # deliberately inconsistent
        loss = model(Tensor(RNG.normal(size=(2, 3))))
        report = validate_graph(loss, model=model, expect_training=False)
        assert any(i.code == "dropout-in-eval" for i in report.errors)

    def test_dropout_stuck_in_eval_warns_during_training(self):
        model = TwoHead(drop_rate=0.5)
        model.train()
        model.drop.eval()
        loss = model(Tensor(RNG.normal(size=(2, 3))))
        report = validate_graph(loss, model=model, expect_training=True)
        assert any(i.code == "dropout-stuck-in-eval" for i in report.warnings)

    def test_zero_rate_dropout_is_exempt(self):
        model = TwoHead(drop_rate=0.0)
        model.eval()
        model.drop.train()
        loss = model(Tensor(RNG.normal(size=(2, 3))))
        report = validate_graph(loss, model=model, expect_training=False)
        assert report.ok


class TestNonFinite:
    def test_nan_in_tape_is_an_error(self):
        x = Tensor(np.array([1.0, np.nan]), requires_grad=True)
        report = validate_graph(F.sum(x * x))
        assert any(i.code == "nonfinite-value" for i in report.errors)

    def test_log_near_zero_warns(self):
        x = Tensor(np.array([1e-15, 1.0]), requires_grad=True)
        report = validate_graph(F.sum(F.log(x)))
        assert any(i.code == "nonfinite-prone" for i in report.warnings)

    def test_healthy_values_are_silent(self):
        x = Tensor(np.array([0.5, 1.0]), requires_grad=True)
        report = validate_graph(F.sum(F.log(x)))
        assert report.ok and not report.warnings


class TestTensorRepr:
    def test_repr_carries_shape_dtype_grad(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True, name="x")
        text = repr(x)
        assert "shape=(2, 3)" in text
        assert "float64" in text
        assert "requires_grad=True" in text
        assert "name='x'" in text

    def test_repr_names_the_producing_op(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * x
        assert "grad_fn=<mul>" in repr(y)
        assert "grad_fn" not in repr(x)
