"""Tests for optimizers and gradient clipping."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn.optim import clip_grad_norm


def quadratic_param(start=5.0):
    return nn.Parameter(np.array([start]))


def converges(optimizer_factory, steps=200, tol=1e-2):
    """Minimize f(x) = (x - 2)^2 and report the final distance to optimum."""
    p = quadratic_param()
    opt = optimizer_factory([p])
    for _ in range(steps):
        opt.zero_grad()
        loss = (p - 2.0) * (p - 2.0)
        loss.sum().backward()
        opt.step()
    return abs(float(p.data[0]) - 2.0) < tol


class TestAdam:
    def test_converges_on_quadratic(self):
        assert converges(lambda ps: nn.Adam(ps, lr=0.1))

    def test_first_step_size_is_lr(self):
        # With bias correction, the first Adam step is ≈ lr in magnitude.
        p = nn.Parameter(np.array([0.0]))
        opt = nn.Adam([p], lr=0.01)
        p.grad = np.array([123.0])
        opt.step()
        assert abs(p.data[0]) == pytest.approx(0.01, rel=1e-3)

    def test_state_is_per_parameter(self):
        a, b = nn.Parameter(np.array([1.0])), nn.Parameter(np.array([1.0]))
        opt = nn.Adam([a, b], lr=0.1)
        a.grad = np.array([1.0])
        b.grad = np.array([-1.0])
        opt.step()
        assert a.data[0] < 1.0 < b.data[0]

    def test_weight_decay_shrinks_parameter(self):
        # A zero gradient plus decay 1.0 is a gradient of 10; the first
        # bias-corrected Adam step moves by lr against its sign.
        p = nn.Parameter(np.array([10.0]))
        opt = nn.Adam([p], lr=1.0, weight_decay=1.0)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] == pytest.approx(9.0)

    def test_none_grad_skipped(self):
        p = nn.Parameter(np.array([1.0]))
        opt = nn.Adam([p], lr=0.1)
        opt.step()  # no backward happened; should not crash
        assert p.data[0] == 1.0

    def test_empty_parameters_raise(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_nonpositive_lr_raises(self):
        with pytest.raises(ValueError):
            nn.Adam([quadratic_param()], lr=0.0)


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = nn.Parameter(np.zeros(3))
        p.grad = np.array([1.0, 0.0, 0.0])
        norm = clip_grad_norm([p], max_norm=5.0)
        assert norm == pytest.approx(1.0)
        np.testing.assert_allclose(p.grad, [1.0, 0.0, 0.0])

    def test_clips_to_max_norm(self):
        p = nn.Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_global_norm_across_parameters(self):
        a, b = nn.Parameter(np.zeros(1)), nn.Parameter(np.zeros(1))
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        clip_grad_norm([a, b], max_norm=1.0)
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        assert total == pytest.approx(1.0)

    def test_handles_missing_grads(self):
        p = nn.Parameter(np.zeros(2))
        assert clip_grad_norm([p], max_norm=1.0) == 0.0


def step_n(opt, params, steps, seed=0):
    """Drive ``steps`` updates with deterministic pseudo-gradients."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        for p in params:
            p.grad = rng.normal(size=p.data.shape)
        opt.step()


@pytest.mark.parametrize(
    "factory", [lambda ps: nn.Adam(ps, lr=0.01, weight_decay=1e-4)], ids=["adam"]
)
class TestOptimizerStateDict:
    def test_roundtrip_continues_identically(self, factory):
        """Restore after k steps, continue — bitwise-equal to never stopping."""
        a = [nn.Parameter(np.linspace(-1, 1, 6).reshape(2, 3))]
        b = [nn.Parameter(np.linspace(-1, 1, 6).reshape(2, 3))]
        ref, opt = factory(a), factory(b)
        step_n(ref, a, 5)
        step_n(opt, b, 3)
        saved = opt.state_dict()

        fresh = [nn.Parameter(np.array(b[0].data))]
        resumed = factory(fresh)
        resumed.load_state_dict(saved)
        # Replay the same tail gradients the reference saw on steps 4-5.
        rng = np.random.default_rng(0)
        for _ in range(3):
            rng.normal(size=(2, 3))
        for _ in range(2):
            fresh[0].grad = rng.normal(size=(2, 3))
            resumed.step()

        np.testing.assert_array_equal(fresh[0].data, a[0].data)

    def test_state_dict_is_a_copy(self, factory):
        params = [nn.Parameter(np.ones(4))]
        opt = factory(params)
        step_n(opt, params, 2)
        saved = opt.state_dict()
        step_n(opt, params, 2)
        reloaded = factory([nn.Parameter(np.ones(4))])
        reloaded.load_state_dict(saved)  # mutating opt did not corrupt `saved`
        assert reloaded.state_dict()["lr"] == saved["lr"]

    def test_missing_key_rejected(self, factory):
        params = [nn.Parameter(np.ones(2))]
        opt = factory(params)
        state = opt.state_dict()
        del state["lr"]
        with pytest.raises(KeyError):
            factory([nn.Parameter(np.ones(2))]).load_state_dict(state)

    def test_shape_mismatch_rejected(self, factory):
        opt = factory([nn.Parameter(np.ones(3))])
        step_n(opt, opt.parameters, 1)
        state = opt.state_dict()
        with pytest.raises(ValueError):
            factory([nn.Parameter(np.ones(5))]).load_state_dict(state)

    def test_param_count_mismatch_rejected(self, factory):
        opt = factory([nn.Parameter(np.ones(2))])
        state = opt.state_dict()
        two = factory([nn.Parameter(np.ones(2)), nn.Parameter(np.ones(2))])
        with pytest.raises(ValueError):
            two.load_state_dict(state)


class TestStateDictStrictness:
    def test_wrong_optimizer_type_rejected(self):
        # Checkpoint manifests are read from disk: a state written for
        # another optimizer must be refused, not half-loaded.
        state = nn.Adam([nn.Parameter(np.ones(2))], lr=0.1).state_dict()
        state["type"] = "SGD"
        with pytest.raises(ValueError, match="SGD"):
            nn.Adam([nn.Parameter(np.ones(2))], lr=0.1).load_state_dict(state)

    def test_bad_hyper_rejected_before_any_write(self):
        params = [nn.Parameter(np.ones(2))]
        source = nn.Adam(params, lr=0.1)
        step_n(source, params, 2)
        state = source.state_dict()
        del state["hyper"]["eps"]
        target = nn.Adam([nn.Parameter(np.ones(2))], lr=0.1)
        with pytest.raises(KeyError, match="eps"):
            target.load_state_dict(state)
        np.testing.assert_array_equal(target.state_dict()["state"][0]["m"], np.zeros(2))

    def test_unexpected_key_rejected(self):
        opt = nn.Adam([nn.Parameter(np.ones(2))], lr=0.1)
        state = opt.state_dict()
        state["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            nn.Adam([nn.Parameter(np.ones(2))], lr=0.1).load_state_dict(state)

    def test_adam_step_count_restored(self):
        params = [nn.Parameter(np.ones(2))]
        opt = nn.Adam(params, lr=0.1)
        step_n(opt, params, 4)
        restored = nn.Adam([nn.Parameter(np.ones(2))], lr=0.1)
        restored.load_state_dict(opt.state_dict())
        assert restored.state_dict()["hyper"]["step_count"] == 4


class TestClipGradNormNonFinite:
    def test_inf_norm_returned_unscaled(self):
        p = nn.Parameter(np.zeros(2))
        p.grad = np.array([np.inf, 1.0])
        norm = clip_grad_norm([p], max_norm=1.0)
        assert np.isinf(norm)
        # Gradients are left untouched — no silent zeroing.
        assert np.isinf(p.grad[0]) and p.grad[1] == 1.0

    def test_nan_norm_reported(self):
        p = nn.Parameter(np.zeros(2))
        p.grad = np.array([np.nan, 1.0])
        assert np.isnan(clip_grad_norm([p], max_norm=1.0))
