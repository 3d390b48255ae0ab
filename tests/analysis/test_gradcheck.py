"""Finite-difference gradient checks: every layer passes, sabotage fails."""

import numpy as np
import pytest

from repro.analysis import LAYER_CASES, GradcheckResult, gradcheck, run_layer_gradchecks
from repro.nn import Tensor
from repro.nn import functional as F
from tests.helpers import check_gradients


class TestGradcheckCore:
    def test_correct_gradient_passes(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4,)), requires_grad=True)
        result = gradcheck(lambda t: t * t, [x], name="square")
        assert result.ok
        assert result.max_rel_err < 1e-4
        assert result.num_checked == 4

    def test_wrong_gradient_is_caught(self):
        def bad_square(t):
            out = Tensor(t.data**2, requires_grad=True)
            out._parents = (t,)
            # Deliberately wrong: d(x²)/dx is 2x, not 3x.
            out._backward_fn = lambda grad: (3.0 * t.data * grad,)
            return out

        x = Tensor(np.random.default_rng(0).normal(size=(4,)), requires_grad=True)
        result = gradcheck(bad_square, [x], name="bad")
        assert not result.ok
        assert len(result.failures) == 4

    def test_raise_on_failure(self):
        def bad(t):
            out = Tensor(t.data * 2.0, requires_grad=True)
            out._parents = (t,)
            out._backward_fn = lambda grad: (np.zeros_like(grad),)  # drops it
            return out

        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(AssertionError, match="gradcheck"):
            gradcheck(bad, [x], raise_on_failure=True)

    def test_tuple_outputs_are_all_projected(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3,)), requires_grad=True)
        result = gradcheck(lambda t: (t * t, F.sum(t)), [x])
        assert result.ok

    def test_needs_a_checked_tensor(self):
        with pytest.raises(ValueError):
            gradcheck(lambda t: t, [Tensor(np.ones(3))])

    def test_max_elements_subsamples(self):
        x = Tensor(np.random.default_rng(0).normal(size=(100,)), requires_grad=True)
        result = gradcheck(lambda t: t * t, [x], max_elements=10)
        assert result.num_checked == 10


def linear_sum(grad: float, error: float):
    """``sum(grad * t)`` as one scalar node whose backward is off by ``error``."""

    def fn(t):
        out = Tensor(np.array((grad * t.data).sum()), requires_grad=True)
        out._parents = (t,)
        out._backward_fn = lambda g: (np.full_like(t.data, grad + error) * g,)
        return out

    return fn


class TestTolerance:
    """Each element passes iff |analytic - numeric| <= atol + rtol * |numeric|."""

    @pytest.mark.parametrize(
        "grad, atol, rtol",
        [(1e-3, 1e-6, 1e-4), (50.0, 1e-6, 1e-4), (2.0, 1e-6, 1e-3), (0.0, 1e-6, 1e-4)],
    )
    def test_bound_is_atol_plus_rtol_times_numeric(self, grad, atol, rtol):
        bound = atol + rtol * abs(grad)
        for factor, ok in ((0.9, True), (1.1, False)):
            x = Tensor(np.random.default_rng(0).normal(size=(4,)), requires_grad=True)
            fn = linear_sum(grad, factor * bound)
            assert gradcheck(fn, [x], atol=atol, rtol=rtol).ok is ok

    def test_scalar_output_is_not_rescaled(self):
        # A random projection of a scalar output would shrink this error
        # below atol along with the gradient itself.
        x = Tensor(np.random.default_rng(0).normal(size=(4,)), requires_grad=True)
        result = gradcheck(linear_sum(1e-3, 5e-6), [x], atol=1e-6)
        assert len(result.failures) == 4

    def test_nan_gradient_fails(self):
        x = Tensor(np.ones(3), requires_grad=True)
        assert not gradcheck(linear_sum(1.0, np.nan), [x]).ok

    def test_check_gradients_rejects_small_absolute_error(self):
        with pytest.raises(AssertionError, match="gradcheck"):
            check_gradients(
                lambda ts: linear_sum(1e-3, 5e-6)(ts[0]),
                [np.random.default_rng(0).normal(size=(4,))],
            )


class TestLayerRegistry:
    EXPECTED = {
        "Linear",
        "Embedding",
        "Dropout",
        "Conv1d",
        "TextCNN",
        "LSTMCell",
        "LSTM",
        "BiLSTM",
        "GRUCell",
        "GRU",
        "ReviewAttention",
        "FactorizationMachine",
    }

    def test_every_layer_has_a_case(self):
        assert set(LAYER_CASES) == self.EXPECTED

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_layer_gradients_match(self, name):
        result = run_layer_gradchecks([name], max_elements=30)[name]
        assert isinstance(result, GradcheckResult)
        assert result.ok, "\n".join(str(f) for f in result.failures[:10])
        # The acceptance bar: relative error below 1e-4 in float64.
        assert result.max_rel_err < 1e-4

    def test_unknown_case_rejected(self):
        with pytest.raises(KeyError):
            run_layer_gradchecks(["NoSuchLayer"])
