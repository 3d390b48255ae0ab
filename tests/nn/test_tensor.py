"""Unit tests for the Tensor core: construction, backward, bookkeeping."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_from_int_array_promotes_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.data.dtype == np.float64

    def test_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert b.data is a.data

    def test_scalar(self):
        t = Tensor(3.5)
        assert t.shape == ()
        assert t.item() == 3.5

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2


class TestBackward:
    def test_scalar_seed_defaults_to_one(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x
        y.backward()
        assert x.grad == pytest.approx(4.0)

    def test_gradient_accumulates_across_backward_calls(self):
        x = Tensor(3.0, requires_grad=True)
        (x * 2.0).backward()
        (x * 2.0).backward()
        assert x.grad == pytest.approx(4.0)

    def test_zero_grad_resets(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        x.zero_grad()
        assert x.grad is None

    def test_shared_subexpression_accumulates(self):
        # y = x*x + x*x : dy/dx = 4x
        x = Tensor(3.0, requires_grad=True)
        sq = x * x
        (sq + sq).backward()
        assert x.grad == pytest.approx(12.0)

    def test_diamond_graph(self):
        # z = (x+1)*(x+2): dz/dx = 2x+3
        x = Tensor(5.0, requires_grad=True)
        ((x + 1.0) * (x + 2.0)).backward()
        assert x.grad == pytest.approx(13.0)

    def test_only_leaves_keep_gradients(self):
        x = Tensor(3.0, requires_grad=True)
        sq = x * x
        y = sq + 1.0
        y.backward()
        assert x.grad == pytest.approx(6.0)
        assert sq.requires_grad and sq.grad is None
        assert y.grad is None  # the root is not a leaf either

    def test_backward_seed_shape_mismatch_raises(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError, match="seed shape"):
            x.backward(np.zeros(4))

    def test_no_grad_tensor_gets_no_gradient(self):
        x = Tensor(2.0, requires_grad=False)
        y = Tensor(3.0, requires_grad=True)
        (x * y).backward()
        assert x.grad is None
        assert y.grad == pytest.approx(2.0)

    def test_detach_cuts_graph(self):
        x = Tensor(2.0, requires_grad=True)
        y = (x * x).detach()
        z = y * 3.0
        z.backward()
        assert x.grad is None

    def test_deep_chain_does_not_overflow(self):
        # Long tape: iterative toposort must handle thousands of nodes.
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.backward()
        assert x.grad == pytest.approx(1.0)

    def test_nonscalar_backward_with_explicit_seed(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = x * 3.0
        y.backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [3.0, 30.0])


class TestOperatorSugar:
    def test_radd_rsub_rmul_rdiv(self):
        x = Tensor(2.0, requires_grad=True)
        assert (3.0 + x).item() == 5.0
        assert (3.0 - x).item() == 1.0
        assert (3.0 * x).item() == 6.0
        assert (8.0 / x).item() == 4.0

    def test_neg_and_pow(self):
        x = Tensor(3.0, requires_grad=True)
        y = (-x) ** 2
        y.backward()
        assert y.item() == 9.0
        assert x.grad == pytest.approx(6.0)

    def test_matmul_operator(self):
        a = Tensor(np.eye(2))
        b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose((a @ b).data, b.data)

    def test_indexing_operator(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x[0, 1].backward()
        expected = np.zeros((2, 3))
        expected[0, 1] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_transpose_property(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert x.T.shape == (3, 2)

    def test_reshape_method_accepts_varargs_and_tuple(self):
        x = Tensor(np.arange(6.0))
        assert x.reshape(2, 3).shape == (2, 3)
        assert x.reshape((3, 2)).shape == (3, 2)


class TestUnbroadcast:
    def test_broadcast_add_bias(self):
        x = Tensor(np.zeros((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])

    def test_broadcast_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        s = Tensor(2.0, requires_grad=True)
        (x * s).sum().backward()
        assert s.grad.shape == ()
        assert s.grad == pytest.approx(4.0)

    def test_broadcast_keepdim_axis(self):
        x = Tensor(np.ones((3, 1)), requires_grad=True)
        y = Tensor(np.ones((3, 5)))
        (x * y).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((3, 1), 5.0))

    def test_where_broadcasts(self):
        cond = np.array([True, False, True])
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(0.0, requires_grad=True)
        F.where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        assert b.grad == pytest.approx(1.0)
