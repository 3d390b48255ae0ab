"""Differentiable operations on :class:`~repro.nn.tensor.Tensor`.

Every function returns a new tensor whose ``backward_fn`` computes the
vector-Jacobian product with respect to each parent.  Parents that are
plain arrays/scalars are wrapped as constant tensors, so mixed
``Tensor``/``ndarray`` arithmetic works everywhere.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .tensor import ArrayLike, Tensor, ensure_tensor, unbroadcast

# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise ``a + b`` with numpy broadcasting."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = Tensor(
        a.data + b.data,
        requires_grad=a.requires_grad or b.requires_grad,
        parents=(a, b),
        backward_fn=lambda g: (unbroadcast(g, a.shape), unbroadcast(g, b.shape)),
    )
    return out


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise ``a - b``."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    return Tensor(
        a.data - b.data,
        requires_grad=a.requires_grad or b.requires_grad,
        parents=(a, b),
        backward_fn=lambda g: (unbroadcast(g, a.shape), unbroadcast(-g, b.shape)),
    )


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise product."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    return Tensor(
        a.data * b.data,
        requires_grad=a.requires_grad or b.requires_grad,
        parents=(a, b),
        backward_fn=lambda g: (
            unbroadcast(g * b.data, a.shape),
            unbroadcast(g * a.data, b.shape),
        ),
    )


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise quotient."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    return Tensor(
        a.data / b.data,
        requires_grad=a.requires_grad or b.requires_grad,
        parents=(a, b),
        backward_fn=lambda g: (
            unbroadcast(g / b.data, a.shape),
            unbroadcast(-g * a.data / (b.data**2), b.shape),
        ),
    )


def neg(a: ArrayLike) -> Tensor:
    """Elementwise negation."""
    a = ensure_tensor(a)
    return Tensor(
        -a.data,
        requires_grad=a.requires_grad,
        parents=(a,),
        backward_fn=lambda g: (-g,),
    )


def power(a: ArrayLike, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant exponent."""
    a = ensure_tensor(a)
    exponent = float(exponent)
    return Tensor(
        a.data**exponent,
        requires_grad=a.requires_grad,
        parents=(a,),
        backward_fn=lambda g: (g * exponent * a.data ** (exponent - 1.0),),
    )


def sqrt(a: ArrayLike) -> Tensor:
    """Elementwise square root."""
    return power(a, 0.5)


def absolute(a: ArrayLike) -> Tensor:
    """Elementwise absolute value (subgradient 0 at 0)."""
    a = ensure_tensor(a)
    return Tensor(
        np.abs(a.data),
        requires_grad=a.requires_grad,
        parents=(a,),
        backward_fn=lambda g: (g * np.sign(a.data),),
    )


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise maximum; ties send the gradient to ``a``."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    mask = a.data >= b.data
    return Tensor(
        np.maximum(a.data, b.data),
        requires_grad=a.requires_grad or b.requires_grad,
        parents=(a, b),
        backward_fn=lambda g: (
            unbroadcast(g * mask, a.shape),
            unbroadcast(g * ~mask, b.shape),
        ),
    )


def clip(a: ArrayLike, low: float, high: float) -> Tensor:
    """Clamp values to ``[low, high]``; gradient is zero outside the band."""
    a = ensure_tensor(a)
    inside = (a.data >= low) & (a.data <= high)
    return Tensor(
        np.clip(a.data, low, high),
        requires_grad=a.requires_grad,
        parents=(a,),
        backward_fn=lambda g: (g * inside,),
    )


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


def exp(a: ArrayLike) -> Tensor:
    """Elementwise exponential."""
    a = ensure_tensor(a)
    value = np.exp(a.data)
    return Tensor(
        value,
        requires_grad=a.requires_grad,
        parents=(a,),
        backward_fn=lambda g: (g * value,),
    )


def log(a: ArrayLike) -> Tensor:
    """Elementwise natural logarithm."""
    a = ensure_tensor(a)
    return Tensor(
        np.log(a.data),
        requires_grad=a.requires_grad,
        parents=(a,),
        backward_fn=lambda g: (g / a.data,),
    )


def tanh(a: ArrayLike) -> Tensor:
    """Elementwise hyperbolic tangent."""
    a = ensure_tensor(a)
    value = np.tanh(a.data)
    return Tensor(
        value,
        requires_grad=a.requires_grad,
        parents=(a,),
        backward_fn=lambda g: (g * (1.0 - value**2),),
    )


def sigmoid(a: ArrayLike) -> Tensor:
    """Numerically stable logistic sigmoid."""
    a = ensure_tensor(a)
    # tanh formulation avoids overflow in exp for |x| large.
    value = 0.5 * (1.0 + np.tanh(0.5 * a.data))
    return Tensor(
        value,
        requires_grad=a.requires_grad,
        parents=(a,),
        backward_fn=lambda g: (g * value * (1.0 - value),),
    )


def relu(a: ArrayLike) -> Tensor:
    """Rectified linear unit."""
    a = ensure_tensor(a)
    mask = a.data > 0
    return Tensor(
        a.data * mask,
        requires_grad=a.requires_grad,
        parents=(a,),
        backward_fn=lambda g: (g * mask,),
    )


def softmax(a: ArrayLike, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (stable: shifts by the max)."""
    a = ensure_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    value = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray):
        dot = (g * value).sum(axis=axis, keepdims=True)
        return (value * (g - dot),)

    return Tensor(value, requires_grad=a.requires_grad, parents=(a,), backward_fn=backward)


def log_softmax(a: ArrayLike, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` (stable log-sum-exp form)."""
    a = ensure_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    value = shifted - lse
    probs = np.exp(value)

    def backward(g: np.ndarray):
        return (g - probs * g.sum(axis=axis, keepdims=True),)

    return Tensor(value, requires_grad=a.requires_grad, parents=(a,), backward_fn=backward)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Matrix product with numpy ``@`` semantics (supports batched 3-d)."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    value = a.data @ b.data

    def backward(g: np.ndarray):
        a_data, b_data = a.data, b.data
        if a_data.ndim == 1 and b_data.ndim == 1:
            return (g * b_data, g * a_data)
        if a_data.ndim == 1:
            # (m,) @ (..., m, p) -> (..., p)
            ga = (g[..., None, :] * b_data).sum(axis=-1)
            ga = unbroadcast(ga, a_data.shape)
            gb = a_data[:, None] * g[..., None, :]
            return (ga, unbroadcast(gb, b_data.shape))
        if b_data.ndim == 1:
            # (..., n, m) @ (m,) -> (..., n)
            ga = g[..., :, None] * b_data[None, :]
            gb = (g[..., :, None] * a_data).sum(axis=tuple(range(g.ndim)))
            return (unbroadcast(ga, a_data.shape), unbroadcast(gb, b_data.shape))
        ga = g @ np.swapaxes(b_data, -1, -2)
        gb = np.swapaxes(a_data, -1, -2) @ g
        return (unbroadcast(ga, a_data.shape), unbroadcast(gb, b_data.shape))

    return Tensor(
        value,
        requires_grad=a.requires_grad or b.requires_grad,
        parents=(a, b),
        backward_fn=backward,
    )


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def reshape(a: ArrayLike, shape: tuple) -> Tensor:
    """Reshape preserving element order."""
    a = ensure_tensor(a)
    return Tensor(
        a.data.reshape(shape),
        requires_grad=a.requires_grad,
        parents=(a,),
        backward_fn=lambda g: (g.reshape(a.shape),),
    )


def transpose(a: ArrayLike, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Permute axes (full reversal when ``axes`` is None)."""
    a = ensure_tensor(a)
    if axes is None:
        inverse = None
    else:
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
    return Tensor(
        np.transpose(a.data, axes),
        requires_grad=a.requires_grad,
        parents=(a,),
        backward_fn=lambda g: (np.transpose(g, inverse),),
    )


def getitem(a: ArrayLike, index) -> Tensor:
    """Basic/advanced indexing; the adjoint scatters with ``np.add.at``."""
    a = ensure_tensor(a)

    def backward(g: np.ndarray):
        full = np.zeros_like(a.data)
        np.add.at(full, index, g)
        return (full,)

    return Tensor(a.data[index], requires_grad=a.requires_grad, parents=(a,), backward_fn=backward)


def concat(tensors: Sequence[ArrayLike], axis: int = -1) -> Tensor:
    """Concatenate along ``axis``."""
    tensors = [ensure_tensor(t) for t in tensors]
    value = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray):
        grads = []
        for i in range(len(tensors)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)

    return Tensor(
        value,
        requires_grad=any(t.requires_grad for t in tensors),
        parents=tuple(tensors),
        backward_fn=backward,
    )


def stack(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    """Stack along a new axis."""
    tensors = [ensure_tensor(t) for t in tensors]
    value = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray):
        pieces = np.split(g, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)

    return Tensor(
        value,
        requires_grad=any(t.requires_grad for t in tensors),
        parents=tuple(tensors),
        backward_fn=backward,
    )


def split(a: ArrayLike, sections: int, axis: int = -1) -> list:
    """Split into ``sections`` equal tensors along ``axis``."""
    a = ensure_tensor(a)
    width = a.shape[axis] // sections
    outs = []
    for i in range(sections):
        sl = [slice(None)] * a.ndim
        sl[axis] = slice(i * width, (i + 1) * width)
        outs.append(getitem(a, tuple(sl)))
    return outs


def expand_dims(a: ArrayLike, axis: int) -> Tensor:
    """Insert a size-one axis."""
    a = ensure_tensor(a)
    return Tensor(
        np.expand_dims(a.data, axis),
        requires_grad=a.requires_grad,
        parents=(a,),
        backward_fn=lambda g: (np.squeeze(g, axis=axis),),
    )


def squeeze(a: ArrayLike, axis: int) -> Tensor:
    """Remove a size-one axis."""
    a = ensure_tensor(a)
    return Tensor(
        np.squeeze(a.data, axis=axis),
        requires_grad=a.requires_grad,
        parents=(a,),
        backward_fn=lambda g: (np.expand_dims(g, axis),),
    )


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def sum(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum over ``axis`` (all axes when None)."""
    a = ensure_tensor(a)
    value = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        g_expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_expanded, a.shape).copy(),)

    return Tensor(value, requires_grad=a.requires_grad, parents=(a,), backward_fn=backward)


def mean(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean over ``axis``."""
    a = ensure_tensor(a)
    if axis is None:
        count = a.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.shape[ax] for ax in axis]))
    else:
        count = a.shape[axis]
    return sum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def max(a: ArrayLike, axis: int, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Maximum along ``axis``; gradient flows to the (first) argmax only."""
    a = ensure_tensor(a)
    value = a.data.max(axis=axis, keepdims=keepdims)
    expanded = value if keepdims else np.expand_dims(value, axis)
    winners = a.data == expanded
    # Break ties: keep only the first winner along the axis.
    first = np.cumsum(winners, axis=axis) == 1
    winners = winners & first

    def backward(g: np.ndarray):
        g_expanded = g if keepdims else np.expand_dims(g, axis)
        return (g_expanded * winners,)

    return Tensor(value, requires_grad=a.requires_grad, parents=(a,), backward_fn=backward)


# ---------------------------------------------------------------------------
# Embedding lookup and masking
# ---------------------------------------------------------------------------


def take_rows(weight: ArrayLike, indices: np.ndarray) -> Tensor:
    """Gather rows of a 2-d ``weight`` by an integer index array.

    The output shape is ``indices.shape + (weight.shape[1],)``.  This is
    the kernel behind :class:`~repro.nn.layers.Embedding`.
    """
    weight = ensure_tensor(weight)
    indices = np.asarray(indices, dtype=np.int64)
    rows, cols = weight.shape

    def backward(g: np.ndarray):
        # One bincount per column adds in index order, like np.add.at
        # (so the result is bitwise equal), at a fraction of its cost.
        flat = indices.reshape(-1)
        flat = np.where(flat < 0, flat + rows, flat)
        g = g.reshape(-1, cols)
        full = np.empty_like(weight.data)
        for j in range(cols):
            full[:, j] = np.bincount(flat, weights=g[:, j], minlength=rows)
        return (full,)

    return Tensor(
        weight.data[indices],
        requires_grad=weight.requires_grad,
        parents=(weight,),
        backward_fn=backward,
    )


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Select from ``a`` where ``condition`` else ``b`` (condition constant)."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    return Tensor(
        np.where(condition, a.data, b.data),
        requires_grad=a.requires_grad or b.requires_grad,
        parents=(a, b),
        backward_fn=lambda g: (
            unbroadcast(g * condition, a.shape),
            unbroadcast(g * ~condition, b.shape),
        ),
    )


def masked_fill(a: ArrayLike, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where ``mask`` is True by a constant ``value``."""
    a = ensure_tensor(a)
    mask = np.asarray(mask, dtype=bool)
    return Tensor(
        np.where(mask, value, a.data),
        requires_grad=a.requires_grad,
        parents=(a,),
        backward_fn=lambda g: (g * ~mask,),
    )


def dropout(a: ArrayLike, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-rate)``."""
    a = ensure_tensor(a)
    if not training or rate <= 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    mask = (rng.random(a.shape) < keep) / keep
    return Tensor(
        a.data * mask,
        requires_grad=a.requires_grad,
        parents=(a,),
        backward_fn=lambda g: (g * mask,),
    )
