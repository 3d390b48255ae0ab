"""Reverse-mode automatic differentiation over numpy arrays.

This module is the execution substrate for every neural model in the
repository (RRRE itself plus the DeepCoNN / NARRE / DER baselines).  It
implements a define-by-run tape: each differentiable operation produces a
new :class:`Tensor` that remembers its parents and a closure computing the
local vector-Jacobian product.  Calling :meth:`Tensor.backward` walks the
tape in reverse topological order and accumulates gradients into the
leaves.

Design notes
------------
* Data is always stored as ``float64`` numpy arrays.  Review-scale models
  are small enough that the extra precision is free, and it makes the
  finite-difference gradient checks in the test suite tight.
* Broadcasting is supported for elementwise arithmetic; gradients flowing
  back through a broadcast are sum-reduced to the original shape by
  :func:`unbroadcast`.
* The graph is retained only through Python references, so dropping the
  loss tensor releases the whole tape — no explicit ``zero_grad`` of
  intermediate nodes is needed.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

#: Observability hook point: when set, called as ``observer(root, num_nodes,
#: seconds)`` after every :meth:`Tensor.backward`.  ``None`` (the default)
#: keeps backward on a fast path with a single global lookup of overhead.
_backward_observer: Optional[Callable[["Tensor", int, float], None]] = None

#: When True, every rebind of ``Tensor.data`` records the caller's
#: ``file:line`` in ``_mutation_site`` so the autograd-graph validator can
#: name the mutating site.  Off by default — the capture costs a frame
#: lookup per assignment, which the optimizer hot loop should not pay.
#: Toggled by :func:`repro.analysis.graph.track_mutation_sites`.
_track_mutation_sites: bool = False


def set_mutation_site_tracking(enabled: bool) -> bool:
    """Enable/disable mutation-site capture; returns the previous setting."""
    global _track_mutation_sites
    previous = _track_mutation_sites
    _track_mutation_sites = bool(enabled)
    return previous


def set_backward_observer(
    observer: Optional[Callable[["Tensor", int, float], None]]
) -> Optional[Callable[["Tensor", int, float], None]]:
    """Install (or clear, with ``None``) the backward-pass observer.

    Returns the previously installed observer so callers can restore it —
    :class:`repro.obs.ModuleProfiler` uses this to nest cleanly.
    """
    global _backward_observer
    previous = _backward_observer
    _backward_observer = observer
    return previous


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum-reduce ``grad`` so it matches ``shape`` after broadcasting.

    numpy broadcasting may (a) prepend new axes and (b) stretch axes of
    size one.  The adjoint of broadcasting is summation over exactly those
    axes.
    """
    if grad.shape == shape:
        return grad
    # Remove prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Collapse stretched axes.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed array node in the autodiff graph.

    Parameters
    ----------
    data:
        Array-like payload; converted to a ``float64`` ndarray.
    requires_grad:
        Whether gradients should flow to this tensor during
        :meth:`backward`; a leaf (no ``backward_fn``) accumulates them
        into ``self.grad``.
    parents:
        The tensors this node was computed from (internal).
    backward_fn:
        Closure mapping the upstream gradient to a tuple of gradients, one
        per parent (internal).
    name:
        Optional label used in ``repr`` — handy when debugging graphs.

    Notes
    -----
    ``data`` is a property over the ``_data`` slot: every rebind bumps a
    monotonically increasing version counter (:attr:`version`), which the
    static-analysis layer (:mod:`repro.analysis.graph`) compares across
    forward/backward to detect in-place mutation of tape-recorded arrays.
    Direct element writes through the shared ndarray (``t.data[i] = v``)
    bypass the setter; the validator catches those with content
    fingerprints instead.
    """

    __slots__ = (
        "_data",
        "grad",
        "requires_grad",
        "_parents",
        "_backward_fn",
        "name",
        "_version",
        "_mutation_site",
        "_detached_from",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Optional[Callable[[np.ndarray], tuple]] = None,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self._data = np.asarray(data, dtype=np.float64)
        self._version = 0
        self._mutation_site: Optional[str] = None
        self._detached_from: Optional["Tensor"] = None
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(parents)
        self._backward_fn = backward_fn
        self.name = name

    # ------------------------------------------------------------------
    # Data access with version counting
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The underlying float64 ndarray (shared, not copied)."""
        return self._data

    @data.setter
    def data(self, value: ArrayLike) -> None:
        self._data = np.asarray(value, dtype=np.float64)
        self._version += 1
        if _track_mutation_sites:
            frame = sys._getframe(1)
            self._mutation_site = f"{frame.f_code.co_filename}:{frame.f_lineno}"

    @property
    def version(self) -> int:
        """Bumped on every rebind of :attr:`data` (in-place ``+=`` included)."""
        return self._version

    def bump_version(self) -> None:
        """Record a sanctioned in-place write to :attr:`data`.

        Writers that mutate the underlying array through ``out=``-style
        kernels (the optimizer update site) bypass the ``data`` setter;
        calling this afterwards keeps the version counter — and
        therefore the graph validator's mutation detection — truthful
        about the write.
        """
        self._version += 1
        if _track_mutation_sites:
            frame = sys._getframe(1)
            self._mutation_site = f"{frame.f_code.co_filename}:{frame.f_lineno}"

    @property
    def mutation_site(self) -> Optional[str]:
        """``file:line`` of the last :attr:`data` rebind, when site tracking
        was enabled (:func:`set_mutation_site_tracking`)."""
        return self._mutation_site

    @property
    def grad_fn(self) -> Optional[str]:
        """Name of the op that produced this tensor, or None for leaves.

        Derived from the backward closure's qualified name, so every op in
        :mod:`repro.nn.functional` reports its public name (``"matmul"``,
        ``"softmax"``, ...) without per-op bookkeeping.
        """
        if self._backward_fn is None:
            return None
        qualname = getattr(self._backward_fn, "__qualname__", "")
        return qualname.split(".", 1)[0] or None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        bits = [f"shape={self.shape}", f"dtype={self.data.dtype}"]
        if self.requires_grad:
            bits.append("requires_grad=True")
        grad_fn = self.grad_fn
        if grad_fn is not None:
            bits.append(f"grad_fn=<{grad_fn}>")
        if self.name:
            bits.append(f"name={self.name!r}")
        return f"Tensor({', '.join(bits)})"

    def item(self) -> float:
        """Return the scalar payload of a 0-d / single-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        ``grad`` defaults to ones (a scalar loss gets seed 1.0).  Gradients
        accumulate additively in ``.grad`` of every reachable leaf (a
        tensor with ``requires_grad=True`` and no backward function:
        parameters and inputs).  Intermediate nodes pass their gradient
        on and keep ``.grad`` ``None``, so the tape holds no per-node
        gradient arrays.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"backward seed shape {grad.shape} does not match tensor shape {self.data.shape}"
            )

        observer = _backward_observer
        start = time.perf_counter() if observer is not None else 0.0

        order = _topological_order(self)
        pending: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            node_grad = pending.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward_fn is None:
                if node.requires_grad:
                    node.grad = node_grad if node.grad is None else node.grad + node_grad
                continue
            parent_grads = node._backward_fn(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None:
                    continue
                key = id(parent)
                if key in pending:
                    pending[key] = pending[key] + pgrad
                else:
                    pending[key] = pgrad

        if observer is not None:
            observer(self, len(order), time.perf_counter() - start)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph.

        The detachment provenance is kept (``_detached_from``) so the
        autograd-graph validator can flag a gradient path that was
        accidentally severed by a detach.
        """
        out = Tensor(self.data, requires_grad=False, name=self.name)
        if self.requires_grad or self._backward_fn is not None:
            out._detached_from = self
        return out

    # ------------------------------------------------------------------
    # Arithmetic operators (implemented in functional.py, bound late)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from . import functional as F

        return F.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from . import functional as F

        return F.sub(self, other)

    def __rsub__(self, other):
        from . import functional as F

        return F.sub(other, self)

    def __mul__(self, other):
        from . import functional as F

        return F.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from . import functional as F

        return F.div(self, other)

    def __rtruediv__(self, other):
        from . import functional as F

        return F.div(other, self)

    def __neg__(self):
        from . import functional as F

        return F.neg(self)

    def __pow__(self, exponent: float):
        from . import functional as F

        return F.power(self, exponent)

    def __matmul__(self, other):
        from . import functional as F

        return F.matmul(self, other)

    def __getitem__(self, index):
        from . import functional as F

        return F.getitem(self, index)

    # Convenience methods mirroring the functional API -----------------
    def sum(self, axis=None, keepdims: bool = False):
        from . import functional as F

        return F.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from . import functional as F

        return F.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from . import functional as F

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return F.reshape(self, shape)

    def transpose(self, axes=None):
        from . import functional as F

        return F.transpose(self, axes)

    @property
    def T(self):
        return self.transpose()


def ensure_tensor(value: ArrayLike) -> Tensor:
    """Coerce arrays / scalars to a constant :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _topological_order(root: Tensor) -> list:
    """Return tensors reachable from ``root`` in reverse-topological order.

    Iterative DFS (recursion would overflow on long LSTM tapes).
    """
    order: list = []
    visited: set = set()
    stack: list = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order

