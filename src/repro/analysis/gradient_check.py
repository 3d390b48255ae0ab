"""Finite-difference gradient checking for :mod:`repro.nn`.

:func:`gradcheck` compares reverse-mode gradients against central finite
differences of a random linear projection of the outputs — the standard
harness for certifying a hand-written backward (a scalar output is
differentiated as it is).  Everything runs in float64 (the substrate's
native dtype), so the agreement tolerance can be tight (relative error
< 1e-4 by default).

Every shipped layer registers a canonical case via
:func:`register_layer_case`; :func:`run_layer_gradchecks` sweeps them all,
which is what ``python -m repro analyze --gradcheck`` and the test suite
run.  Layers with internal randomness (Dropout) use a replaying generator
so repeated forward evaluations — which finite differencing requires —
see identical draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor

__all__ = [
    "GradcheckFailure",
    "GradcheckResult",
    "gradcheck",
    "register_layer_case",
    "run_layer_gradchecks",
    "LAYER_CASES",
]


@dataclass
class GradcheckFailure:
    """One element whose analytic and numeric gradients disagree."""

    tensor: str
    index: int
    analytic: float
    numeric: float
    rel_err: float

    def __str__(self) -> str:
        return (
            f"{self.tensor}[{self.index}]: analytic={self.analytic:.6g} "
            f"numeric={self.numeric:.6g} rel_err={self.rel_err:.3g}"
        )


@dataclass
class GradcheckResult:
    """Outcome of one :func:`gradcheck` run."""

    name: str = ""
    ok: bool = True
    max_rel_err: float = 0.0
    num_checked: int = 0
    failures: List[GradcheckFailure] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "ok": self.ok,
            "max_rel_err": self.max_rel_err,
            "num_checked": self.num_checked,
            "failures": [str(f) for f in self.failures],
        }


def _as_tuple(value) -> Tuple:
    return value if isinstance(value, tuple) else (value,)


def _scalar_loss(outputs: Tuple, projections: Sequence[np.ndarray]) -> Tensor:
    """Project every output with a fixed vector and sum — a scalar whose
    gradient exercises all output components."""
    total = None
    for out, proj in zip(outputs, projections):
        term = F.sum(out * Tensor(proj))
        total = term if total is None else total + term
    return total


def gradcheck(
    fn: Callable[..., object],
    inputs: Sequence[Tensor],
    params: Sequence[Tensor] = (),
    eps: float = 1e-6,
    rtol: float = 1e-4,
    atol: float = 1e-8,
    max_elements: Optional[int] = None,
    seed: int = 0,
    name: str = "",
    raise_on_failure: bool = False,
) -> GradcheckResult:
    """Check reverse-mode gradients of ``fn`` against central differences.

    Parameters
    ----------
    fn:
        Callable mapping ``*inputs`` to a Tensor (or tuple of Tensors).
        It must be deterministic: repeated calls with identical data must
        return identical outputs (freeze any internal RNG).
    inputs:
        Positional tensors for ``fn``; those with ``requires_grad`` are
        checked.
    params:
        Additional tensors to check (module parameters closed over by
        ``fn``).
    eps / rtol / atol:
        Central-difference step and agreement tolerances: an element
        passes when ``|analytic - numeric| <= atol + rtol * |numeric|``
        (the rule of ``numpy.testing.assert_allclose``); a NaN fails.
    max_elements:
        Cap the number of elements perturbed per tensor (evenly strided
        subsample); None checks every element.
    seed:
        Seed of the random projection of every output with more than one
        element; a one-element output is projected by 1, so ``atol``
        bounds the error of its own gradient.
    raise_on_failure:
        Raise ``AssertionError`` with the failure table instead of
        returning a failed result.
    """
    rng = np.random.default_rng(seed)
    checked: List[Tuple[str, Tensor]] = []
    for index, tensor in enumerate(inputs):
        if isinstance(tensor, Tensor) and tensor.requires_grad:
            checked.append((tensor.name or f"input.{index}", tensor))
    for index, tensor in enumerate(params):
        label = tensor.name or f"param.{index}"
        checked.append((label, tensor))
    if not checked:
        raise ValueError("gradcheck needs at least one requires_grad tensor to check")

    outputs = _as_tuple(fn(*inputs))
    projections = [
        np.ones(out.shape) if out.size == 1 else rng.normal(size=out.shape)
        for out in outputs
    ]

    # Analytic gradients ------------------------------------------------
    for _, tensor in checked:
        tensor.zero_grad()
    loss = _scalar_loss(outputs, projections)
    loss.backward()
    analytic = {id(t): (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for _, t in checked}

    def numeric_loss() -> float:
        outs = _as_tuple(fn(*inputs))
        return float(
            sum(float((out.data * proj).sum()) for out, proj in zip(outs, projections))
        )

    result = GradcheckResult(name=name)
    floor = atol / rtol
    for label, tensor in checked:
        flat = tensor.data.reshape(-1)
        grad_flat = analytic[id(tensor)].reshape(-1)
        size = flat.size
        if max_elements is not None and size > max_elements:
            indices = np.linspace(0, size - 1, max_elements).astype(np.int64)
        else:
            indices = np.arange(size)
        for idx in indices:
            original = flat[idx]
            flat[idx] = original + eps
            plus = numeric_loss()
            flat[idx] = original - eps
            minus = numeric_loss()
            flat[idx] = original
            numeric = (plus - minus) / (2.0 * eps)
            a = float(grad_flat[idx])
            rel = abs(a - numeric) / (abs(numeric) + floor)
            result.max_rel_err = max(result.max_rel_err, rel)
            result.num_checked += 1
            if not rel <= rtol:
                result.failures.append(
                    GradcheckFailure(label, int(idx), a, numeric, rel)
                )
    result.ok = not result.failures
    for _, tensor in checked:
        tensor.zero_grad()
    if raise_on_failure and not result.ok:
        table = "\n".join(str(f) for f in result.failures[:20])
        raise AssertionError(
            f"gradcheck {name or 'case'} failed "
            f"({len(result.failures)}/{result.num_checked} elements):\n{table}"
        )
    return result


# ---------------------------------------------------------------------------
# Per-layer registry
# ---------------------------------------------------------------------------

#: name → builder(rng) returning (fn, inputs, params)
LAYER_CASES: Dict[str, Callable] = {}


def register_layer_case(name: str):
    """Register a canonical gradcheck case for a layer (decorator)."""

    def decorator(builder):
        LAYER_CASES[name] = builder
        return builder

    return decorator


def run_layer_gradchecks(
    names: Optional[Sequence[str]] = None,
    seed: int = 0,
    eps: float = 1e-6,
    rtol: float = 1e-4,
    max_elements: Optional[int] = None,
    raise_on_failure: bool = False,
) -> Dict[str, GradcheckResult]:
    """Run the registered per-layer gradchecks; returns name → result."""
    selected = list(names) if names is not None else sorted(LAYER_CASES)
    results: Dict[str, GradcheckResult] = {}
    for name in selected:
        if name not in LAYER_CASES:
            raise KeyError(f"unknown gradcheck case {name!r}; have {sorted(LAYER_CASES)}")
        rng = np.random.default_rng(seed)
        fn, inputs, params = LAYER_CASES[name](rng)
        results[name] = gradcheck(
            fn,
            inputs,
            params,
            eps=eps,
            rtol=rtol,
            max_elements=max_elements,
            seed=seed,
            name=name,
            raise_on_failure=raise_on_failure,
        )
    return results


class _ReplayRNG:
    """Generator stand-in whose draws replay identically on every forward.

    Finite differencing evaluates the same function many times; a layer
    with internal randomness (Dropout) must see the same mask each time
    or the numeric gradient measures noise.  Draw ``k`` of every forward
    returns the same array on every call.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._calls = 0

    def reset(self) -> None:
        self._calls = 0

    def random(self, shape) -> np.ndarray:
        value = np.random.default_rng((self._seed, self._calls)).random(shape)
        self._calls += 1
        return value


def _leaf(rng: np.random.Generator, shape, name: str, low: float = -1.0, high: float = 1.0) -> Tensor:
    return Tensor(rng.uniform(low, high, size=shape), requires_grad=True, name=name)


@register_layer_case("Linear")
def _case_linear(rng):
    from repro.nn import Linear

    layer = Linear(4, 3, rng)
    x = _leaf(rng, (5, 4), "x")
    return (lambda t: layer(t)), [x], layer.parameters()


@register_layer_case("Embedding")
def _case_embedding(rng):
    from repro.nn import Embedding

    layer = Embedding(7, 3, rng)
    indices = rng.integers(0, 7, size=(4, 5))
    return (lambda: layer(indices)), [], layer.parameters()


@register_layer_case("Dropout")
def _case_dropout(rng):
    from repro.nn import Dropout

    replay = _ReplayRNG(seed=3)
    layer = Dropout(0.4, replay)
    x = _leaf(rng, (6, 5), "x")

    def fn(t):
        replay.reset()
        return layer(t)

    return fn, [x], []


@register_layer_case("Conv1d")
def _case_conv1d(rng):
    from repro.nn import Conv1d

    layer = Conv1d(3, 4, 2, rng)
    x = _leaf(rng, (2, 6, 3), "x")
    return (lambda t: layer(t)), [x], layer.parameters()


@register_layer_case("TextCNN")
def _case_textcnn(rng):
    from repro.nn import TextCNN

    layer = TextCNN(3, 4, 2, rng)
    x = _leaf(rng, (2, 6, 3), "x")
    return (lambda t: layer(t)), [x], layer.parameters()


@register_layer_case("LSTMCell")
def _case_lstm_cell(rng):
    from repro.nn import LSTMCell

    layer = LSTMCell(3, 4, rng)
    x = _leaf(rng, (2, 3), "x")
    h = _leaf(rng, (2, 4), "h")
    c = _leaf(rng, (2, 4), "c")
    return (lambda *ts: layer(*ts)), [x, h, c], layer.parameters()


@register_layer_case("LSTM")
def _case_lstm(rng):
    from repro.nn import LSTM

    layer = LSTM(3, 4, rng)
    x = _leaf(rng, (2, 5, 3), "x")
    mask = np.ones((2, 5), dtype=bool)
    mask[1, 3:] = False  # exercise the masked carry-forward path
    return (lambda t: layer(t, mask)), [x], layer.parameters()


@register_layer_case("BiLSTM")
def _case_bilstm(rng):
    from repro.nn import BiLSTM

    layer = BiLSTM(3, 2, rng)
    x = _leaf(rng, (2, 4, 3), "x")
    mask = np.ones((2, 4), dtype=bool)
    mask[0, 2:] = False
    return (lambda t: layer(t, mask)), [x], layer.parameters()


@register_layer_case("GRUCell")
def _case_gru_cell(rng):
    from repro.nn import GRUCell

    layer = GRUCell(3, 4, rng)
    x = _leaf(rng, (2, 3), "x")
    h = _leaf(rng, (2, 4), "h")
    return (lambda *ts: layer(*ts)), [x, h], layer.parameters()


@register_layer_case("GRU")
def _case_gru(rng):
    from repro.nn import GRU

    layer = GRU(3, 4, rng)
    x = _leaf(rng, (2, 5, 3), "x")
    mask = np.ones((2, 5), dtype=bool)
    mask[1, 4:] = False
    return (lambda t: layer(t, mask)), [x], layer.parameters()


@register_layer_case("ReviewAttention")
def _case_review_attention(rng):
    from repro.nn import ReviewAttention

    layer = ReviewAttention(
        review_dim=4, own_dim=3, other_dim=3, attention_dim=5, rng=rng
    )
    reviews = _leaf(rng, (2, 3, 4), "reviews")
    own = _leaf(rng, (2, 3), "own")
    others = _leaf(rng, (2, 3, 3), "others")
    mask = np.ones((2, 3), dtype=bool)
    mask[0, 2] = False
    return (lambda *ts: layer(*ts, mask=mask)), [reviews, own, others], layer.parameters()


@register_layer_case("FactorizationMachine")
def _case_fm(rng):
    from repro.nn import FactorizationMachine

    layer = FactorizationMachine(5, 3, rng)
    z = _leaf(rng, (4, 5), "z")
    return (lambda t: layer(t)), [z], layer.parameters()
