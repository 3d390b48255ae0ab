"""Shared test utilities: finite-difference gradient checking, fresh
interpreters."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.nn import Tensor


def numeric_gradient(
    fn: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    eps: float = 1e-6,
) -> list:
    """Central finite-difference gradient of a scalar function of arrays."""
    grads = []
    for k, base in enumerate(arrays):
        grad = np.zeros_like(base, dtype=np.float64)
        flat = grad.reshape(-1)
        base_flat = base.reshape(-1)
        for idx in range(base_flat.size):
            original = base_flat[idx]
            base_flat[idx] = original + eps
            plus = fn(arrays)
            base_flat[idx] = original - eps
            minus = fn(arrays)
            base_flat[idx] = original
            flat[idx] = (plus - minus) / (2.0 * eps)
        grads.append(grad)
    return grads


def check_gradients(
    build: Callable[[Sequence[Tensor]], Tensor],
    arrays: Sequence[np.ndarray],
    atol: float = 1e-6,
    rtol: float = 1e-4,
) -> None:
    """Assert autograd gradients of ``build`` match finite differences.

    ``build`` maps a list of leaf tensors to a scalar output tensor.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(leaves)
    assert out.size == 1, "gradient check requires a scalar output"
    out.backward()

    def eval_fn(current: Sequence[np.ndarray]) -> float:
        fresh = [Tensor(a.copy(), requires_grad=False) for a in current]
        return float(build(fresh).data.reshape(()))

    numeric = numeric_gradient(eval_fn, [a.copy() for a in arrays])
    for leaf, expected in zip(leaves, numeric):
        got = leaf.grad if leaf.grad is not None else np.zeros_like(expected)
        np.testing.assert_allclose(got, expected, atol=atol, rtol=rtol)


SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints last.

    Import-order and import-footprint checks need one: the test process
    has already imported everything.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])
