"""Shared test utilities: gradient checking over a list of leaves, fresh
interpreters."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.analysis.gradient_check import gradcheck
from repro.nn import Tensor


def check_gradients(
    build: Callable[[Sequence[Tensor]], Tensor],
    arrays: Sequence[np.ndarray],
    atol: float = 1e-6,
    rtol: float = 1e-4,
) -> None:
    """Assert autograd gradients of ``build`` match finite differences.

    ``build`` maps a list of leaf tensors, one per array, to an output
    tensor; :func:`repro.analysis.gradcheck` checks every leaf.
    """
    leaves = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays]
    gradcheck(
        lambda *ts: build(list(ts)), leaves, atol=atol, rtol=rtol, raise_on_failure=True
    )


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
