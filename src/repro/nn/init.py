"""Weight initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so model
construction is fully deterministic given a seed.
"""

from __future__ import annotations

import numpy as np


def xavier_uniform(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform: U(-a, a) with a = sqrt(6/(fan_in+fan_out))."""
    fan_in, fan_out = _fans(shape)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def uniform(shape: tuple, rng: np.random.Generator, bound: float = 0.1) -> np.ndarray:
    """Plain uniform in [-bound, bound] (used for ID embeddings)."""
    return rng.uniform(-bound, bound, size=shape)


def normal(shape: tuple, rng: np.random.Generator, std: float = 0.1) -> np.ndarray:
    """Plain zero-mean normal."""
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple) -> np.ndarray:
    """All-zero array (biases)."""
    return np.zeros(shape)


def _fans(shape: tuple) -> tuple:
    """Compute (fan_in, fan_out) for dense and conv kernels."""
    if len(shape) < 1:
        raise ValueError("cannot compute fans of a scalar shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[0] * receptive, shape[1] * receptive
