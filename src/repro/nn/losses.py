"""Loss functions, including the paper's reliability-weighted MSE (Eq. 14).

All losses return scalar tensors (mean-reduced unless stated otherwise).
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .tensor import Tensor, ensure_tensor


def mse_loss(predicted: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error — the unbiased rating loss (Eq. 13, sans L2)."""
    target = ensure_tensor(target)
    diff = predicted - target
    return F.mean(diff * diff)


def weighted_mse_loss(predicted: Tensor, target: np.ndarray, weights: np.ndarray) -> Tensor:
    """Reliability-weighted MSE — the *biased* rating loss of Eq. 14.

    ``weights`` is the ground-truth reliability label l_ui (1 benign,
    0 fake): fake reviews contribute nothing, so the model never fits
    fraudulent ratings.  Normalised by the batch size N as in the paper.
    """
    target = ensure_tensor(target)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != predicted.shape:
        raise ValueError(
            f"weights shape {weights.shape} does not match predictions {predicted.shape}"
        )
    diff = predicted - target
    return F.mean(Tensor(weights) * diff * diff)


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean categorical cross-entropy from raw logits (Eq. 11).

    ``labels`` are integer class ids of shape ``(B,)``; ``logits`` are
    ``(B, C)``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.ndim != 1 or logits.shape[0] != labels.shape[0]:
        raise ValueError(
            f"expected logits (B, C) and labels (B,), got {logits.shape} / {labels.shape}"
        )
    log_probs = F.log_softmax(logits, axis=-1)
    picked = F.getitem(log_probs, (np.arange(len(labels)), labels))
    return -F.mean(picked)
