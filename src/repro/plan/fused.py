"""Fused tape ops with bitwise parity to the interpreted op chains.

:func:`masked_softmax` collapses the attention module's mask-fill and
softmax into a single autograd node with an analytically merged
backward.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["masked_softmax"]


def masked_softmax(scores: Tensor, invalid: np.ndarray) -> Tensor:
    """Fused ``masked_fill(scores, invalid, -1e9)`` → ``softmax(axis=-1)``.

    One tape node replacing the attention module's two interpreted ops.
    The forward runs the identical expressions in the identical order
    (fill with the same constant, shift by the row max, exponentiate,
    normalize), so values are bitwise-equal; the backward composes the
    softmax VJP with the fill op's gradient gate (``* ~invalid``) in the
    same order the two-node tape would.
    """
    invalid = np.asarray(invalid, dtype=bool)
    filled = np.where(invalid, -1e9, scores.data)
    shifted = filled - filled.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    value = e / e.sum(axis=-1, keepdims=True)
    keep = ~invalid

    def planned_masked_softmax(g: np.ndarray):
        dot = (g * value).sum(axis=-1, keepdims=True)
        return ((value * (g - dot)) * keep,)

    return Tensor(
        value,
        requires_grad=scores.requires_grad,
        parents=(scores,),
        backward_fn=planned_masked_softmax,
    )
