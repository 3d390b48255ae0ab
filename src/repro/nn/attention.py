"""Additive (fraud-)attention over a set of review vectors — Eq. 5-7.

Given the m review encodings of a user (item), the attention scores each
review by how much it reveals about a *reliable* preference profile:

    a*_j = h^T tanh(W_rev · rev_j + W_own · e_own + W_other · e_other_j + b1) + b2
    a_j  = softmax(a*_j)   over the m reviews (padding masked to -inf)
    out  = Σ_j a_j · rev_j

``e_own`` is the ID embedding of the entity being profiled (the user in
UserNet, the item in ItemNet) and ``e_other_j`` is the ID embedding of the
counterpart of review j (the item the user reviewed / the user who wrote
the item's review).  Both ID channels let the network learn per-identity
reliability signals, as the paper motivates.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor


class ReviewAttention(Module):
    """Fraud-attention pooling of per-review vectors into one profile vector.

    Parameters
    ----------
    review_dim:
        Width of each review encoding ``rev_j``.
    own_dim:
        Width of the profiled entity's ID embedding.
    other_dim:
        Width of the counterpart ID embeddings (one per review).
    attention_dim:
        Width of the hidden attention space.
    include_own:
        When False the own-ID channel is dropped entirely (NARRE's
        usefulness attention scores reviews from content + counterpart
        ID only); ``own_embedding`` may then be None.
    """

    def __init__(
        self,
        review_dim: int,
        own_dim: int,
        other_dim: int,
        attention_dim: int,
        rng: np.random.Generator,
        include_own: bool = True,
    ) -> None:
        super().__init__()
        self.include_own = include_own
        self.w_review = Parameter(init.xavier_uniform((review_dim, attention_dim), rng), "W_rev")
        if include_own:
            self.w_own = Parameter(
                init.xavier_uniform((own_dim, attention_dim), rng), "W_own"
            )
        self.w_other = Parameter(init.xavier_uniform((other_dim, attention_dim), rng), "W_oth")
        self.bias1 = Parameter(init.zeros((attention_dim,)), "b1")
        self.vector = Parameter(init.xavier_uniform((attention_dim, 1), rng), "h")
        self.bias2 = Parameter(init.zeros((1,)), "b2")

    def forward(
        self,
        reviews: Tensor,
        own_embedding: Tensor,
        other_embeddings: Tensor,
        mask: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Tensor]:
        """Pool ``reviews`` into a profile vector.

        Parameters
        ----------
        reviews:
            ``(B, m, review_dim)`` encodings.
        own_embedding:
            ``(B, own_dim)`` — broadcast across the m reviews.
        other_embeddings:
            ``(B, m, other_dim)``.
        mask:
            ``(B, m)`` boolean; False marks zero-padded review slots.

        Returns
        -------
        (pooled, weights):
            ``pooled`` is ``(B, review_dim)``; ``weights`` is the ``(B, m)``
            attention distribution (useful for explanation inspection).
        """
        hidden = (
            F.matmul(reviews, self.w_review)
            + F.matmul(other_embeddings, self.w_other)
            + self.bias1
        )
        if self.include_own:
            if own_embedding is None:
                raise ValueError("own_embedding required when include_own=True")
            hidden = hidden + F.expand_dims(F.matmul(own_embedding, self.w_own), 1)
        scores = F.matmul(F.tanh(hidden), self.vector) + self.bias2  # (B, m, 1)
        scores = F.squeeze(scores, axis=2)  # (B, m)
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if not mask.any(axis=1).all():
                raise ValueError("every row needs at least one unmasked review")
            weights = F.masked_softmax(scores, ~mask)  # (B, m)
        else:
            weights = F.softmax(scores, axis=-1)  # (B, m)
        pooled = F.squeeze(F.matmul(F.expand_dims(weights, 1), reviews), axis=1)
        return pooled, weights

    def describe(self, batch: int, length: int) -> dict:
        """The fused softmax for ``python -m repro plan --explain``, in the
        shape of :meth:`repro.nn.BiLSTM.describe`; it keeps no scratch
        (``length`` is unused: attention runs over review slots)."""
        return {
            "kind": "attention",
            "summary": (
                "masked softmax fused: fill(-1e9) + shift + exp + normalize "
                "collapse into one tape node with a merged backward"
            ),
            "out": [f"weights ({batch}, m) float64"],
            "scratch": [],
        }

    def shape_spec(self, reviews, own_embedding, other_embeddings, mask=None):
        from repro.analysis import shapes as S

        review_dim = self.w_review.shape[0]
        other_dim = self.w_other.shape[0]
        layer = f"ReviewAttention(review={review_dim}, other={other_dim})"
        S.expect_ndim(reviews, 3, layer=layer, what="reviews")
        S.expect_dtype(reviews, "float64", layer=layer, what="reviews")
        S.expect_axis(reviews, -1, review_dim, layer=layer, what="review width")
        S.expect_ndim(other_embeddings, 3, layer=layer, what="other_embeddings")
        S.expect_axis(
            other_embeddings, -1, other_dim, layer=layer, what="counterpart ID width"
        )
        batch = S.unify(
            reviews.dims[0], other_embeddings.dims[0], what="batch axis", layer=layer
        )
        m = S.unify(
            reviews.dims[1], other_embeddings.dims[1], what="review slot axis", layer=layer
        )
        if self.include_own:
            if own_embedding is None:
                raise S.ShapeError("own_embedding required when include_own=True", layer=layer)
            own_dim = self.w_own.shape[0]
            S.expect_ndim(own_embedding, 2, layer=layer, what="own_embedding")
            S.expect_axis(own_embedding, -1, own_dim, layer=layer, what="own ID width")
            batch = S.unify(batch, own_embedding.dims[0], what="batch axis", layer=layer)
        if mask is not None:
            S.expect_ndim(mask, 2, layer=layer, what="mask")
            S.expect_dtype(mask, "bool", layer=layer, what="mask")
            batch = S.unify(batch, mask.dims[0], what="mask batch axis", layer=layer)
            m = S.unify(m, mask.dims[1], what="mask slot axis", layer=layer)
        return (
            S.ShapeSpec((batch, review_dim), "float64"),
            S.ShapeSpec((batch, m), "float64"),
        )
