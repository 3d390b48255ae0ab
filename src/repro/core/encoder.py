"""Review content embedding (paper Sec III-C).

The paper maps each review's word sequence through pretrained word
vectors and a BiLSTM; the review embedding is the concatenation of the
two directions' final states (Eq. 2-4).  Two cheaper encoders (CNN and
mean-pooling) are provided for the ablation benchmarks.

All encoders share the interface::

    encode(token_ids: (B, L) int array, token_mask: (B, L) bool) -> (B, review_dim)
"""

from __future__ import annotations

import numpy as np

import repro.nn as nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor


class BiLSTMReviewEncoder(nn.Module):
    """Word embedding + BiLSTM summary (the paper's encoder)."""

    def __init__(
        self,
        word_embedding: nn.Embedding,
        review_dim: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if review_dim % 2 != 0:
            raise ValueError(f"review_dim must be even, got {review_dim}")
        self.word_embedding = word_embedding
        self.bilstm = nn.BiLSTM(word_embedding.embedding_dim, review_dim // 2, rng)
        self.review_dim = review_dim

    def forward(self, token_ids: np.ndarray, token_mask: np.ndarray) -> Tensor:
        vectors = self.word_embedding(token_ids)  # (B, L, d)
        return self.bilstm(vectors, token_mask)  # (B, review_dim)

    def shape_spec(self, token_ids, token_mask=None):
        from repro.analysis import shapes as S

        vectors = S.apply_spec(self.word_embedding, "word_embedding", token_ids)
        return S.apply_spec(self.bilstm, "bilstm", vectors, token_mask)


class CNNReviewEncoder(nn.Module):
    """TextCNN encoder (ablation): conv + ReLU + max-over-time."""

    def __init__(
        self,
        word_embedding: nn.Embedding,
        review_dim: int,
        rng: np.random.Generator,
        kernel_size: int = 3,
    ) -> None:
        super().__init__()
        self.word_embedding = word_embedding
        self.cnn = nn.TextCNN(word_embedding.embedding_dim, review_dim, kernel_size, rng)
        self.review_dim = review_dim

    def forward(self, token_ids: np.ndarray, token_mask: np.ndarray) -> Tensor:
        vectors = self.word_embedding(token_ids)
        return self.cnn(vectors)

    def shape_spec(self, token_ids, token_mask=None):
        from repro.analysis import shapes as S

        vectors = S.apply_spec(self.word_embedding, "word_embedding", token_ids)
        return S.apply_spec(self.cnn, "cnn", vectors)


class MeanReviewEncoder(nn.Module):
    """Masked mean of word vectors + linear map (ablation baseline)."""

    def __init__(
        self,
        word_embedding: nn.Embedding,
        review_dim: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.word_embedding = word_embedding
        self.project = nn.Linear(word_embedding.embedding_dim, review_dim, rng)
        self.review_dim = review_dim

    def forward(self, token_ids: np.ndarray, token_mask: np.ndarray) -> Tensor:
        vectors = self.word_embedding(token_ids)  # (B, L, d)
        mask = np.asarray(token_mask, dtype=np.float64)[:, :, None]
        counts = np.maximum(mask.sum(axis=1), 1.0)  # (B, 1)
        pooled = F.sum(vectors * Tensor(mask), axis=1) * Tensor(1.0 / counts)
        return F.tanh(self.project(pooled))

    def shape_spec(self, token_ids, token_mask=None):
        from repro.analysis import shapes as S

        vectors = S.apply_spec(self.word_embedding, "word_embedding", token_ids)
        pooled = S.ShapeSpec((vectors.dims[0], vectors.dims[2]), "float64")
        return S.apply_spec(self.project, "project", pooled)


def make_encoder(
    kind: str,
    word_embedding: nn.Embedding,
    review_dim: int,
    rng: np.random.Generator,
) -> nn.Module:
    """Factory over the three encoder kinds."""
    encoders = {
        "bilstm": BiLSTMReviewEncoder,
        "cnn": CNNReviewEncoder,
        "mean": MeanReviewEncoder,
    }
    if kind not in encoders:
        raise ValueError(f"unknown encoder kind {kind!r}; options: {sorted(encoders)}")
    return encoders[kind](word_embedding, review_dim, rng)
