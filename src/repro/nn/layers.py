"""Core feed-forward layers: Linear, Embedding, Dropout."""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor


class Linear(Module):
    """Affine map ``y = x W + b`` applied to the last axis.

    Parameters
    ----------
    in_features, out_features:
        Input/output width.
    rng:
        Generator for Xavier initialization.
    bias:
        Include the additive bias term (default True).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng), name="W")
        self.bias = Parameter(init.zeros((out_features,)), name="b") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = F.matmul(x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def shape_spec(self, x):
        from repro.analysis import shapes as S

        layer = f"Linear(in={self.in_features}, out={self.out_features})"
        S.expect_dtype(x, "float64", layer=layer)
        if x.ndim < 1:
            raise S.ShapeError(f"input must be at least 1-d, got {x!r}", layer=layer)
        S.expect_axis(x, -1, self.in_features, layer=layer, what="input feature axis")
        return x.with_dims(x.dims[:-1] + (S.Dim.of(self.out_features),))


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    Index 0 is conventionally the padding id; set ``padding_idx=0`` to pin
    that row to zero (it is zeroed at init and its gradient is masked by
    the optimizer hook below).
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator,
        padding_idx: Optional[int] = None,
        scale: float = 0.1,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0:
            raise ValueError(f"num_embeddings must be positive, got {num_embeddings}")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        weight = init.uniform((num_embeddings, embedding_dim), rng, bound=scale)
        if padding_idx is not None:
            weight[padding_idx] = 0.0
        self.weight = Parameter(weight, name="E")

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        out = F.take_rows(self.weight, indices)
        return out

    def shape_spec(self, indices):
        from repro.analysis import shapes as S

        layer = f"Embedding({self.num_embeddings}, {self.embedding_dim})"
        S.expect_dtype(indices, ("int64", "int32"), layer=layer, what="indices")
        return S.ShapeSpec(
            indices.dims + (S.Dim.of(self.embedding_dim),), "float64", indices.name
        )

    def load_pretrained(self, vectors: np.ndarray) -> None:
        """Overwrite the table with pretrained ``vectors``."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.shape != (self.num_embeddings, self.embedding_dim):
            raise ValueError(
                f"pretrained shape {vectors.shape} != "
                f"({self.num_embeddings}, {self.embedding_dim})"
            )
        self.weight.data = vectors.copy()  # lint: allow[MUT001] — pretrained load happens before any tape records the table
        if self.padding_idx is not None:
            self.weight.data[self.padding_idx] = 0.0  # lint: allow[MUT001] — padding row is zero by construction


class Dropout(Module):
    """Inverted dropout; inert in eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self._rng, training=self.training)

    def shape_spec(self, x):
        from repro.analysis import shapes as S

        S.expect_dtype(x, "float64", layer=f"Dropout({self.rate})")
        return x
