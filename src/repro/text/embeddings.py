"""Pretrained word vectors (Sec IV-A: "textual content is pretrained").

Two trainers are provided:

* :func:`train_skipgram` — skip-gram with negative sampling (Mikolov
  2013), implemented directly in numpy (no autograd needed; the SGNS
  gradient is closed-form).  Training is minibatched: each step scores a
  block of (center, context) pairs with one ``einsum`` and scatter-adds
  each word's summed gradient, with the step of a word that recurs many
  times in one block capped so it cannot diverge.  This is the default
  for model pipelines.
* :func:`train_ppmi_svd` — positive PMI co-occurrence matrix factorised
  with truncated SVD (Levy & Goldberg 2014).  Deterministic (fixed ARPACK
  start vector, signs fixed per column), fast, used for quick
  experiments and as a cross-check.

Both return a ``(len(vocab), dim)`` matrix aligned to the vocabulary ids
(rows 0/1 are the pad/unk vectors; pad stays zero).
"""

from __future__ import annotations

from itertools import chain
from typing import List, Sequence

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix
from scipy.sparse.linalg import svds

from .vocab import PAD_ID, UNK_ID, Vocabulary

# Pairs per skip-gram SGD step.  Every pair in a block is scored against
# the same vectors and a block sums the updates of pairs that share a
# word, so a frequent word's step grows with the block.  Summed without
# the per-word cap in ``_scatter_sub``, 1024 overflowed ``exp`` and
# diverged on every catalog preset at scales 0.3-1.0, while 128-512
# stayed finite.  At 256 the cap binds on ~3 words per block on yelpzip
# (13% of context terms; 28% at 512).  128 is ~1.5x slower, and 512
# saves only ~0.05 s per yelpzip fit.
SKIPGRAM_BLOCK = 256


def train_skipgram(
    documents: Sequence[Sequence[str]],
    vocab: Vocabulary,
    dim: int = 64,
    window: int = 4,
    negatives: int = 5,
    epochs: int = 2,
    lr: float = 0.025,
    seed: int = 0,
) -> np.ndarray:
    """Train skip-gram-with-negative-sampling vectors.

    Parameters mirror word2vec defaults scaled down for review-sized
    corpora.  Negative samples are drawn from the unigram^0.75
    distribution.  Training is SGD over blocks of
    :data:`SKIPGRAM_BLOCK` (center, context) pairs in a seeded random
    order; updates within a block are computed from the same vectors and
    summed per word, at a per-word rate that shrinks when a word recurs
    so often in one block that the sum would overshoot.
    """
    rng = np.random.default_rng(seed)
    encoded = [vocab.encode(doc) for doc in documents]

    vocab_size = len(vocab)
    # Unigram^0.75 negative-sampling table.
    freqs = np.array(
        [max(vocab.count(vocab.id_to_token(i)), 1) for i in range(vocab_size)],
        dtype=np.float64,
    )
    freqs[PAD_ID] = 0.0
    probs = freqs**0.75
    probs /= probs.sum()

    center_vecs = (rng.random((vocab_size, dim)) - 0.5) / dim
    context_vecs = np.zeros((vocab_size, dim))

    pairs = _build_pairs(encoded, window)
    if len(pairs) == 0:
        center_vecs[PAD_ID] = 0.0
        return center_vecs

    for epoch in range(epochs):
        order = rng.permutation(len(pairs))
        neg_samples = rng.choice(vocab_size, size=(len(pairs), negatives), p=probs)
        step_lr = lr * (1.0 - epoch / max(epochs, 1)) + 1e-4
        centers = pairs[order, 0]
        # (pairs, 1+neg): the context word, then its negatives.
        targets = np.concatenate((pairs[order, 1:], neg_samples), axis=1)
        for lo in range(0, len(pairs), SKIPGRAM_BLOCK):
            block = slice(lo, lo + SKIPGRAM_BLOCK)
            v = center_vecs[centers[block]]  # (B, dim)
            u = context_vecs[targets[block]]  # (B, 1+neg, dim)
            gradient = 1.0 / (1.0 + np.exp(-np.einsum("bd,bkd->bk", v, u)))
            gradient[:, 0] -= 1.0  # score - label
            grad_v = np.einsum("bk,bkd->bd", gradient, u)
            _scatter_sub(context_vecs, targets[block], v, step_lr, gradient)
            _scatter_sub(center_vecs, centers[block], grad_v, step_lr)

    center_vecs[PAD_ID] = 0.0
    return center_vecs


def train_ppmi_svd(
    documents: Sequence[Sequence[str]],
    vocab: Vocabulary,
    dim: int = 64,
    window: int = 4,
) -> np.ndarray:
    """Factorize the positive-PMI co-occurrence matrix with truncated SVD."""
    encoded = [vocab.encode(doc) for doc in documents]
    vocab_size = len(vocab)
    pairs = _build_pairs(encoded, window)

    vectors = np.zeros((vocab_size, dim))
    if len(pairs) == 0:
        return vectors

    rows = pairs[:, 0]
    cols = pairs[:, 1]
    data = np.ones(len(pairs))
    cooc = coo_matrix((data, (rows, cols)), shape=(vocab_size, vocab_size)).tocsr()
    cooc = (cooc + cooc.T) * 0.5

    total = cooc.sum()
    row_sums = np.asarray(cooc.sum(axis=1)).ravel()
    col_sums = np.asarray(cooc.sum(axis=0)).ravel()

    cooc = cooc.tocoo()
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log(
            (cooc.data * total) / (row_sums[cooc.row] * col_sums[cooc.col])
        )
    pmi = np.maximum(pmi, 0.0)
    keep = pmi > 0
    ppmi = coo_matrix(
        (pmi[keep], (cooc.row[keep], cooc.col[keep])), shape=(vocab_size, vocab_size)
    )

    k = min(dim, min(ppmi.shape) - 1)
    if k < 1 or ppmi.nnz == 0:
        return vectors
    # ARPACK draws its start vector from numpy's global RNG unless given
    # one, and singular vectors are only defined up to sign: fix both.
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, size=min(ppmi.shape))
    u, s, _ = svds(ppmi.tocsc(), k=k, v0=v0)
    peaks = u[np.abs(u).argmax(axis=0), np.arange(k)]
    u = u * np.where(peaks < 0, -1.0, 1.0)[None, :]
    vectors[:, :k] = u * np.sqrt(s)[None, :]
    vectors[PAD_ID] = 0.0
    return vectors


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two vectors (0 when either is zero)."""
    norm = np.linalg.norm(a) * np.linalg.norm(b)
    if norm == 0:
        return 0.0
    return float(a @ b / norm)


def most_similar(
    vectors: np.ndarray, vocab: Vocabulary, token: str, top_k: int = 5
) -> List[tuple]:
    """Nearest neighbours of ``token`` in the embedding space."""
    idx = vocab.token_to_id(token)
    query = vectors[idx]
    norms = np.linalg.norm(vectors, axis=1)
    norms[norms == 0] = 1.0
    scores = vectors @ query / (norms * max(np.linalg.norm(query), 1e-12))
    scores[[PAD_ID, UNK_ID, idx]] = -np.inf
    best = np.argsort(-scores)[:top_k]
    return [(vocab.id_to_token(i), float(scores[i])) for i in best]


def _scatter_sub(
    matrix: np.ndarray,
    ids: np.ndarray,
    rows: np.ndarray,
    lr: float,
    coefs: float | np.ndarray = 1.0,
) -> None:
    """``matrix[ids[b, k]] -= rate * coefs[b, k] * rows[b]``, summed over repeats.

    ``ids`` is ``(len(rows),)`` or ``(len(rows), k)``; ``coefs`` is a
    scalar or shaped like ``ids``.

    Each word's ``rate`` is ``min(lr, 1 / count)``, where ``count`` is
    how often it occurs in ``ids``: a word's step is the summed gradient
    at ``lr``, but never longer than its mean pair gradient at rate 1.
    Without that cap a word that dominates a block (one that is its own
    frequent context and negative) overshoots and diverges.  The sum is
    one sparse ``(len(matrix), len(rows))`` product; ``np.subtract.at``
    is several times slower.
    """
    flat = ids.ravel()
    rate = np.minimum(lr, 1.0 / np.bincount(flat)[flat])
    width = flat.size // len(rows)
    weights = csc_matrix(
        (rate * np.ravel(coefs), flat, np.arange(0, flat.size + 1, width)),
        shape=(len(matrix), len(rows)),
    )
    matrix -= weights @ rows


def _build_pairs(encoded: Sequence[Sequence[int]], window: int) -> np.ndarray:
    """All (center, context) id pairs within ``window``; pads/unks skipped.

    Rows run center position ascending, then context position ascending,
    over the documents in order.
    """
    lengths = np.fromiter((len(doc) for doc in encoded), dtype=np.int64, count=len(encoded))
    ids = np.fromiter(chain.from_iterable(encoded), dtype=np.int64, count=int(lengths.sum()))
    doc_ids = np.repeat(np.arange(len(encoded)), lengths)
    keep = (ids != PAD_ID) & (ids != UNK_ID)
    ids, doc_ids = ids[keep], doc_ids[keep]

    offsets = np.array([o for o in range(-window, window + 1) if o != 0], dtype=np.int64)
    positions = np.arange(len(ids))[:, None] + offsets[None, :]  # (tokens, 2*window)
    inside = (positions >= 0) & (positions < len(ids))
    positions = np.where(inside, positions, 0)
    inside &= doc_ids[positions] == doc_ids[:, None]
    center_pos, offset_idx = np.nonzero(inside)
    return np.stack((ids[center_pos], ids[positions[center_pos, offset_idx]]), axis=1)
