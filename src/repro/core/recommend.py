"""Recommendation & explanation generation (paper Sec III-B).

The two-stage procedure:

* **Recommendation** — for a user u₀, predict (r, l) for every item,
  keep the top-K by rating as candidates, then re-rank those by
  reliability and recommend the top slice.
* **Explanation** — for a recommended item i₀, score every existing
  review of i₀ by its (predicted rating, predicted reliability), keep
  the top-K by rating, re-rank by reliability, and surface the texts.
  A review with a high rating but low reliability is filtered — the
  Table VIII case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.obs.trace import traced

if TYPE_CHECKING:
    from .trainer import RRRETrainer


@dataclass(frozen=True)
class Recommendation:
    """One recommended item with its predicted scores."""

    item_id: int
    item_name: str
    predicted_rating: float
    predicted_reliability: float


@dataclass(frozen=True)
class Explanation:
    """One review surfaced as an explanation for a recommended item."""

    review_index: int
    user_id: int
    user_name: str
    text: str
    predicted_rating: float
    predicted_reliability: float
    actual_rating: float
    actual_label: int


def rank_by_rating_then_reliability(
    ratings: np.ndarray,
    reliabilities: np.ndarray,
    top_k: int,
) -> np.ndarray:
    """The paper's two-stage re-rank as pure index arithmetic.

    Take the ``top_k`` candidates by predicted rating, then reorder that
    pool by predicted reliability; both sorts are stable so ties keep
    input order.  Returns positions into ``ratings``/``reliabilities``
    (full reordered pool — callers slice to their final K or filter by a
    reliability floor first).  This is the scoring core shared by the
    offline path (:func:`recommend_items`, :func:`explain_item`) and the
    online serving path (:mod:`repro.serve`).
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    candidate_order = np.argsort(-ratings, kind="stable")[:top_k]
    return candidate_order[
        np.argsort(-reliabilities[candidate_order], kind="stable")
    ]


def _resolve_final_k(final_k: Optional[int], top_k: int) -> int:
    """``final_k`` as a count: ``None`` means ``top_k``; negative is an error."""
    if final_k is not None and final_k < 0:
        raise ValueError(f"final_k must be >= 0, got {final_k}")
    return top_k if final_k is None else final_k


@traced("rank.recommend_items", kind="rank")
def recommend_items(
    trainer: RRRETrainer,
    user_id: int,
    top_k: int = 10,
    final_k: Optional[int] = None,
    exclude_seen: bool = True,
) -> List[Recommendation]:
    """Recommend items for ``user_id`` via the rating→reliability re-rank.

    ``top_k`` is K, the rating-sorted candidate pool; ``final_k``
    (default K, ``>= 0``) is how many survive the reliability re-rank.
    """
    trainer._require_fitted()
    dataset = trainer.dataset
    if not 0 <= user_id < dataset.num_users:
        raise IndexError(f"user_id {user_id} outside [0, {dataset.num_users})")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    final_k = _resolve_final_k(final_k, top_k)
    if final_k == 0:
        return []

    if exclude_seen:
        unseen = np.ones(dataset.num_items, dtype=bool)
        unseen[dataset.item_ids[dataset.reviews_by_user[user_id]]] = False
        items = np.flatnonzero(unseen)
        if len(items) == 0:
            return []
    else:
        items = np.arange(dataset.num_items, dtype=np.int64)
    users = np.full(len(items), user_id, dtype=np.int64)
    ratings, reliabilities = trainer.predict_pairs(users, items)

    rerank = rank_by_rating_then_reliability(ratings, reliabilities, top_k)[:final_k]
    return [
        Recommendation(
            item_id=int(items[pos]),
            item_name=dataset.item_names[int(items[pos])],
            predicted_rating=float(ratings[pos]),
            predicted_reliability=float(reliabilities[pos]),
        )
        for pos in rerank
    ]


@traced("rank.explain_item", kind="rank")
def explain_item(
    trainer: RRRETrainer,
    item_id: int,
    top_k: int = 5,
    final_k: Optional[int] = None,
    min_reliability: float = 0.5,
) -> List[Explanation]:
    """Pick reliable explanation reviews for ``item_id``.

    Reviews are sorted by predicted rating (top-K candidates), re-ranked
    by predicted reliability, and those below ``min_reliability`` are
    filtered out (the paper's "will be filtered because of its low
    reliability").  ``final_k`` (default ``top_k``, ``>= 0``) caps the result.
    """
    trainer._require_fitted()
    dataset = trainer.dataset
    if not 0 <= item_id < dataset.num_items:
        raise IndexError(f"item_id {item_id} outside [0, {dataset.num_items})")
    final_k = _resolve_final_k(final_k, top_k)
    review_indices = np.array(dataset.reviews_by_item[item_id], dtype=np.int64)
    if len(review_indices) == 0 or final_k == 0:
        return []

    users = dataset.user_ids[review_indices]
    items = np.full(len(review_indices), item_id, dtype=np.int64)
    ratings, reliabilities = trainer.predict_pairs(users, items)

    rerank = rank_by_rating_then_reliability(ratings, reliabilities, top_k)
    results: List[Explanation] = []
    for pos in rerank:
        if reliabilities[pos] < min_reliability:
            continue
        idx = int(review_indices[pos])
        review = dataset.reviews[idx]
        results.append(
            Explanation(
                review_index=idx,
                user_id=review.user_id,
                user_name=dataset.user_names[review.user_id],
                text=review.text,
                predicted_rating=float(ratings[pos]),
                predicted_reliability=float(reliabilities[pos]),
                actual_rating=review.rating,
                actual_label=review.label,
            )
        )
        if len(results) >= final_k:
            break
    return results
