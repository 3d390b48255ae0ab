"""Candidate retrieval + re-rank over an :class:`EmbeddingStore`.

The online mirror of ``repro.core.recommend``: dot-product candidate
generation over the item factor table (exact for the rating head thanks
to the store's FM factorization), then the paper's two-stage re-rank —
top-K by rating, reordered by reliability — via the shared
:func:`repro.core.rank_by_rating_then_reliability` core, with the top
reliable reviews of each recommended item attached as the explanation
payload.

Everything here is plain array arithmetic on store tables; no review
text is ever encoded.  :meth:`Retriever.recommend_batch` is the
micro-batcher handler: one fused score pass for B users, then per-user
ranking.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.recommend import rank_by_rating_then_reliability
from repro.obs import metrics as obs_metrics
from repro.obs.trace import maybe_span

from .store import EmbeddingStore

__all__ = ["Retriever"]


class Retriever:
    """Answers top-K queries from a store, with explanations.

    Parameters
    ----------
    store:
        A loaded :class:`EmbeddingStore`.
    candidate_pool:
        Size of the rating-sorted candidate pool fed to the reliability
        re-rank (the paper's K); the served slice is the request's k.
    explain_pool / min_reliability:
        Explanation knobs, matching ``repro.core.explain_item``:
        per recommended item, the ``explain_pool`` highest-predicted-
        rating reviews are re-ranked by reliability and those below
        ``min_reliability`` are filtered out.
    """

    def __init__(
        self,
        store: EmbeddingStore,
        candidate_pool: int = 50,
        explain_pool: int = 5,
        min_reliability: float = 0.5,
    ) -> None:
        if candidate_pool < 1:
            raise ValueError(f"candidate_pool must be >= 1, got {candidate_pool}")
        self.store = store
        self.candidate_pool = candidate_pool
        self.explain_pool = explain_pool
        self.min_reliability = min_reliability
        # Popularity fallback order is static: most-reviewed first,
        # item id breaking ties (stable sort on the negated counts).
        self._popular = np.argsort(
            -np.asarray(store.item_popularity), kind="stable"
        )
        # item -> its citations for k = explain_pool (see explain); a
        # store reload builds a new Retriever, so it never outlives its store.
        self._citations: Dict[int, List[Dict]] = {}

    # ------------------------------------------------------------------
    def recommend_batch(
        self, requests: Sequence[Tuple[int, int, int]]
    ) -> List[List[Dict]]:
        """Serve a batch of ``(user_id, k, explain_k)`` requests.

        One fused ``(B, num_items)`` scoring pass over the store, then
        per-user candidate selection and re-rank.  Returns one
        recommendation list per request, aligned with the input.
        """
        users = np.array([user for user, _, _ in requests], dtype=np.int64)
        with maybe_span("serve.score", kind="serve", batch=len(users)):
            ratings, reliabilities = self.store.score_users(users)
        registry = obs_metrics.active()
        if registry is not None:
            registry.counter(
                "repro_serve_scored_pairs_total",
                "(user, item) pairs scored against the embedding store",
            ).labels().inc(ratings.size)
        results: List[List[Dict]] = []
        for row, (user, k, explain_k) in enumerate(requests):
            results.append(
                self._rank_row(
                    int(user), ratings[row], reliabilities[row], k, explain_k
                )
            )
        return results

    def _rank_row(
        self,
        user: int,
        ratings: np.ndarray,
        reliabilities: np.ndarray,
        k: int,
        explain_k: int,
    ) -> List[Dict]:
        """Candidate generation + re-rank for one pre-scored user row."""
        ratings = np.array(ratings)  # own the row; masking mutates it
        seen = self.store.seen_items(user)
        if len(seen):
            ratings[seen] = -np.inf
        pool = min(max(self.candidate_pool, k), ratings.shape[0])
        with maybe_span("serve.rerank", kind="serve", user=user, pool=pool):
            # Dot-product retrieval: a partition finds the pool's boundary
            # rating in O(num_items); everything above it joins, and ties
            # at it are filled lowest id first, the pool offline ranking
            # picks.  The shared core then orders the pool exactly.
            boundary = -np.partition(-ratings, pool - 1)[pool - 1]
            above = np.flatnonzero(ratings > boundary)
            tied = np.flatnonzero(ratings == boundary)[: pool - len(above)]
            candidates = np.concatenate([above, tied])
            candidates = np.sort(candidates[np.isfinite(ratings[candidates])])
            if len(candidates) == 0:
                return []  # the user has seen every item
            # Ascending-id candidate order makes the stable re-rank break
            # rating ties exactly like the offline path (which scores
            # items in id order), so online == offline item-for-item.
            order = rank_by_rating_then_reliability(
                ratings[candidates], reliabilities[candidates], len(candidates)
            )[:k]
            chosen = candidates[order]
        recs = []
        for item in chosen:
            item = int(item)
            rec = {
                "item_id": item,
                "item_name": self.store.item_name(item),
                "predicted_rating": float(ratings[item]),
                "predicted_reliability": float(reliabilities[item]),
            }
            if explain_k > 0:
                rec["explanations"] = self.explain(item, explain_k)
            recs.append(rec)
        return recs

    # ------------------------------------------------------------------
    def explain(self, item_id: int, k: int) -> List[Dict]:
        """Top reliable reviews of one item, from precomputed predictions.

        Mirrors ``repro.core.explain_item``: rating-sorted candidate
        pool of the item's reviews, reliability re-rank, reviews under
        ``min_reliability`` filtered out.  For ``k <= explain_pool`` the
        pool does not depend on ``k``, so the answer is the first ``k``
        of the item's memoised ``explain_pool`` list; the citation dicts
        are shared between responses and must not be mutated.
        """
        if k < 1:
            return []
        if k > self.explain_pool:
            return self._cite(item_id, k)
        cited = self._citations.get(item_id)
        if cited is None:
            cited = self._cite(item_id, self.explain_pool)
            # One assignment of a finished list: a concurrent reader sees
            # no entry (and computes its own equal copy) or all of it.
            self._citations[item_id] = cited
        return cited[:k]

    def _cite(self, item_id: int, k: int) -> List[Dict]:
        """The ``k`` top reliable reviews of one item, computed afresh."""
        store = self.store
        review_idx = store.item_reviews(item_id)
        if len(review_idx) == 0:
            return []
        pool = min(max(self.explain_pool, k), len(review_idx))
        order = rank_by_rating_then_reliability(
            np.asarray(store.review_pred_rating[review_idx]),
            np.asarray(store.review_pred_reliability[review_idx]),
            pool,
        )
        payload: List[Dict] = []
        for pos in order:
            reliability = float(store.review_pred_reliability[review_idx[pos]])
            if reliability < self.min_reliability:
                continue
            idx = int(review_idx[pos])
            user = int(store.review_users[idx])
            payload.append(
                {
                    "review_index": idx,
                    "user_id": user,
                    "user_name": store.user_name(user),
                    "text": store.review_text(idx),
                    "predicted_rating": float(store.review_pred_rating[idx]),
                    "predicted_reliability": reliability,
                    "actual_rating": float(store.review_ratings[idx]),
                }
            )
            if len(payload) >= k:
                break
        return payload

    # ------------------------------------------------------------------
    def popular_items(self, k: int, explain_k: int = 0) -> List[Dict]:
        """Popularity fallback for unknown users: most-reviewed items.

        Served with observed mean rating and mean predicted reliability
        instead of personalized scores (there is no user embedding to
        score with).  Explanations are fail-soft: this path also backs
        the degradation ladder, and a degraded response must cite only
        reviews whose predictions were genuinely computed — if the
        explanation lookup itself fails, the item is served with an
        empty citation list rather than a fabricated one.
        """
        recs = []
        for item in self._popular[:k]:
            item = int(item)
            rec = {
                "item_id": item,
                "item_name": self.store.item_name(item),
                "predicted_rating": float(self.store.item_mean_rating[item]),
                "predicted_reliability": float(
                    self.store.item_mean_reliability[item]
                ),
                "review_count": int(self.store.item_popularity[item]),
            }
            if explain_k > 0:
                try:
                    rec["explanations"] = self.explain(item, explain_k)
                except Exception:
                    rec["explanations"] = []
            recs.append(rec)
        return recs
