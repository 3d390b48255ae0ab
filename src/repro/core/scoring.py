"""Pair scores from the factored per-entity head terms.

The arithmetic :class:`repro.core.profiles.ProfileTable` and
:class:`repro.serve.EmbeddingStore` both score (u, i) pairs with.  It
imports numpy only, so a serving process loads neither the model
(``repro.nn``) nor the data layer.
"""

from __future__ import annotations

import numpy as np


def factored_scores(arrays, rel_bias: float, rating_range, user_ids, item_ids):
    """``(ratings, reliabilities)`` of aligned (u, i) pairs, ratings clipped.

    ``arrays`` maps the store names (``user_factors``, ``user_bias``,
    ``user_rel`` and the item counterparts) to the per-entity terms.
    """
    user_ids = np.asarray(user_ids, dtype=np.int64)
    item_ids = np.asarray(item_ids, dtype=np.int64)
    ratings = np.sum(
        arrays["user_factors"][user_ids] * arrays["item_factors"][item_ids], axis=1
    )
    ratings += arrays["user_bias"][user_ids]
    ratings += arrays["item_bias"][item_ids]
    np.clip(ratings, *rating_range, out=ratings)
    logits = arrays["user_rel"][user_ids] + arrays["item_rel"][item_ids] + rel_bias
    return ratings, 1.0 / (1.0 + np.exp(-logits))
