"""Profile tables: RRRE's two heads factored over per-entity terms.

In eval mode the profiles ``x_u`` / ``y_i`` depend only on the user /
item, so every (u, i) score decomposes exactly into per-entity pieces:

* **Rating (Eq. 12)** — the FM over ``z = [z_u, z_i]`` with
  ``z_u = e_u + W_h x_u`` splits as ``A_u + B_i + p_u . q_i``, where
  ``p_u = V_u^T z_u`` / ``q_i = V_i^T z_i`` are the FM factor
  projections and ``A_u`` / ``B_i`` absorb the bias, linear, and
  intra-entity pairwise terms.
* **Reliability (Eq. 9-10)** — the two-class softmax reduces to
  ``sigmoid(a_u + c_i + b)`` with ``a_u = x_u . (W[:,1]-W[:,0])_user``
  and ``c_i`` the item half.

A :class:`ProfileTable` holds those terms for every user and item,
built in one eval-mode encode pass.  Offline inference
(``RRRETrainer.predict_pairs``) and :func:`repro.serve.export_store`
read it, and :func:`repro.core.scoring.factored_scores` is the
arithmetic both it and :class:`repro.serve.EmbeddingStore` score pairs
with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.obs.trace import maybe_span

from .model import _encode_slots
from .scoring import factored_scores

#: Users (or items) encoded per batch of a table build.
BUILD_BATCH = 256


def forward_scores(model, slots, table, rating_range, user_ids, item_ids):
    """The pairwise reference — one eval-mode model forward, ratings clipped —
    for parity checks that must not read a profile table."""
    model.eval()
    out = model(user_ids, item_ids, slots, table)
    return np.clip(out.rating.data, *rating_range), out.reliability


@dataclass(frozen=True, eq=False)
class ProfileTable:
    """Per-entity head terms of one trained model, keyed on its weights.

    ``arrays`` holds the six per-entity terms under their store names
    (read-only).  The table keeps the model, slots and token table it
    was built from, the model's parameters and their version counters;
    :meth:`is_current` compares them, so an optimizer step, a
    ``load_state_dict`` or a pretrained-embedding load makes it stale.
    """

    arrays: Dict[str, np.ndarray]
    rel_bias: float
    rating_range: Tuple[float, float]
    sources: tuple
    params: list
    versions: List[int]

    @classmethod
    def build(cls, model, slots, table, rating_range) -> "ProfileTable":
        """Encode every user and item once (eval mode) and factor the heads."""
        params = model.parameters()
        versions = [p.version for p in params]
        with maybe_span("core.profiles", kind="core"):
            model.eval()
            x_u = _entity_profiles(model, slots, table, "user")  # (U, k)
            y_i = _entity_profiles(model, slots, table, "item")  # (I, k)
            k, d = model.config.review_dim, model.config.id_dim
            # Reliability head: P(benign) of the two-class softmax is the
            # sigmoid of the logit difference.
            w_rel = model.reliability_head.weight.data  # (2k, 2)
            b_rel = model.reliability_head.bias.data  # (2,)
            d_w = w_rel[:, 1] - w_rel[:, 0]
            # Rating head: FM([(e_u + W_h x_u), (e_i + W_e y_i)]) decomposed.
            z_u = model.user_id_embedding.weight.data + x_u @ model.w_h.weight.data
            z_i = model.item_id_embedding.weight.data + y_i @ model.w_e.weight.data
            w0 = float(model.fm.global_bias.data[0])
            w_lin = model.fm.linear.data[:, 0]  # (2d,)
            v_u, v_i = model.fm.factors.data[:d], model.fm.factors.data[d:]
            p_u, q_i = z_u @ v_u, z_i @ v_i  # (U, f), (I, f)
            arrays = {
                "user_factors": p_u,
                "user_bias": w0 + z_u @ w_lin[:d]
                + 0.5 * ((p_u**2).sum(axis=1) - (z_u**2) @ (v_u**2).sum(axis=1)),
                "user_rel": x_u @ d_w[:k],
                "item_factors": q_i,
                "item_bias": z_i @ w_lin[d:]
                + 0.5 * ((q_i**2).sum(axis=1) - (z_i**2) @ (v_i**2).sum(axis=1)),
                "item_rel": y_i @ d_w[k:],
            }
        for array in arrays.values():
            array.setflags(write=False)  # exported stores share them
        return cls(
            arrays, float(b_rel[1] - b_rel[0]), rating_range,
            (model, slots, table), params, versions,
        )

    def is_current(self, model, slots, table) -> bool:
        """Whether the table still describes ``model`` over ``slots``/``table``."""
        built_model, built_slots, built_table = self.sources
        return (
            model is built_model
            and slots is built_slots
            and table is built_table
            and [p.version for p in self.params] == self.versions
        )

    def score_pairs(self, user_ids, item_ids):
        """``(ratings, reliabilities)`` for aligned (u, i) pairs."""
        return factored_scores(
            self.arrays, self.rel_bias, self.rating_range, user_ids, item_ids
        )


def _entity_profiles(model, slots, table, side: str) -> np.ndarray:
    """Eval-mode profiles ``x_u`` (side="user") or ``y_i`` (side="item")."""
    if side == "user":
        encoder, net = model.user_encoder, model.user_net
        slot_matrix, slot_mask = slots.user_slots, slots.user_slot_mask
        own_emb, other_emb = model.user_id_embedding, model.item_id_embedding
        counterparts = slots.user_slot_items
    else:
        encoder, net = model.item_encoder, model.item_net
        slot_matrix, slot_mask = slots.item_slots, slots.item_slot_mask
        own_emb, other_emb = model.item_id_embedding, model.user_id_embedding
        counterparts = slots.item_slot_users
    count = own_emb.num_embeddings
    profiles = np.empty((count, model.config.review_dim))
    for start in range(0, count, BUILD_BATCH):
        ids = np.arange(start, min(start + BUILD_BATCH, count), dtype=np.int64)
        reviews = _encode_slots(encoder, slot_matrix[ids], table)
        pooled, _ = net(
            reviews, own_emb(ids), other_emb(counterparts[ids]), slot_mask[ids]
        )
        profiles[ids] = pooled.data
    return profiles
