"""The RRRE model (paper Sec III): joint rating + reliability prediction.

Forward dataflow for a batch of (u, i) pairs:

1. gather each user's s_u and each item's s_i review slots (Sec III-D);
2. encode every distinct review once with the BiLSTM encoder (Eq. 2-4);
3. pool with fraud-attention into x_u and y_i (Eq. 5-8);
4. reliability head: softmax over W[x_u, y_i] + b (Eq. 9-10);
5. rating head: FM([(e_u + W_h x_u), (e_i + W_e y_i)]) (Eq. 12).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

import repro.nn as nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor

from ..data import InputSlots, ReviewTextTable
from .config import RRREConfig
from .encoder import make_encoder
from .nets import EntityNet

#: Class index of the "benign" reliability class in the softmax head.
BENIGN_CLASS = 1


@dataclass
class RRREOutput:
    """Forward results for one batch."""

    rating: Tensor  # (B,)
    reliability_logits: Tensor  # (B, 2)
    user_attention: Tensor  # (B, s_u)
    item_attention: Tensor  # (B, s_i)

    @property
    def reliability(self) -> np.ndarray:
        """P(benign) per review pair (Eq. 10) as a plain array."""
        logits = self.reliability_logits.data
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs[:, BENIGN_CLASS]


class RRRE(nn.Module):
    """Reliable Recommendation with Review-level Explanations.

    Parameters
    ----------
    config:
        Hyper-parameters (see :class:`RRREConfig`).
    num_users / num_items:
        Entity counts of the dataset (size the ID embedding tables).
    vocab_size:
        Vocabulary size for the word embedding table.
    """

    def __init__(
        self,
        config: RRREConfig,
        num_users: int,
        num_items: int,
        vocab_size: int,
    ) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        k = config.review_dim

        self.word_embedding = nn.Embedding(
            vocab_size, config.word_dim, rng, padding_idx=0
        )
        self.user_encoder = make_encoder(config.encoder, self.word_embedding, k, rng)
        self.item_encoder = make_encoder(config.encoder, self.word_embedding, k, rng)

        self.user_id_embedding = nn.Embedding(num_users, config.id_dim, rng)
        self.item_id_embedding = nn.Embedding(num_items, config.id_dim, rng)

        self.user_net = EntityNet(
            review_dim=k,
            own_dim=config.id_dim,
            other_dim=config.id_dim,
            attention_dim=config.attention_dim,
            rng=rng,
            pooling=config.pooling,
        )
        self.item_net = EntityNet(
            review_dim=k,
            own_dim=config.id_dim,
            other_dim=config.id_dim,
            attention_dim=config.attention_dim,
            rng=rng,
            pooling=config.pooling,
        )

        # Eq. 12: W_h, W_e map profiles into the ID space.
        self.w_h = nn.Linear(k, config.id_dim, rng, bias=False)
        self.w_e = nn.Linear(k, config.id_dim, rng, bias=False)
        self.fm = nn.FactorizationMachine(2 * config.id_dim, config.fm_factors, rng)

        # Eq. 9: reliability head over [x_u, y_i].
        self.reliability_head = nn.Linear(2 * k, 2, rng)
        self.dropout = nn.Dropout(config.dropout, rng)

    # ------------------------------------------------------------------
    def forward(
        self,
        user_ids: np.ndarray,
        item_ids: np.ndarray,
        slots: InputSlots,
        table: ReviewTextTable,
    ) -> RRREOutput:
        """Score a batch of (user, item) pairs."""
        user_ids = np.asarray(user_ids, dtype=np.int64)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if user_ids.shape != item_ids.shape or user_ids.ndim != 1:
            raise ValueError("user_ids and item_ids must be aligned 1-d arrays")

        # UserNet ------------------------------------------------------
        u_slots = slots.user_slots[user_ids]  # (B, s_u)
        u_mask = slots.user_slot_mask[user_ids]
        u_reviews = _encode_slots(self.user_encoder, u_slots, table)  # (B, s_u, k)
        e_u = self.user_id_embedding(user_ids)  # (B, id)
        u_others = self.item_id_embedding(slots.user_slot_items[user_ids])
        x_u, attn_u = self.user_net(u_reviews, e_u, u_others, u_mask)

        # ItemNet ------------------------------------------------------
        i_slots = slots.item_slots[item_ids]
        i_mask = slots.item_slot_mask[item_ids]
        i_reviews = _encode_slots(self.item_encoder, i_slots, table)
        e_i = self.item_id_embedding(item_ids)
        i_others = self.user_id_embedding(slots.item_slot_users[item_ids])
        y_i, attn_i = self.item_net(i_reviews, e_i, i_others, i_mask)

        # Reliability head (Eq. 9) -------------------------------------
        joint = self.dropout(F.concat([x_u, y_i], axis=-1))
        logits = self.reliability_head(joint)

        # Rating head (Eq. 12) ------------------------------------------
        z = F.concat([e_u + self.w_h(x_u), e_i + self.w_e(y_i)], axis=-1)
        rating = self.fm(self.dropout(z))

        return RRREOutput(
            rating=rating,
            reliability_logits=logits,
            user_attention=attn_u,
            item_attention=attn_i,
        )

    # ------------------------------------------------------------------
    def component_summary(self) -> dict:
        """Parameter count per top-level component, largest first.

        Shared submodules (the word embedding both review encoders read)
        are counted under every component that references them, so the
        values can sum to more than :meth:`num_parameters`.  Feeds the
        ``model`` section of :class:`repro.obs.RunReport`.
        """
        totals = {
            attr: sum(p.size for p in value.parameters())
            for attr, value in vars(self).items()
            if isinstance(value, nn.Module)
        }
        return dict(sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])))


def _encode_slots(encoder: nn.Module, slot_matrix: np.ndarray, table: ReviewTextTable) -> Tensor:
    """Encode the reviews referenced by ``slot_matrix`` with deduplication.

    Popular items appear in many pairs of a batch, so the same review
    index recurs; each distinct review is pushed through the encoder
    exactly once and the encodings are gathered back into ``(B, s, k)``.
    Padded slots (-1) are clamped to review 0 — their encodings are
    discarded by the attention mask downstream.
    """
    batch, s = slot_matrix.shape
    safe = np.maximum(slot_matrix.reshape(-1), 0)
    unique, inverse = np.unique(safe, return_inverse=True)
    encoded = encoder(table.token_ids[unique], table.token_mask[unique])  # (U, k)
    gathered = F.take_rows(encoded, inverse.reshape(batch, s))
    return gathered

