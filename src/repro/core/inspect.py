"""Attention inspection: see *which* reviews built a profile.

The fraud-attention weights (Eq. 6) are the model's internal judgement
of how much each profile review should be trusted; surfacing them gives
a second, finer-grained layer of explainability beyond Sec III-B's
recommendation/explanation lists, and is the basis for the ablation that
checks the attention actually down-weights fake reviews.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .trainer import RRRETrainer


@dataclass(frozen=True)
class AttendedReview:
    """One profile review with its attention weight."""

    review_index: int
    weight: float
    text: str
    rating: float
    label: int
    is_blank: bool


def user_profile_attention(
    trainer: RRRETrainer, user_id: int, item_id: int = 0
) -> List[AttendedReview]:
    """The attention distribution over a user's profile reviews.

    The weights depend only on the user's side of the model: the
    profile reviews, the user's ID embedding and the ID embeddings of
    the items those reviews are about.  They do not depend on the item
    being scored, so ``item_id`` only picks the pair the forward pass
    runs on; every valid item gives the same weights.
    """
    return _profile_attention(trainer, user_id, item_id, side="user")


def item_profile_attention(
    trainer: RRRETrainer, item_id: int, user_id: int = 0
) -> List[AttendedReview]:
    """The attention distribution over an item's profile reviews.

    As for :func:`user_profile_attention`, with the roles swapped: the
    weights do not depend on ``user_id``.
    """
    return _profile_attention(trainer, user_id, item_id, side="item")


def attention_fake_discount(trainer: RRRETrainer, max_items: int = 50) -> float:
    """How much the item-side attention down-weights fake reviews.

    Returns ``mean attention on benign slots − mean attention on fake
    slots`` (normalised per item by the uniform weight, so 0 means the
    attention is indifferent to reliability and positive values mean
    fakes are discounted).  Only items whose profiles mix both classes
    contribute.
    """
    trainer._require_fitted()
    dataset = trainer.dataset
    gaps = []
    for item_id in range(min(dataset.num_items, max_items)):
        attended = item_profile_attention(trainer, item_id)
        real = [a for a in attended if not a.is_blank]
        fakes = [a.weight for a in real if a.label == 0]
        benign = [a.weight for a in real if a.label == 1]
        if not fakes or not benign:
            continue
        uniform = 1.0 / len(real)
        gaps.append((np.mean(benign) - np.mean(fakes)) / uniform)
    if not gaps:
        raise ValueError("no item profile mixes fake and benign reviews")
    return float(np.mean(gaps))


def _profile_attention(trainer, user_id, item_id, side):
    trainer._require_fitted()
    dataset = trainer.dataset
    if not 0 <= user_id < dataset.num_users:
        raise IndexError(f"user_id {user_id} outside [0, {dataset.num_users})")
    if not 0 <= item_id < dataset.num_items:
        raise IndexError(f"item_id {item_id} outside [0, {dataset.num_items})")

    trainer.model.eval()
    out = trainer.model(
        np.array([user_id]), np.array([item_id]), trainer.slots, trainer.table
    )
    if side == "user":
        weights = out.user_attention.data[0]
        slots = trainer.slots.user_slots[user_id]
        mask = trainer.slots.user_slot_mask[user_id]
    else:
        weights = out.item_attention.data[0]
        slots = trainer.slots.item_slots[item_id]
        mask = trainer.slots.item_slot_mask[item_id]

    attended: List[AttendedReview] = []
    for slot, weight, valid in zip(slots, weights, mask):
        if not valid:
            continue
        if 0 <= slot < len(dataset):
            review = dataset.reviews[int(slot)]
            attended.append(
                AttendedReview(
                    review_index=int(slot),
                    weight=float(weight),
                    text=review.text,
                    rating=review.rating,
                    label=review.label,
                    is_blank=False,
                )
            )
        else:  # the cold-start blank review
            attended.append(
                AttendedReview(
                    review_index=-1,
                    weight=float(weight),
                    text="",
                    rating=float("nan"),
                    label=1,
                    is_blank=True,
                )
            )
    attended.sort(key=lambda a: -a.weight)
    return attended
