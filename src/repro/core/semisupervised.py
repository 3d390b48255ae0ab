"""Semi-supervised RRRE (the paper's stated future work, Sec V).

The paper's conclusion: "we will improve the design of our model to
facilitate semi-supervised learning so that it can easily adapt to new
users and items".  This module implements that extension as
*self-training*:

1. only a fraction of the training reviews keep their reliability
   labels; the rest are treated as unlabeled;
2. the reliability loss (Eq. 11) is computed over labeled reviews only,
   and the biased rating loss (Eq. 14) weights unlabeled reviews by the
   model's own (detached) reliability estimate instead of the label;
3. after each round, confident predictions on unlabeled reviews become
   pseudo-labels and training continues.

With a 10-20 % label budget this recovers most of the fully supervised
AUC — the experiment in ``benchmarks/bench_ext_semisupervised.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.nn import Adam, cross_entropy_loss, weighted_mse_loss
from repro.nn import functional as F
from repro.obs import RunObserver

from ..data import ReviewDataset, ReviewSubset
from .config import RRREConfig
from .losses import JointLossParts
from .trainer import RRRETrainer


@dataclass
class SelfTrainingState:
    """Bookkeeping of the label budget and pseudo-labels."""

    labeled_mask: np.ndarray  # over the full dataset; True = label visible
    soft_weights: np.ndarray  # per-review rating-loss weight in [0, 1]
    pseudo_labeled: int = 0


class SemiSupervisedRRRETrainer(RRRETrainer):
    """RRRE trained with a partial reliability-label budget.

    Setup and the step loop are :class:`RRRETrainer`'s; only the batch
    loss (:meth:`_batch_loss`) differs.  The self-training rounds and
    pseudo-label adoption wrap that loop.

    Parameters
    ----------
    config:
        Standard :class:`RRREConfig`; ``config.epochs`` is the epoch
        count *per self-training round*.
    label_fraction:
        Fraction of training reviews whose labels are visible.
    rounds:
        Self-training rounds (1 = no pseudo-labeling, just masked loss).
    confidence:
        Pseudo-labels are only adopted when the predicted reliability is
        below ``1 - confidence`` (fake) or above ``confidence`` (benign).
    """

    def __init__(
        self,
        config: Optional[RRREConfig] = None,
        label_fraction: float = 0.2,
        rounds: int = 2,
        confidence: float = 0.9,
    ) -> None:
        super().__init__(config)
        if not 0.0 < label_fraction <= 1.0:
            raise ValueError(f"label_fraction must be in (0, 1], got {label_fraction}")
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        if not 0.5 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0.5, 1), got {confidence}")
        self.label_fraction = label_fraction
        self.rounds = rounds
        self.confidence = confidence
        self.state: Optional[SelfTrainingState] = None

    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: ReviewDataset,
        train: ReviewSubset,
        test: Optional[ReviewSubset] = None,
        verbose: bool = False,
    ) -> "SemiSupervisedRRRETrainer":
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self._prepare(dataset, train)
        if cfg.pretrain_words:
            self._pretrain_words(dataset, train)

        # Label budget over the training reviews.
        train_idx = train.index_array
        visible = rng.random(len(train_idx)) < self.label_fraction
        labeled_mask = np.zeros(len(dataset), dtype=bool)
        labeled_mask[train_idx[visible]] = True
        if not labeled_mask.any():
            raise ValueError("label budget left zero labeled reviews; raise label_fraction")

        # Unlabeled reviews start at the labeled benign base rate.
        base_rate = float(dataset.labels[labeled_mask].mean())
        soft = np.full(len(dataset), base_rate)
        soft[labeled_mask] = dataset.labels[labeled_mask].astype(np.float64)
        self.state = SelfTrainingState(labeled_mask=labeled_mask, soft_weights=soft)

        optimizer = Adam(self.model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        observer = RunObserver()
        self.history = []
        for round_no in range(1, self.rounds + 1):
            for epoch in range(1, cfg.epochs + 1):
                record, _ = self._train_epoch(
                    train, optimizer, rng, (round_no - 1) * cfg.epochs + epoch, observer
                )
                if test is not None:
                    record.eval_metrics = self.evaluate(test)
                self.history.append(record)
                if verbose:
                    extra = " ".join(
                        f"{k}={v:.4f}" for k, v in record.eval_metrics.items()
                    )
                    print(
                        f"[{dataset.name}] round {round_no} epoch {epoch} "
                        f"loss={record.train_loss:.4f} {extra}"
                    )
            if round_no < self.rounds:
                self._adopt_pseudo_labels(train)
                if verbose:
                    print(
                        f"[{dataset.name}] round {round_no}: "
                        f"{self.state.pseudo_labeled} pseudo-labels adopted"
                    )
        return self

    # ------------------------------------------------------------------
    def _batch_loss(self, out, batch) -> JointLossParts:
        """Masked reliability CE plus soft-weighted rating MSE.

        Reviews without a visible label drop out of the reliability loss
        (Eq. 11, masked) and weight the rating loss (Eq. 14) by their
        current soft pseudo-weight instead of the label.
        """
        cfg = self.config
        labeled = self.state.labeled_mask[batch.review_indices]
        weights = self.state.soft_weights[batch.review_indices]
        loss1 = None
        if labeled.any():
            rows = np.flatnonzero(labeled)
            logits = F.getitem(out.reliability_logits, (rows,))
            loss1 = cross_entropy_loss(logits, batch.labels[rows])
        loss2 = weighted_mse_loss(out.rating, batch.ratings, weights)
        if loss1 is None:
            return JointLossParts(loss2, reliability_loss=0.0, rating_loss=float(loss2.data))
        total = cfg.lambda_weight * loss1 + (1.0 - cfg.lambda_weight) * loss2
        return JointLossParts(total, float(loss1.data), float(loss2.data))

    def _adopt_pseudo_labels(self, train) -> None:
        """Turn confident predictions on unlabeled train reviews into labels."""
        state = self.state
        unlabeled = train.index_array[~state.labeled_mask[train.index_array]]
        if len(unlabeled) == 0:
            return
        users = self.dataset.user_ids[unlabeled]
        items = self.dataset.item_ids[unlabeled]
        _, reliability = self.predict_pairs(users, items)

        confident_benign = reliability >= self.confidence
        confident_fake = reliability <= 1.0 - self.confidence
        adopted = unlabeled[confident_benign | confident_fake]
        state.soft_weights[unlabeled] = np.clip(reliability, 0.0, 1.0)
        state.soft_weights[unlabeled[confident_benign]] = 1.0
        state.soft_weights[unlabeled[confident_fake]] = 0.0
        state.pseudo_labeled = int(len(adopted))

    # ------------------------------------------------------------------
    def label_budget_summary(self) -> Dict[str, float]:
        """How much supervision the model actually used."""
        if self.state is None:
            raise RuntimeError("trainer is not fitted; call fit() first")
        return {
            "labeled": int(self.state.labeled_mask.sum()),
            "pseudo_labeled": self.state.pseudo_labeled,
            "label_fraction": self.label_fraction,
        }
