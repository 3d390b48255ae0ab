"""RRRE (and the RRRE⁻ ablation) through the baseline interfaces, so the
experiment harness treats every model uniformly."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from ..core import RRREConfig, RRRETrainer, fast_config
from ..data import ReviewDataset, ReviewSubset
from .base import RatingModel, ReliabilityModel


class RRREAdapter(RatingModel, ReliabilityModel):
    """RRRE as a Table III rating model and a Table IV-VI reliability
    scorer from one fit (``biased=False`` gives RRRE⁻).

    The caller's ``config`` is left as it is: the model trains on a copy
    whose ``biased_loss`` is ``biased``.
    """

    def __init__(self, config: Optional[RRREConfig] = None, biased: bool = True) -> None:
        self.config = replace(config or fast_config(), biased_loss=biased)
        self.trainer = RRRETrainer(self.config)
        self.name = "RRRE" if biased else "RRRE-"

    def fit(
        self,
        dataset: ReviewDataset,
        train: ReviewSubset,
        test: Optional[ReviewSubset] = None,
    ) -> "RRREAdapter":
        self.trainer.fit(dataset, train, test=None)
        return self

    def predict_subset(self, subset: ReviewSubset) -> np.ndarray:
        ratings, _ = self.trainer.predict_subset(subset)
        return ratings

    def score_subset(self, subset: ReviewSubset) -> np.ndarray:
        _, reliabilities = self.trainer.predict_subset(subset)
        return reliabilities
