"""Experimental protocol: seeded multi-run evaluation (paper Sec IV).

The paper reports "the mean values of five experiments" on a 70/30
split.  :func:`run_seeds` loads and splits each (catalog, seed) once,
fits each model once on it, and returns one flat row per
(catalog, seed, model) with every metric the model supports.  A table
is then a mean over rows (:func:`seed_mean`), and paired-seed claims
read the rows directly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.obs.trace import maybe_span

from ..data import load_dataset, train_test_split
from ..metrics import auc, average_precision, biased_rmse, ndcg_at_k

#: The NDCG@k depths every reliability row carries (Tables V and VI).
NDCG_KS = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)

#: One result row: ``dataset``, ``seed``, ``model`` and the metrics.
Row = Dict[str, object]


def run_seeds(
    datasets: Sequence[str],
    models: Dict[str, Callable[[int], object]],
    seeds: Sequence[int],
    scale: float,
) -> List[Row]:
    """Fit every model once per (catalog, seed) and score it on the test split.

    ``models`` maps a name to a factory ``seed -> model``.  A model with
    ``predict_subset`` is scored by bRMSE; one with ``score_subset`` by
    AUC, AP and ``ndcg@k`` for each k of :data:`NDCG_KS`; a model with
    both (RRRE) gets every metric from its one fit.  Dataset generation,
    the split and each model all derive their randomness from the seed,
    so the rows are reproducible.
    """
    rows: List[Row] = []
    for name in datasets:
        for seed in seeds:
            dataset = load_dataset(name, seed=seed, scale=scale)
            train, test = train_test_split(dataset, seed=seed)
            for model_name, factory in models.items():
                row: Row = {"dataset": name, "seed": seed, "model": model_name}
                with maybe_span(
                    "eval.protocol", kind="eval", dataset=name, model=model_name, seed=seed
                ):
                    model = factory(seed)
                    model.fit(dataset, train)
                    if hasattr(model, "predict_subset"):
                        predictions = model.predict_subset(test)
                        row["brmse"] = biased_rmse(predictions, test.ratings, test.labels)
                    if hasattr(model, "score_subset"):
                        scores = model.score_subset(test)
                        row["auc"] = auc(scores, test.labels)
                        row["ap"] = average_precision(scores, test.labels)
                        for k in NDCG_KS:
                            row[f"ndcg@{k}"] = ndcg_at_k(scores, test.labels, k)
                rows.append(row)
    return rows


def seed_mean(rows: Sequence[Row], dataset: str, model: str, metric: str) -> float:
    """Mean of ``metric`` over the seeds of one (dataset, model)."""
    values = [
        row[metric] for row in rows if row["dataset"] == dataset and row["model"] == model
    ]
    if not values:
        raise KeyError(f"no rows for dataset {dataset!r}, model {model!r}")
    return float(np.mean(values))
