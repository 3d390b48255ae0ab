"""One entry point per paper artifact (Tables II-VIII, Figures 2-4).

Every ``run_*`` function regenerates one table or figure of the paper on
the simulated datasets and returns an :class:`ExperimentReport` whose
``rendered`` field is the printable artifact and whose ``data`` field
holds the raw numbers (consumed by the test suite and EXPERIMENTS.md).

Scale knobs: all functions accept ``scale`` (dataset size multiplier),
``seeds`` and ``epochs`` so the same code serves quick benchmark runs
and higher-fidelity reproductions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from ..baselines import (
    DER,
    ICWSM13,
    NARRE,
    PMF,
    REV2,
    DeepCoNN,
    RRRERating,
    RRREReliability,
    SpEaglePlus,
)
from ..core import RRRETrainer, explain_item, recommend_items
from ..core.config import bench_rrre_config
from ..data import DATASET_NAMES, PAPER_STATISTICS, load_dataset, train_test_split
from ..metrics import auc, average_precision, biased_rmse, ndcg_at_k
from .protocol import run_protocol
from .reporting import format_series, format_table


@dataclass
class ExperimentReport:
    """A regenerated paper artifact."""

    experiment: str
    rendered: str
    data: Dict = field(default_factory=dict)

    def __str__(self) -> str:
        return self.rendered


# ---------------------------------------------------------------------------
# Table II — dataset statistics
# ---------------------------------------------------------------------------


def run_table2(scale: float = 0.5, seed: int = 0) -> ExperimentReport:
    """Statistics of the five simulated datasets next to the paper's."""
    rows = {}
    for name in DATASET_NAMES:
        stats = load_dataset(name, seed=seed, scale=scale).statistics()
        paper = PAPER_STATISTICS[name]
        rows[name] = {
            "reviews": stats["reviews"],
            "fake%": 100.0 * stats["fake_fraction"],
            "items": stats["items"],
            "users": stats["users"],
            "paper fake%": 100.0 * paper["fake_fraction"],
        }
    rendered = format_table(
        "Table II — dataset statistics (simulated vs paper fake share)",
        rows=list(rows),
        columns=["reviews", "fake%", "items", "users", "paper fake%"],
        values=rows,
        precision=1,
    )
    return ExperimentReport("table2", rendered, {"rows": rows})


# ---------------------------------------------------------------------------
# Table III — bRMSE of rating prediction
# ---------------------------------------------------------------------------


def _rating_evaluator(factory: Callable[[int], object]):
    def evaluate(dataset, train, test, seed, _factory=factory):
        model = _factory(seed)
        model.fit(dataset, train)
        predictions = model.predict_subset(test)
        return {"brmse": biased_rmse(predictions, test.ratings, test.labels)}

    return evaluate


def rating_model_factories(epochs: int = 14) -> Dict[str, Callable]:
    """Factories for every Table III column."""
    neural_epochs = max(4, epochs // 2)
    return {
        "RRRE": lambda seed: RRRERating(bench_rrre_config(epochs=epochs, seed=seed)),
        "PMF": lambda seed: PMF(epochs=25, seed=seed),
        "DeepCoNN": lambda seed: DeepCoNN(epochs=neural_epochs, seed=seed),
        "NARRE": lambda seed: NARRE(epochs=neural_epochs, seed=seed),
        "DER": lambda seed: DER(epochs=neural_epochs, seed=seed),
        "RRRE-": lambda seed: RRRERating(
            bench_rrre_config(epochs=epochs, seed=seed), biased=False
        ),
    }


def run_table3(
    datasets: Sequence[str] = DATASET_NAMES,
    seeds: Sequence[int] = (0, 1, 2),
    scale: float = 0.5,
    epochs: int = 14,
    verbose: bool = False,
) -> ExperimentReport:
    """Table III: bRMSE of all rating models across datasets."""
    factories = rating_model_factories(epochs=epochs)
    values: Dict[str, Dict[str, float]] = {name: {} for name in datasets}
    for name in datasets:
        evaluators = {
            model: _rating_evaluator(factory) for model, factory in factories.items()
        }
        aggregates = run_protocol(
            name, evaluators, seeds=seeds, scale=scale, verbose=verbose
        )
        for model, agg in aggregates.items():
            values[name][model] = agg.mean("brmse")
    rendered = format_table(
        "Table III — bRMSE of rating prediction (lower is better, * = best)",
        rows=list(datasets),
        columns=list(factories),
        values=values,
        highlight_best="min",
        best_axis="row",
    )
    return ExperimentReport("table3", rendered, {"brmse": values})


# ---------------------------------------------------------------------------
# Table IV — AUC / AP of reliability prediction
# ---------------------------------------------------------------------------


def _reliability_evaluator(factory: Callable[[int], object]):
    def evaluate(dataset, train, test, seed, _factory=factory):
        model = _factory(seed)
        model.fit(dataset, train)
        scores = model.score_subset(test)
        return {
            "auc": auc(scores, test.labels),
            "ap": average_precision(scores, test.labels),
        }

    return evaluate


def reliability_model_factories(epochs: int = 14) -> Dict[str, Callable]:
    """Factories for every Table IV row."""
    return {
        "ICWSM13": lambda seed: ICWSM13(),
        "SpEagle+": lambda seed: SpEaglePlus(seed=seed),
        "REV2": lambda seed: REV2(),
        "RRRE": lambda seed: RRREReliability(bench_rrre_config(epochs=epochs, seed=seed)),
    }


def run_table4(
    datasets: Sequence[str] = DATASET_NAMES,
    seeds: Sequence[int] = (0, 1, 2),
    scale: float = 0.5,
    epochs: int = 14,
    verbose: bool = False,
) -> ExperimentReport:
    """Table IV: AUC and Average Precision of reliability scoring."""
    factories = reliability_model_factories(epochs=epochs)
    auc_values: Dict[str, Dict[str, float]] = {m: {} for m in factories}
    ap_values: Dict[str, Dict[str, float]] = {m: {} for m in factories}
    for name in datasets:
        evaluators = {
            model: _reliability_evaluator(factory)
            for model, factory in factories.items()
        }
        aggregates = run_protocol(
            name, evaluators, seeds=seeds, scale=scale, verbose=verbose
        )
        for model, agg in aggregates.items():
            auc_values[model][name] = agg.mean("auc")
            ap_values[model][name] = agg.mean("ap")
    rendered = "\n\n".join(
        [
            format_table(
                "Table IV (left) — AUC of reliability prediction (* = best)",
                rows=list(factories),
                columns=list(datasets),
                values=auc_values,
                highlight_best="max",
            ),
            format_table(
                "Table IV (right) — Average Precision of reliability prediction (* = best)",
                rows=list(factories),
                columns=list(datasets),
                values=ap_values,
                highlight_best="max",
            ),
        ]
    )
    return ExperimentReport("table4", rendered, {"auc": auc_values, "ap": ap_values})


# ---------------------------------------------------------------------------
# Tables V & VI — NDCG@k
# ---------------------------------------------------------------------------


def run_ndcg_table(
    dataset_name: str,
    ks: Sequence[int] = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
    seeds: Sequence[int] = (0, 1, 2),
    scale: float = 0.5,
    epochs: int = 14,
) -> ExperimentReport:
    """NDCG@k of reliability ranking (Table V: yelpchi; Table VI: cds).

    The paper sweeps k = 100..1000 over test pools of 15k-180k reviews;
    at simulator scale the pool is a few hundred, so k is swept over the
    same *relative* depth (≈2-15 % of the ranking).
    """
    factories = reliability_model_factories(epochs=epochs)
    values: Dict[str, Dict[str, float]] = {str(k): {} for k in ks}
    for seed in seeds:
        dataset = load_dataset(dataset_name, seed=seed, scale=scale)
        train, test = train_test_split(dataset, seed=seed)
        for model_name, factory in factories.items():
            model = factory(seed)
            model.fit(dataset, train)
            scores = model.score_subset(test)
            for k in ks:
                key = str(k)
                values[key].setdefault(model_name, 0.0)
                values[key][model_name] += ndcg_at_k(scores, test.labels, k) / len(seeds)
    table_no = "V" if dataset_name == "yelpchi" else "VI"
    rendered = format_table(
        f"Table {table_no} — NDCG@k of reliability ranking on {dataset_name} (* = best)",
        rows=[str(k) for k in ks],
        columns=list(factories),
        values=values,
        highlight_best="max",
        best_axis="row",
    )
    return ExperimentReport(f"table{table_no.lower()}", rendered, {"ndcg": values})


def run_table5(**kwargs) -> ExperimentReport:
    """Table V: NDCG@k on YelpChi."""
    return run_ndcg_table("yelpchi", **kwargs)


def run_table6(**kwargs) -> ExperimentReport:
    """Table VI: NDCG@k on CDs."""
    return run_ndcg_table("cds", **kwargs)


# ---------------------------------------------------------------------------
# Tables VII & VIII — case study
# ---------------------------------------------------------------------------


def _fit_case_study_trainer(
    scale: float, seed: int, epochs: int
) -> RRRETrainer:
    dataset = load_dataset("yelpchi", seed=seed, scale=scale)
    train, test = train_test_split(dataset, seed=seed)
    trainer = RRRETrainer(bench_rrre_config(epochs=epochs, seed=seed))
    trainer.fit(dataset, train)
    return trainer


def run_table7(
    scale: float = 0.5, seed: int = 0, epochs: int = 14, top_k: int = 3
) -> ExperimentReport:
    """Table VII: recommend an item with rating→reliability re-ranking."""
    trainer = _fit_case_study_trainer(scale, seed, epochs)
    dataset = trainer.dataset
    # Pick the most active user who still has >= top_k unseen items, so
    # the candidate pool is as rich as the paper's example.
    degrees = dataset.user_degrees()
    user_id = 0
    for candidate in np.argsort(-degrees):
        seen = {dataset.item_ids[idx] for idx in dataset.reviews_by_user[int(candidate)]}
        if dataset.num_items - len(seen) >= top_k:
            user_id = int(candidate)
            break
    recs = recommend_items(trainer, user_id, top_k=top_k)

    lines = [
        "Table VII — case study: recommendation results",
        f"user {dataset.user_names[user_id]!r} — top-{top_k} candidates by rating,",
        "picked by reliability:",
        "",
        f"{'item':24s} {'pred rating':>12s} {'pred reliability':>18s}",
        "-" * 58,
    ]
    for rec in recs:
        lines.append(
            f"{rec.item_name:24s} {rec.predicted_rating:12.3f} "
            f"{rec.predicted_reliability:18.3f}"
        )
    if recs:
        lines.append("")
        lines.append(f"recommended: {recs[0].item_name} (highest reliability in pool)")
    return ExperimentReport(
        "table7",
        "\n".join(lines),
        {"user_id": user_id, "recommendations": recs},
    )


def run_table8(
    scale: float = 0.5, seed: int = 0, epochs: int = 14, top_k: int = 5
) -> ExperimentReport:
    """Table VIII: reliable explanations for a recommended item."""
    trainer = _fit_case_study_trainer(scale, seed, epochs)
    dataset = trainer.dataset
    item_id = int(np.argmax(dataset.item_degrees()))
    explanations = explain_item(trainer, item_id, top_k=top_k, min_reliability=0.0)

    lines = [
        "Table VIII — case study: reliable explanations",
        f"item {dataset.item_names[item_id]!r} — candidate reviews sorted by rating,",
        "re-ranked by reliability (low-reliability candidates are filtered):",
        "",
    ]
    for exp in explanations:
        lines.append(
            f"- {exp.user_name}: pred rating {exp.predicted_rating:.3f} "
            f"(real {exp.actual_rating:.0f}), pred reliability "
            f"{exp.predicted_reliability:.3f} (real {exp.actual_label})"
        )
        lines.append(f"    \"{exp.text[:110]}\"")
    return ExperimentReport(
        "table8",
        "\n".join(lines),
        {"item_id": item_id, "explanations": explanations},
    )


# ---------------------------------------------------------------------------
# Figure 2 — review embedding size k
# ---------------------------------------------------------------------------


def run_fig2(
    k_values: Sequence[int] = (8, 16, 32, 64, 128),
    scale: float = 0.5,
    seed: int = 0,
    epochs: int = 10,
) -> ExperimentReport:
    """Fig. 2: training curves (bRMSE and AUC per epoch) per embedding size."""
    dataset = load_dataset("yelpchi", seed=seed, scale=scale)
    train, test = train_test_split(dataset, seed=seed)
    brmse_curves: Dict[str, List[float]] = {}
    auc_curves: Dict[str, List[float]] = {}
    for k in k_values:
        config = bench_rrre_config(review_dim=int(k), epochs=epochs, seed=seed)
        trainer = RRRETrainer(config).fit(dataset, train, test)
        brmse_curves[f"k={k}"] = [r.eval_metrics["brmse"] for r in trainer.history]
        auc_curves[f"k={k}"] = [r.eval_metrics.get("auc", 0.0) for r in trainer.history]
    epochs_axis = list(range(1, epochs + 1))
    rendered = "\n\n".join(
        [
            format_series(
                "Fig. 2 (left) — bRMSE per epoch vs embedding size k",
                "epoch",
                epochs_axis,
                brmse_curves,
            ),
            format_series(
                "Fig. 2 (right) — AUC per epoch vs embedding size k",
                "epoch",
                epochs_axis,
                auc_curves,
            ),
        ]
    )
    return ExperimentReport(
        "fig2", rendered, {"brmse": brmse_curves, "auc": auc_curves}
    )


# ---------------------------------------------------------------------------
# Figures 3 & 4 — input sizes s_u and s_i
# ---------------------------------------------------------------------------


def run_input_size_sweep(
    which: str,
    sizes: Sequence[int],
    fixed: int,
    scale: float = 0.5,
    seed: int = 0,
    epochs: int = 10,
) -> ExperimentReport:
    """Sweep s_u (Fig. 3) or s_i (Fig. 4): final metrics + training time."""
    if which not in ("s_u", "s_i"):
        raise ValueError(f"which must be 's_u' or 's_i', got {which!r}")
    dataset = load_dataset("yelpchi", seed=seed, scale=scale)
    train, test = train_test_split(dataset, seed=seed)
    brmse_list: List[float] = []
    auc_list: List[float] = []
    seconds_list: List[float] = []
    for size in sizes:
        kwargs = {"s_u": int(size), "s_i": fixed} if which == "s_u" else {
            "s_u": fixed,
            "s_i": int(size),
        }
        config = bench_rrre_config(epochs=epochs, seed=seed, **kwargs)
        start = time.perf_counter()
        trainer = RRRETrainer(config).fit(dataset, train)
        seconds = time.perf_counter() - start
        metrics = trainer.evaluate(test)
        brmse_list.append(metrics["brmse"])
        auc_list.append(metrics.get("auc", 0.0))
        seconds_list.append(seconds)
    fig_no = "3" if which == "s_u" else "4"
    rendered = format_series(
        f"Fig. {fig_no} — effect of input size {which} (fixed "
        f"{'s_i' if which == 's_u' else 's_u'}={fixed})",
        which,
        list(sizes),
        {"bRMSE": brmse_list, "AUC": auc_list, "seconds": seconds_list},
    )
    return ExperimentReport(
        f"fig{fig_no}",
        rendered,
        {"sizes": list(sizes), "brmse": brmse_list, "auc": auc_list, "seconds": seconds_list},
    )


def run_fig3(
    sizes: Sequence[int] = (1, 3, 5, 7, 9, 11, 13),
    fixed_s_i: int = 10,
    **kwargs,
) -> ExperimentReport:
    """Fig. 3: user input size s_u sweep (paper: 1..13, s_i fixed)."""
    return run_input_size_sweep("s_u", sizes, fixed_s_i, **kwargs)


def run_fig4(
    sizes: Sequence[int] = (4, 8, 12, 16, 20, 24, 28),
    fixed_s_u: int = 7,
    **kwargs,
) -> ExperimentReport:
    """Fig. 4: item input size s_i sweep.

    The paper sweeps 12..132 against a median item degree of 72; the
    simulated yelpchi has a median item degree near 30, so the sweep
    covers the same relative range.
    """
    return run_input_size_sweep("s_i", sizes, fixed_s_u, **kwargs)


# ---------------------------------------------------------------------------
# Ablations beyond the paper
# ---------------------------------------------------------------------------


def run_ablation_encoder(
    encoders: Sequence[str] = ("bilstm", "cnn", "mean"),
    scale: float = 0.5,
    seeds: Sequence[int] = (0, 1),
    epochs: int = 12,
) -> ExperimentReport:
    """Swap the review encoder: BiLSTM (paper) vs CNN vs mean pooling."""
    values: Dict[str, Dict[str, float]] = {}
    for encoder in encoders:
        brmse_sum, auc_sum = 0.0, 0.0
        for seed in seeds:
            dataset = load_dataset("yelpchi", seed=seed, scale=scale)
            train, test = train_test_split(dataset, seed=seed)
            config = bench_rrre_config(encoder=encoder, epochs=epochs, seed=seed)
            trainer = RRRETrainer(config).fit(dataset, train)
            metrics = trainer.evaluate(test)
            brmse_sum += metrics["brmse"]
            auc_sum += metrics.get("auc", 0.0)
        values[encoder] = {
            "brmse": brmse_sum / len(seeds),
            "auc": auc_sum / len(seeds),
        }
    rendered = format_table(
        "Ablation — review encoder (yelpchi)",
        rows=list(encoders),
        columns=["brmse", "auc"],
        values=values,
    )
    return ExperimentReport("ablation_encoder", rendered, {"values": values})


def run_ablation_attention(
    scale: float = 0.5,
    seeds: Sequence[int] = (0, 1),
    epochs: int = 12,
) -> ExperimentReport:
    """Fraud-attention vs uniform mean pooling in UserNet/ItemNet."""
    values: Dict[str, Dict[str, float]] = {}
    for pooling in ("attention", "mean"):
        brmse_sum, auc_sum = 0.0, 0.0
        for seed in seeds:
            dataset = load_dataset("yelpchi", seed=seed, scale=scale)
            train, test = train_test_split(dataset, seed=seed)
            config = bench_rrre_config(pooling=pooling, epochs=epochs, seed=seed)
            trainer = RRRETrainer(config).fit(dataset, train)
            metrics = trainer.evaluate(test)
            brmse_sum += metrics["brmse"]
            auc_sum += metrics.get("auc", 0.0)
        values[pooling] = {
            "brmse": brmse_sum / len(seeds),
            "auc": auc_sum / len(seeds),
        }
    rendered = format_table(
        "Ablation — review pooling (fraud-attention vs mean), yelpchi",
        rows=["attention", "mean"],
        columns=["brmse", "auc"],
        values=values,
    )
    return ExperimentReport("ablation_attention", rendered, {"values": values})


def run_ablation_lambda(
    lambdas: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    scale: float = 0.5,
    seed: int = 0,
    epochs: int = 12,
) -> ExperimentReport:
    """Sweep the joint-loss weight λ of Eq. 15."""
    dataset = load_dataset("yelpchi", seed=seed, scale=scale)
    train, test = train_test_split(dataset, seed=seed)
    brmse_list, auc_list = [], []
    for lam in lambdas:
        config = bench_rrre_config(lambda_weight=float(lam), epochs=epochs, seed=seed)
        trainer = RRRETrainer(config).fit(dataset, train)
        metrics = trainer.evaluate(test)
        brmse_list.append(metrics["brmse"])
        auc_list.append(metrics.get("auc", float("nan")))
    rendered = format_series(
        "Ablation — joint loss weight λ (Eq. 15), yelpchi",
        "lambda",
        list(lambdas),
        {"bRMSE": brmse_list, "AUC": auc_list},
    )
    return ExperimentReport(
        "ablation_lambda",
        rendered,
        {"lambdas": list(lambdas), "brmse": brmse_list, "auc": auc_list},
    )
