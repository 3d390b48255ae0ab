"""One entry point per paper artifact (Tables II-VIII, Figures 2-4).

Every ``run_*`` function regenerates one table or figure of the paper on
the simulated datasets and returns an :class:`ExperimentReport` whose
``rendered`` field is the printable artifact and whose ``data`` field
holds the raw numbers (consumed by the test suite and EXPERIMENTS.md).
Tables III-VI are views of :func:`repro.eval.protocol.run_seeds` rows,
and their ``data["rows"]`` keeps the per-seed numbers; the figures and
ablations sweep one ``bench_rrre_config`` field each.

Scale knobs: all functions accept ``scale`` (dataset size multiplier),
``seeds`` and ``epochs`` so the same code serves quick benchmark runs
and higher-fidelity reproductions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Sequence

import numpy as np

from ..baselines import DER, ICWSM13, NARRE, PMF, REV2, DeepCoNN, RRREAdapter, SpEaglePlus
from ..core import RRRETrainer, explain_item, recommend_items
from ..core.config import bench_rrre_config
from ..data import DATASET_NAMES, PAPER_STATISTICS, load_dataset, train_test_split
from .protocol import NDCG_KS, Row, run_seeds, seed_mean
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
# Tables III-VI — every seeded table is a view of run_seeds rows
# ---------------------------------------------------------------------------

#: The catalog each NDCG@k table ranks on (Table V: yelpchi; VI: cds).
NDCG_TABLES = {"table5": "yelpchi", "table6": "cds"}


def _rrre(epochs: int, biased: bool = True) -> Callable[[int], RRREAdapter]:
    return lambda seed: RRREAdapter(bench_rrre_config(epochs=epochs, seed=seed), biased=biased)


def rating_model_factories(epochs: int = 14) -> Dict[str, Callable]:
    """Factories for every Table III column."""
    neural_epochs = max(4, epochs // 2)
    return {
        "RRRE": _rrre(epochs),
        "PMF": lambda seed: PMF(epochs=25, seed=seed),
        "DeepCoNN": lambda seed: DeepCoNN(epochs=neural_epochs, seed=seed),
        "NARRE": lambda seed: NARRE(epochs=neural_epochs, seed=seed),
        "DER": lambda seed: DER(epochs=neural_epochs, seed=seed),
        "RRRE-": _rrre(epochs, biased=False),
    }


def reliability_model_factories(epochs: int = 14) -> Dict[str, Callable]:
    """Factories for every Table IV row (and Table V/VI column)."""
    return {
        "ICWSM13": lambda seed: ICWSM13(),
        "SpEagle+": lambda seed: SpEaglePlus(seed=seed),
        "REV2": lambda seed: REV2(),
        "RRRE": _rrre(epochs),
    }


def _select(rows: List[Row], datasets: Sequence[str], models: Sequence[str]) -> List[Row]:
    """The rows one table is a view of, by dataset, then model, then seed."""
    picked = [row for row in rows if row["dataset"] in datasets and row["model"] in models]
    return sorted(picked, key=lambda r: (datasets.index(r["dataset"]), models.index(r["model"])))


def _table3(rows: List[Row], datasets: Sequence[str], models: Sequence[str]) -> ExperimentReport:
    rows = _select(rows, datasets, models)
    values = {name: {m: seed_mean(rows, name, m, "brmse") for m in models} for name in datasets}
    rendered = format_table(
        "Table III — bRMSE of rating prediction (lower is better, * = best)",
        rows=list(datasets),
        columns=list(models),
        values=values,
        highlight_best="min",
        best_axis="row",
    )
    return ExperimentReport("table3", rendered, {"brmse": values, "rows": rows})


def _table4(rows: List[Row], datasets: Sequence[str], models: Sequence[str]) -> ExperimentReport:
    rows = _select(rows, datasets, models)
    auc_values = {m: {name: seed_mean(rows, name, m, "auc") for name in datasets} for m in models}
    ap_values = {m: {name: seed_mean(rows, name, m, "ap") for name in datasets} for m in models}
    rendered = "\n\n".join(
        [
            format_table(
                "Table IV (left) — AUC of reliability prediction (* = best)",
                rows=list(models),
                columns=list(datasets),
                values=auc_values,
                highlight_best="max",
            ),
            format_table(
                "Table IV (right) — Average Precision of reliability prediction (* = best)",
                rows=list(models),
                columns=list(datasets),
                values=ap_values,
                highlight_best="max",
            ),
        ]
    )
    return ExperimentReport(
        "table4", rendered, {"auc": auc_values, "ap": ap_values, "rows": rows}
    )


def _ndcg_table(
    rows: List[Row], dataset_name: str, ks: Sequence[int], models: Sequence[str]
) -> ExperimentReport:
    rows = _select(rows, (dataset_name,), models)
    values = {
        str(k): {m: seed_mean(rows, dataset_name, m, f"ndcg@{k}") for m in models} for k in ks
    }
    table_no = "V" if dataset_name == "yelpchi" else "VI"
    rendered = format_table(
        f"Table {table_no} — NDCG@k of reliability ranking on {dataset_name} (* = best)",
        rows=[str(k) for k in ks],
        columns=list(models),
        values=values,
        highlight_best="max",
        best_axis="row",
    )
    return ExperimentReport(f"table{table_no.lower()}", rendered, {"ndcg": values, "rows": rows})


def run_table3(
    datasets: Sequence[str] = DATASET_NAMES,
    seeds: Sequence[int] = (0, 1, 2),
    scale: float = 0.5,
    epochs: int = 14,
    verbose: bool = False,
) -> ExperimentReport:
    """Table III: bRMSE of all rating models across datasets."""
    models = rating_model_factories(epochs=epochs)
    rows = run_seeds(datasets, models, seeds, scale)
    if verbose:
        print(*rows, sep="\n")
    return _table3(rows, datasets, list(models))


def run_table4(
    datasets: Sequence[str] = DATASET_NAMES,
    seeds: Sequence[int] = (0, 1, 2),
    scale: float = 0.5,
    epochs: int = 14,
    verbose: bool = False,
) -> ExperimentReport:
    """Table IV: AUC and Average Precision of reliability scoring."""
    models = reliability_model_factories(epochs=epochs)
    rows = run_seeds(datasets, models, seeds, scale)
    if verbose:
        print(*rows, sep="\n")
    return _table4(rows, datasets, list(models))


def run_ndcg_table(
    dataset_name: str,
    ks: Sequence[int] = NDCG_KS,
    seeds: Sequence[int] = (0, 1, 2),
    scale: float = 0.5,
    epochs: int = 14,
) -> ExperimentReport:
    """NDCG@k of reliability ranking (Table V: yelpchi; Table VI: cds).

    The paper sweeps k = 100..1000 over test pools of 15k-180k reviews;
    at simulator scale the pool is a few hundred, so k is swept over the
    same *relative* depth (≈2-15 % of the ranking).  Every k must be one
    of the depths the rows record, :data:`repro.eval.protocol.NDCG_KS`.
    """
    unknown = sorted(set(ks) - set(NDCG_KS))
    if unknown:
        raise ValueError(f"NDCG@k is recorded for k in {NDCG_KS}, not {unknown}")
    models = reliability_model_factories(epochs=epochs)
    rows = run_seeds((dataset_name,), models, seeds, scale)
    return _ndcg_table(rows, dataset_name, ks, list(models))


def run_table5(**kwargs) -> ExperimentReport:
    """Table V: NDCG@k on YelpChi."""
    return run_ndcg_table(NDCG_TABLES["table5"], **kwargs)


def run_table6(**kwargs) -> ExperimentReport:
    """Table VI: NDCG@k on CDs."""
    return run_ndcg_table(NDCG_TABLES["table6"], **kwargs)


def run_tables3to6(
    datasets: Sequence[str] = DATASET_NAMES,
    seeds: Sequence[int] = (0, 1, 2),
    scale: float = 0.5,
    epochs: int = 14,
) -> Dict[str, ExperimentReport]:
    """Tables III-VI from one :func:`run_seeds` call over all their models.

    RRRE and RRRE⁻ are fitted once per (catalog, seed) for all four
    tables.  Returns ``{"table3": ..., "table4": ...}`` plus ``"table5"``
    and ``"table6"`` when their catalog is among ``datasets``; each
    report equals the one its own ``run_table*`` gives.
    """
    rating = rating_model_factories(epochs=epochs)
    reliability = reliability_model_factories(epochs=epochs)
    rows = run_seeds(datasets, {**rating, **reliability}, seeds, scale)
    reports = {
        "table3": _table3(rows, datasets, list(rating)),
        "table4": _table4(rows, datasets, list(reliability)),
    }
    for table, name in NDCG_TABLES.items():
        if name in datasets:
            reports[table] = _ndcg_table(rows, name, NDCG_KS, list(reliability))
    return reports


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
# Figures 2-4 and the ablations — sweeps of one bench_rrre_config field
# ---------------------------------------------------------------------------


class _Fit(NamedTuple):
    """One RRRE fit of a sweep: test metrics, per-epoch history, fit time."""

    metrics: Dict[str, float]
    history: list
    seconds: float


def _sweep(
    field_name: str,
    values: Sequence,
    seeds: Sequence[int],
    scale: float,
    epochs: int,
    curves: bool = False,
    **fixed,
) -> List[List[_Fit]]:
    """Fit RRRE on yelpchi once per (value of config ``field_name``, seed).

    Returns ``fits[j][s]`` for ``values[j]`` and ``seeds[s]``; ``fixed``
    sets further config fields for every fit.  ``curves`` passes the
    test split to ``fit``, which then scores it after every epoch
    (``history``, Fig. 2); ``seconds`` times ``fit`` (Figs. 3 and 4).
    """
    fits: List[List[_Fit]] = [[] for _ in values]
    for seed in seeds:
        dataset = load_dataset("yelpchi", seed=seed, scale=scale)
        train, test = train_test_split(dataset, seed=seed)
        for runs, value in zip(fits, values):
            config = bench_rrre_config(epochs=epochs, seed=seed, **fixed, **{field_name: value})
            start = time.perf_counter()
            trainer = RRRETrainer(config).fit(dataset, train, test if curves else None)
            seconds = time.perf_counter() - start
            runs.append(_Fit(trainer.evaluate(test), trainer.history, seconds))
    return fits


def _seed_means(
    field_name: str, values: Sequence[str], scale: float, seeds: Sequence[int], epochs: int
) -> Dict[str, Dict[str, float]]:
    """bRMSE and AUC per value of ``field_name``, each a mean over seeds."""
    return {
        value: {
            "brmse": sum(run.metrics["brmse"] for run in runs) / len(seeds),
            "auc": sum(run.metrics.get("auc", 0.0) for run in runs) / len(seeds),
        }
        for value, runs in zip(values, _sweep(field_name, values, seeds, scale, epochs))
    }


def run_fig2(
    k_values: Sequence[int] = (8, 16, 32, 64, 128),
    scale: float = 0.5,
    seed: int = 0,
    epochs: int = 10,
) -> ExperimentReport:
    """Fig. 2: training curves (bRMSE and AUC per epoch) per embedding size."""
    fits = _sweep("review_dim", [int(k) for k in k_values], (seed,), scale, epochs, curves=True)
    brmse_curves: Dict[str, List[float]] = {}
    auc_curves: Dict[str, List[float]] = {}
    for k, (run,) in zip(k_values, fits):
        brmse_curves[f"k={k}"] = [r.eval_metrics["brmse"] for r in run.history]
        auc_curves[f"k={k}"] = [r.eval_metrics.get("auc", 0.0) for r in run.history]
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
    other = "s_i" if which == "s_u" else "s_u"
    fits = [
        run
        for (run,) in _sweep(
            which, [int(size) for size in sizes], (seed,), scale, epochs, **{other: fixed}
        )
    ]
    brmse_list = [run.metrics["brmse"] for run in fits]
    auc_list = [run.metrics.get("auc", 0.0) for run in fits]
    seconds_list = [run.seconds for run in fits]
    fig_no = "3" if which == "s_u" else "4"
    rendered = format_series(
        f"Fig. {fig_no} — effect of input size {which} (fixed {other}={fixed})",
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


def run_ablation_encoder(
    encoders: Sequence[str] = ("bilstm", "cnn", "mean"),
    scale: float = 0.5,
    seeds: Sequence[int] = (0, 1),
    epochs: int = 12,
) -> ExperimentReport:
    """Swap the review encoder: BiLSTM (paper) vs CNN vs mean pooling."""
    values = _seed_means("encoder", encoders, scale, seeds, epochs)
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
    values = _seed_means("pooling", ("attention", "mean"), scale, seeds, epochs)
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
    fits = [
        run for (run,) in _sweep("lambda_weight", [float(lam) for lam in lambdas], (seed,), scale, epochs)
    ]
    brmse_list = [run.metrics["brmse"] for run in fits]
    auc_list = [run.metrics.get("auc", float("nan")) for run in fits]
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
