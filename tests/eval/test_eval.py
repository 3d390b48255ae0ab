"""Tests for the evaluation protocol, reporting, and experiment runners.

Experiment runners are exercised at miniature scale (0.2, one seed, few
epochs) — the full-scale runs live in benchmarks/.
"""

import numpy as np
import pytest

from repro.core import RRRETrainer
from repro.eval import (
    NDCG_KS,
    bench_rrre_config,
    format_series,
    format_table,
    run_ablation_encoder,
    run_seeds,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table7,
    run_table8,
    run_tables3to6,
    seed_mean,
    sparkline,
)


class _Toy:
    """A rating model that predicts 3 stars and logs the split it saw."""

    def __init__(self, log=None):
        self.log = log if log is not None else []

    def fit(self, dataset, train, test=None):
        self.sizes = (len(dataset), len(train))
        return self

    def predict_subset(self, subset):
        self.log.append((self.sizes, len(subset), float(subset.ratings.sum())))
        return np.full(len(subset), 3.0)


class _ToyScorer:
    """A reliability model that scores each review by its rating."""

    def fit(self, dataset, train, test=None):
        return self

    def score_subset(self, subset):
        return subset.ratings


class TestProtocol:
    def test_run_seeds_rows(self):
        rows = run_seeds(("yelpchi",), {"toy": lambda seed: _Toy()}, seeds=(0, 1), scale=0.2)
        assert [(r["dataset"], r["seed"], r["model"]) for r in rows] == [
            ("yelpchi", 0, "toy"),
            ("yelpchi", 1, "toy"),
        ]
        assert all(r["brmse"] > 0 for r in rows)
        mean = seed_mean(rows, "yelpchi", "toy", "brmse")
        assert mean == float(np.mean([r["brmse"] for r in rows]))

    def test_missing_metric_raises(self):
        rows = run_seeds(("yelpchi",), {"toy": lambda seed: _Toy()}, seeds=(0,), scale=0.2)
        with pytest.raises(KeyError):
            seed_mean(rows, "yelpchi", "toy", "auc")
        with pytest.raises(KeyError):
            seed_mean(rows, "yelpchi", "absent", "brmse")

    def test_metrics_follow_the_interface(self):
        models = {"rating": lambda seed: _Toy(), "scorer": lambda seed: _ToyScorer()}
        rating, scorer = run_seeds(("musics",), models, seeds=(0,), scale=0.2)
        assert set(rating) == {"dataset", "seed", "model", "brmse"}
        assert set(scorer) == {"dataset", "seed", "model", "auc", "ap"} | {
            f"ndcg@{k}" for k in NDCG_KS
        }

    def test_rows_score_the_70_30_split(self):
        log = []
        run_seeds(("musics",), {"toy": lambda seed: _Toy(log)}, seeds=(0,), scale=0.2)
        [((n_reviews, n_train), n_test, _)] = log
        assert n_train + n_test == n_reviews
        assert n_train > n_test

    def test_protocol_seeded_reproducible(self):
        log = []
        models = {"a": lambda seed: _Toy(log)}
        first = run_seeds(("yelpchi",), models, seeds=(3,), scale=0.2)
        second = run_seeds(("yelpchi",), models, seeds=(3,), scale=0.2)
        assert first == second
        assert log[0] == log[1]


class TestReporting:
    def test_format_table_contains_values(self):
        text = format_table(
            "T", ["r1"], ["c1", "c2"], {"r1": {"c1": 1.5, "c2": 2.25}}, precision=2
        )
        assert "1.50" in text
        assert "2.25" in text

    def test_format_table_marks_best(self):
        text = format_table(
            "T",
            ["a", "b"],
            ["m"],
            {"a": {"m": 1.0}, "b": {"m": 2.0}},
            highlight_best="min",
        )
        assert "1.000*" in text
        assert "2.000*" not in text

    def test_format_table_missing_cell(self):
        text = format_table("T", ["a"], ["m"], {"a": {}})
        assert "—" in text

    def test_format_series(self):
        text = format_series("S", "x", [1, 2], {"y": [0.1, 0.2]})
        assert "0.1000" in text
        assert "0.2000" in text

    def test_sparkline_length_and_chars(self):
        line = sparkline([1, 2, 3, 4], width=10)
        assert line
        assert set(line) <= set("▁▂▃▄▅▆▇█")

    def test_sparkline_empty(self):
        assert sparkline([]) == ""


class TestExperimentRunners:
    def test_bench_config_overrides(self):
        cfg = bench_rrre_config(epochs=3, review_dim=16)
        assert cfg.epochs == 3
        assert cfg.review_dim == 16

    def test_table2_small(self):
        report = run_table2(scale=0.2)
        assert "yelpchi" in report.rendered
        assert len(report.data["rows"]) == 5

    def test_table3_miniature(self):
        report = run_table3(
            datasets=("yelpchi",), seeds=(0,), scale=0.2, epochs=2
        )
        values = report.data["brmse"]["yelpchi"]
        assert set(values) == {"RRRE", "PMF", "DeepCoNN", "NARRE", "DER", "RRRE-"}
        assert all(np.isfinite(v) for v in values.values())

    def test_table4_miniature(self):
        report = run_table4(
            datasets=("musics",), seeds=(0,), scale=0.2, epochs=2
        )
        assert set(report.data["auc"]) == {"ICWSM13", "SpEagle+", "REV2", "RRRE"}
        for model, vals in report.data["auc"].items():
            assert 0.0 <= vals["musics"] <= 1.0, model

    def test_table7_miniature(self):
        report = run_table7(scale=0.2, epochs=2, top_k=2)
        assert "Table VII" in report.rendered

    def test_table8_miniature(self):
        report = run_table8(scale=0.2, epochs=2, top_k=3)
        assert "Table VIII" in report.rendered
        assert report.data["explanations"]

    def test_ablation_encoder_miniature(self):
        report = run_ablation_encoder(
            encoders=("mean",), scale=0.2, seeds=(0,), epochs=2
        )
        assert "mean" in report.data["values"]


def _cells(rendered, label):
    """The cells of the rendered table row labelled ``label``, unstarred."""
    for line in rendered.splitlines():
        parts = line.split()
        if parts and parts[0] == label:
            return [part.rstrip("*") for part in parts[1:]]
    raise AssertionError(f"no row {label!r} in\n{rendered}")


def _row_mean(rows, metric, dataset, model):
    return float(
        np.mean([r[metric] for r in rows if r["dataset"] == dataset and r["model"] == model])
    )


class TestSeededTables:
    """Tables III-VI from one set of fits, as ``python -m repro all`` runs them."""

    DATASETS = ("yelpchi", "cds")

    @pytest.fixture(scope="class")
    def tables(self):
        fitted = []
        fit = RRRETrainer.fit

        def counting_fit(trainer, *args, **kwargs):
            fitted.append(trainer.config.biased_loss)
            return fit(trainer, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RRRETrainer, "fit", counting_fit)
            reports = run_tables3to6(datasets=self.DATASETS, seeds=(0,), scale=0.2, epochs=2)
        return reports, fitted

    def test_rrre_fitted_once_per_catalog_seed_and_loss(self, tables):
        reports, fitted = tables
        assert sorted(reports) == ["table3", "table4", "table5", "table6"]
        # RRRE and RRRE- on two catalogs; one fit per table would be 8.
        assert sorted(fitted) == [False, False, True, True]

    def test_table3_cells_are_row_means(self, tables):
        report = tables[0]["table3"]
        for dataset in self.DATASETS:
            row = report.data["brmse"][dataset]
            for (model, value), cell in zip(row.items(), _cells(report.rendered, dataset)):
                mean = _row_mean(report.data["rows"], "brmse", dataset, model)
                assert value == mean and cell == f"{mean:.3f}"

    def test_table4_cells_are_row_means(self, tables):
        report = tables[0]["table4"]
        for metric, panel in zip(("auc", "ap"), report.rendered.split("\n\n")):
            for model, by_dataset in report.data[metric].items():
                for (dataset, value), cell in zip(by_dataset.items(), _cells(panel, model)):
                    mean = _row_mean(report.data["rows"], metric, dataset, model)
                    assert value == mean and cell == f"{mean:.3f}"

    @pytest.mark.parametrize("table,dataset", [("table5", "yelpchi"), ("table6", "cds")])
    def test_ndcg_cells_are_row_means(self, tables, table, dataset):
        report = tables[0][table]
        assert {row["dataset"] for row in report.data["rows"]} == {dataset}
        for k, by_model in report.data["ndcg"].items():
            for (model, value), cell in zip(by_model.items(), _cells(report.rendered, k)):
                mean = _row_mean(report.data["rows"], f"ndcg@{k}", dataset, model)
                assert value == mean and cell == f"{mean:.3f}"

    def test_shared_fits_give_the_standalone_table(self, tables):
        alone = run_table5(seeds=(0,), scale=0.2, epochs=2)
        shared = tables[0]["table5"]
        assert shared.rendered == alone.rendered
        assert shared.data == alone.data
