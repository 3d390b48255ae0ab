"""Miniature-scale tests for the figure runners and remaining eval paths."""

import pytest

from repro.eval import (
    run_ablation_attention,
    run_ablation_lambda,
    run_fig2,
    run_fig3,
    run_fig4,
    run_ndcg_table,
)
from repro.eval.reporting import format_table


class TestFig2:
    def test_curves_per_k(self):
        report = run_fig2(k_values=(8, 16), scale=0.2, epochs=2)
        assert set(report.data["brmse"]) == {"k=8", "k=16"}
        for curve in report.data["brmse"].values():
            assert len(curve) == 2
        assert "Fig. 2" in report.rendered


class TestFig3And4:
    def test_fig3_records_time(self):
        report = run_fig3(sizes=(1, 3), fixed_s_i=3, scale=0.2, epochs=2)
        assert len(report.data["seconds"]) == 2
        assert all(s > 0 for s in report.data["seconds"])

    def test_fig4_sizes_in_data(self):
        report = run_fig4(sizes=(2, 4), fixed_s_u=2, scale=0.2, epochs=2)
        assert report.data["sizes"] == [2, 4]

    def test_invalid_which(self):
        from repro.eval import run_input_size_sweep

        with pytest.raises(ValueError):
            run_input_size_sweep("s_x", (1,), 2, scale=0.2, epochs=1)


class TestNdcgRunner:
    def test_table5_miniature(self):
        report = run_ndcg_table(
            "yelpchi", ks=(10, 20), seeds=(0,), scale=0.2, epochs=2
        )
        assert set(report.data["ndcg"]) == {"10", "20"}
        for row in report.data["ndcg"].values():
            for value in row.values():
                assert 0.0 <= value <= 1.0
        # Rows record NDCG at NDCG_KS only; another k is refused up front.
        with pytest.raises(ValueError):
            run_ndcg_table("yelpchi", ks=(5, 10), seeds=(0,), scale=0.2, epochs=2)


class TestAblations:
    def test_lambda_extremes_present(self):
        report = run_ablation_lambda(lambdas=(0.0, 1.0), scale=0.2, epochs=2)
        assert len(report.data["brmse"]) == 2

    def test_attention_ablation_miniature(self):
        report = run_ablation_attention(scale=0.2, seeds=(0,), epochs=2)
        assert set(report.data["values"]) == {"attention", "mean"}


class TestBestAxisRendering:
    def test_row_axis_marks_row_best(self):
        text = format_table(
            "T",
            rows=["d1"],
            columns=["A", "B"],
            values={"d1": {"A": 1.0, "B": 2.0}},
            highlight_best="min",
            best_axis="row",
        )
        assert "1.000*" in text

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            format_table("T", [], [], {}, highlight_best="min", best_axis="diag")
