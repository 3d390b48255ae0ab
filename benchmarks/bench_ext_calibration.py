"""Extension benchmark: calibration and significance of RRRE reliability.

Checks that the reliability head's probabilities are usable as
probabilities (ECE, Brier) and that RRRE's AUC edge over the
unsupervised REV2 baseline survives a paired bootstrap.
"""

from conftest import run_once

from repro.baselines import REV2, RRREAdapter
from repro.data import load_dataset, train_test_split
from repro.eval import bench_rrre_config
from repro.metrics import (
    auc,
    brier_score,
    expected_calibration_error,
    paired_bootstrap_delta,
)


def evaluate(scale, epochs, seed=0):
    dataset = load_dataset("yelpchi", seed=seed, scale=scale)
    train, test = train_test_split(dataset, seed=seed)
    rrre = RRREAdapter(bench_rrre_config(epochs=epochs, seed=seed))
    rrre.fit(dataset, train)
    rev2 = REV2().fit(dataset, train)
    scores = rrre.score_subset(test)
    rev2_scores = rev2.score_subset(test)
    labels = test.labels
    delta = paired_bootstrap_delta(
        auc, scores, rev2_scores, labels.astype(float), iterations=300, seed=seed
    )
    return {
        "auc": auc(scores, labels),
        "ece": expected_calibration_error(scores, labels),
        "brier": brier_score(scores, labels),
        "delta_vs_rev2": delta,
    }


def test_ext_calibration(benchmark, bench_params):
    result = run_once(
        benchmark, evaluate, bench_params["scale"], bench_params["epochs"]
    )
    delta = result["delta_vs_rev2"]
    print(
        "\nExtension — RRRE reliability calibration (yelpchi)\n"
        f"  AUC   = {result['auc']:.3f}\n"
        f"  ECE   = {result['ece']:.3f}   (0 = perfectly calibrated)\n"
        f"  Brier = {result['brier']:.3f}\n"
        f"  AUC delta vs REV2 = {delta.estimate:+.3f} "
        f"[{delta.low:+.3f}, {delta.high:+.3f}] @ {delta.confidence:.0%}"
    )
    assert result["brier"] < 0.25  # better than a coin on this skew
    assert result["ece"] < 0.4
