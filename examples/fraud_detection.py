"""Fraud-detection shoot-out: RRRE vs the reliability baselines.

Run:  python examples/fraud_detection.py

Trains ICWSM13 (behavioural features), SpEagle+ (belief propagation),
REV2 (fairness/goodness fixed point) and RRRE on a simulated Amazon
Music dataset (≈25 % fakes), then prints AUC/AP and shows the reviews
each method finds most suspicious.
"""

import numpy as np

from repro.baselines import ICWSM13, REV2, RRREAdapter, SpEaglePlus
from repro.core import fast_config
from repro.data import load_dataset, train_test_split
from repro.metrics import auc, average_precision, ndcg_at_k


def main() -> None:
    dataset = load_dataset("musics", seed=3, scale=0.5)
    train, test = train_test_split(dataset, seed=3)
    print(f"{dataset.name}: {len(dataset)} reviews, "
          f"{100 * dataset.fake_fraction():.1f}% fake\n")

    models = [
        ICWSM13(),
        SpEaglePlus(seed=3),
        REV2(),
        RRREAdapter(fast_config(epochs=10, seed=3)),
    ]
    scored = {}
    print(f"{'model':10s} {'AUC':>8s} {'AP':>8s} {'NDCG@50':>9s}")
    print("-" * 40)
    for model in models:
        model.fit(dataset, train)
        scores = model.score_subset(test)
        scored[model.name] = scores
        print(
            f"{model.name:10s} {auc(scores, test.labels):8.3f} "
            f"{average_precision(scores, test.labels):8.3f} "
            f"{ndcg_at_k(scores, test.labels, 50):9.3f}"
        )

    # Peek at what RRRE flags: the 3 least reliable test reviews.
    rrre_scores = scored["RRRE"]
    worst = np.argsort(rrre_scores)[:3]
    print("\nRRRE's most suspicious test reviews:")
    test_indices = test.index_array
    for pos in worst:
        review = dataset.reviews[int(test_indices[pos])]
        tag = "FAKE" if review.label == 0 else "benign"
        print(f"  [{rrre_scores[pos]:.3f}] ({tag}, rated {review.rating:.0f}) "
              f'"{review.text[:70]}..."')


if __name__ == "__main__":
    main()
