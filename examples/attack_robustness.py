"""Attack robustness: rating models under increasing spam pressure.

Run:  python examples/attack_robustness.py

Sweeps the fake-review share from 5 % to 35 % and measures the bRMSE of
PMF (trains on everything), RRRE⁻ (neural, trains on everything) and
RRRE (reliability-weighted loss).  The gap between RRRE and RRRE⁻ is
the paper's core claim: learning from fake ratings hurts, and the joint
reliability task prevents it.
"""

from repro.baselines import PMF, RRREAdapter
from repro.core import fast_config
from repro.data import PlatformConfig, generate_platform, train_test_split
from repro.metrics import biased_rmse


def run_once(fake_fraction: float, seed: int = 5) -> dict:
    config = PlatformConfig(
        name=f"attack-{fake_fraction:.0%}",
        domain="restaurants",
        num_items=18,
        num_benign_users=400,
        num_reviews=1100,
        fake_fraction=fake_fraction,
        campaign_size_mean=20.0,
        fraud_reuse=2.0,
        seed=seed,
    )
    dataset = generate_platform(config)
    train, test = train_test_split(dataset, seed=seed)

    results = {}
    for name, model in (
        ("PMF", PMF(epochs=20, seed=seed)),
        ("RRRE-", RRREAdapter(fast_config(epochs=8, seed=seed), biased=False)),
        ("RRRE", RRREAdapter(fast_config(epochs=8, seed=seed))),
    ):
        model.fit(dataset, train)
        results[name] = biased_rmse(model.predict_subset(test), test.ratings, test.labels)
    return results


def main() -> None:
    fractions = (0.05, 0.15, 0.25, 0.35)
    print(f"{'fake share':>10s} {'PMF':>8s} {'RRRE-':>8s} {'RRRE':>8s}  RRRE- minus RRRE")
    print("-" * 58)
    for fraction in fractions:
        r = run_once(fraction)
        gap = r["RRRE-"] - r["RRRE"]
        print(
            f"{fraction:10.0%} {r['PMF']:8.3f} {r['RRRE-']:8.3f} {r['RRRE']:8.3f}"
            f"  {gap:+.3f}"
        )
    print("\nExpect the RRRE- minus RRRE gap to widen as the attack grows.")


if __name__ == "__main__":
    main()
