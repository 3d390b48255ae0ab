"""Generative simulator of a review platform with opinion-spam campaigns.

This is the stand-in for the YelpChi/YelpNYC/YelpZip and Amazon
Musics/CDs corpora (see DESIGN.md for the substitution argument).  The
generative story follows the recommendation and fraud-detection
literature the paper builds on (NARRE, FraudEagle, SpEagle, REV2):

* every item has a base quality plus an *aspect quality* vector; every
  benign user has a personal bias plus sparse aspect preferences.  A
  benign rating is ``quality + bias + preference·aspect_quality + noise``
  and the review text discusses the aspects the user cares about with
  polarity matching the item — so text genuinely carries rating signal
  that ID-only models (PMF) cannot recover for sparse users;
* fraud campaigns pick targets and *unjustly promote bad items or demote
  good items* (the paper's own wording) with extreme ratings, bursty
  timestamps, and generic template-heavy text.  Account behaviour is
  controlled by ``fraud_reuse``: near 1, every fake comes from a fresh
  throwaway account (Yelp-style singleton spam, which starves
  user-degree features and graph methods); larger values re-use
  accounts (Amazon-style, where REV2/ICWSM13 do much better) — exactly
  the cross-dataset contrast Table IV shows;
* user activity and item popularity follow heavy-tailed (Zipf-like)
  distributions so degree statistics resemble the real corpora.

Everything is driven by one seeded ``numpy.random.Generator``, and the
order of its draws is part of the catalog:
``tests/data/test_catalog_digests.py`` pins every catalog byte for byte
(see "Catalog determinism" in ``docs/architecture.md``).
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.obs.trace import traced

from .corpora import ReviewWriter, domain_for
from .review import BENIGN, FAKE, Review, ReviewDataset


@dataclass
class PlatformConfig:
    """Knobs of the simulated platform.

    Attributes
    ----------
    name:
        Dataset tag (``yelpchi``...).
    domain:
        Language domain, ``"restaurants"`` or ``"music"``.
    num_items / num_benign_users:
        Population sizes before trimming zero-degree entities.
    num_reviews:
        Target total review count (approximate after trimming).
    fake_fraction:
        Target share of fake reviews (Table II column).
    item_popularity_alpha:
        Zipf exponent for item popularity; larger → reviews concentrate
        on few items (Yelp-like).  Near zero → uniform (Amazon-like).
    user_activity_alpha:
        Zipf exponent for benign user activity.
    campaign_size_mean:
        Mean number of fake reviews per fraud campaign.
    fraud_reuse:
        Mean fakes written per fraud account.  ≈1 → singleton throwaway
        accounts; ≥3 → repeat offenders.
    fraud_popularity_boost:
        Exponent applied to item popularity when picking fraud targets.
        1.0 → fakes follow organic popularity (Yelp campaigns);
        >1 → fakes concentrate on popular items (Amazon-style careless
        reviews on best-sellers, where a rating consensus exists).
    strategic_polarity:
        True → campaigns promote bad items / demote good ones (paper
        Sec I).  False → the uplift sign is random per review (careless
        rather than adversarial — the Amazon helpfulness ground truth).
    fake_uplift:
        Mean absolute rating shift of a fake relative to item quality.
    camouflage_rate:
        Probability a fraud account also writes one honest
        (benign-labelled) review, mimicking camouflage behaviour.
    horizon_days:
        Simulated platform lifetime.
    burst_days:
        Length of the time window a campaign's reviews land in.
    rating_noise:
        Std-dev of benign rating noise.
    aspect_strength:
        Scale of the user-preference × item-aspect interaction term.
    text_confusion:
        How often fakes imitate honest phrasing (and honest reviewers
        sound spammy); 0 makes the populations textually separable.
    seed:
        Master seed.
    """

    name: str = "synthetic"
    domain: str = "restaurants"
    num_items: int = 40
    num_benign_users: int = 800
    num_reviews: int = 2400
    fake_fraction: float = 0.13
    item_popularity_alpha: float = 1.0
    user_activity_alpha: float = 1.2
    campaign_size_mean: float = 12.0
    fraud_reuse: float = 1.3
    fraud_popularity_boost: float = 1.0
    strategic_polarity: bool = True
    fake_uplift: float = 1.4
    camouflage_rate: float = 0.3
    horizon_days: float = 730.0
    burst_days: float = 45.0
    rating_noise: float = 0.6
    aspect_strength: float = 0.9
    text_confusion: float = 0.45
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fake_fraction < 1.0:
            raise ValueError(f"fake_fraction must be in [0, 1), got {self.fake_fraction}")
        if self.num_reviews < 10:
            raise ValueError("num_reviews too small to form a dataset")
        if min(self.num_items, self.num_benign_users) < 1:
            raise ValueError("need at least one item and one benign user")
        if self.fraud_reuse < 1.0:
            raise ValueError(f"fraud_reuse must be >= 1, got {self.fraud_reuse}")


@dataclass
class PlatformTruth:
    """Latent ground truth of a generated platform (for tests/analysis).

    Every field is indexed by the dataset's ids: ``item_quality`` and
    ``item_aspects`` per item, ``user_bias`` and ``fraud_user_flags``
    per user (``user_bias`` is NaN for fraud accounts, which have none),
    and ``campaign_targets`` lists item ids, one per campaign.
    """

    item_quality: np.ndarray
    item_aspects: np.ndarray
    user_bias: np.ndarray
    fraud_user_flags: np.ndarray
    campaign_targets: List[int] = field(default_factory=list)


@traced("data.generate_platform", kind="data")
def generate_platform(config: PlatformConfig, return_truth: bool = False):
    """Simulate a review platform.

    Returns the :class:`ReviewDataset` (and, optionally, the
    :class:`PlatformTruth` latents).  Users/items with zero reviews are
    trimmed and ids compacted, so every entity has at least one review —
    the invariant the paper's split protocol expects.
    """
    rng = np.random.default_rng(config.seed)
    domain = domain_for(config.domain)
    writer = ReviewWriter(domain, rng, confusion=config.text_confusion)
    n_aspects = domain.num_aspects

    n_fake_target = int(round(config.num_reviews * config.fake_fraction))
    n_benign_target = config.num_reviews - n_fake_target

    # Latents -------------------------------------------------------------
    item_quality = rng.uniform(1.8, 4.6, size=config.num_items)
    item_aspects = rng.normal(0.0, 1.0, size=(config.num_items, n_aspects))
    user_bias = rng.normal(0.0, 0.8, size=config.num_benign_users)
    # Sparse aspect preferences: each user cares about 2-4 aspects.
    user_pref = np.zeros((config.num_benign_users, n_aspects))
    for u in range(config.num_benign_users):
        cared = rng.choice(n_aspects, size=int(rng.integers(2, 5)), replace=False)
        user_pref[u, cared] = rng.normal(0.0, 1.0, size=len(cared))

    item_popularity = _zipf_weights(config.num_items, config.item_popularity_alpha, rng)
    user_activity = _zipf_weights(config.num_benign_users, config.user_activity_alpha, rng)

    # The loops below draw one review at a time, so they read the latents
    # as Python floats and lists: numpy's per-call overhead on scalars
    # dwarfs the arithmetic, and IEEE results are the same either way.
    quality = item_quality.tolist()
    bias = user_bias.tolist()
    aspect_values = item_aspects.tolist()
    aspect_rows = list(item_aspects)
    pref_rows = list(user_pref)
    cared_aspects: List[List[int]] = [[] for _ in range(config.num_benign_users)]
    for u, aspect in zip(*(axis.tolist() for axis in np.nonzero(user_pref))):
        cared_aspects[u].append(aspect)
    root_aspects = float(np.sqrt(n_aspects))
    # (user, item, rating, label, text, timestamp); ids are compacted later.
    rows: List[tuple] = []

    # Benign reviews --------------------------------------------------------
    users = rng.choice(config.num_benign_users, size=n_benign_target, p=user_activity)
    items = rng.choice(config.num_items, size=n_benign_target, p=item_popularity)
    times = rng.uniform(0.0, config.horizon_days, size=n_benign_target)
    noise = rng.normal(0.0, config.rating_noise, size=n_benign_target)
    for u, i, t, eps in zip(users.tolist(), items.tolist(), times.tolist(), noise.tolist()):
        interaction = (
            config.aspect_strength * float(pref_rows[u] @ aspect_rows[i]) / root_aspects
        )
        rating = _stars(quality[i] + bias[u] + interaction + eps)
        mentions = _aspect_mentions(cared_aspects[u], aspect_values[i], quality[i], rng)
        rows.append((u, i, rating, BENIGN, writer.benign_review(rating, mentions), t))

    # Fraud campaigns ---------------------------------------------------------
    fraud_targeting = item_popularity**config.fraud_popularity_boost
    fraud_targeting /= fraud_targeting.sum()
    fraud_cdf = _cdf(fraud_targeting)
    campaign_targets: List[int] = []
    fraud_offset = config.num_benign_users  # fraud accounts get the next ids
    fraud_accounts: List[int] = []  # account ids (offset-based) in use
    next_fraud = 0
    p_new_account = 1.0 / config.fraud_reuse
    fakes_written = 0
    while fakes_written < n_fake_target:
        size = max(1, int(rng.poisson(config.campaign_size_mean)))
        size = min(size, n_fake_target - fakes_written)
        target_item = _draw(fraud_cdf, rng)
        campaign_targets.append(target_item)
        if config.strategic_polarity:
            # Promote bad items, demote good ones (paper Sec I).
            promote = quality[target_item] < 3.2
        else:
            promote = rng.random() < 0.5
        start = rng.uniform(0.0, config.horizon_days - config.burst_days)
        for _ in range(size):
            if not fraud_accounts or rng.random() < p_new_account:
                account = next_fraud
                next_fraud += 1
                fraud_accounts.append(account)
            else:
                account = fraud_accounts[rng.integers(0, len(fraud_accounts))]
            # The fake rating is the item's true quality pushed by an
            # uplift, not always a flat 5/1 — subtler campaigns survive
            # deviation-based filters longer.
            uplift = rng.normal(config.fake_uplift, 0.4)
            rating = _stars(quality[target_item] + (uplift if promote else -uplift))
            text = writer.fake_review(promote)
            timestamp = start + rng.uniform(0.0, config.burst_days)
            rows.append((fraud_offset + account, target_item, rating, FAKE, text, timestamp))
            fakes_written += 1

    # Camouflage: some fraud accounts write one honest review too.
    popularity_cdf = _cdf(item_popularity)
    for account in fraud_accounts:
        if rng.random() < config.camouflage_rate:
            i = _draw(popularity_cdf, rng)
            rating = _stars(quality[i] + rng.normal(0, 0.5))
            text = writer.benign_review(rating)
            timestamp = rng.uniform(0.0, config.horizon_days)
            rows.append((fraud_offset + account, i, rating, BENIGN, text, timestamp))

    # Compact ids (drop zero-degree users/items) ------------------------------
    dataset, kept_users, kept_items = _compact(rows, config, writer, rng)
    if return_truth:
        fraud_flags = kept_users >= fraud_offset
        dataset_bias = np.full(len(kept_users), np.nan)
        dataset_bias[~fraud_flags] = user_bias[kept_users[~fraud_flags]]
        truth = PlatformTruth(
            item_quality=item_quality[kept_items],
            item_aspects=item_aspects[kept_items],
            user_bias=dataset_bias,
            fraud_user_flags=fraud_flags,
            # Every target got a fake review, so every target is kept.
            campaign_targets=np.searchsorted(kept_items, campaign_targets).tolist(),
        )
        return dataset, truth
    return dataset


def _stars(x: float) -> float:
    """``x`` rounded half-to-even and clipped to 1..5 stars.

    Same result as ``float(np.clip(np.round(x), 1, 5))`` at a fraction
    of the cost on a scalar.
    """
    return float(min(max(round(x), 1), 5))


def _cdf(p: np.ndarray) -> np.ndarray:
    """The normalised CDF ``rng.choice(n, p=p)`` builds on every call."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One draw of ``rng.choice(len(cdf), p=p)``: same bits, same index."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _aspect_mentions(
    cared: List[int],
    aspects: List[float],
    base_quality: float,
    rng: np.random.Generator,
) -> List[tuple]:
    """Pick (aspect, polarity) pairs a benign review discusses.

    Users mostly mention the aspects they care about (``cared``, the
    indices of their non-zero preferences); polarity follows the item's
    aspect quality shifted by its base quality.
    """
    n_mentions = int(rng.integers(2, 5))
    mentions = []
    for _ in range(n_mentions):
        if cared and rng.random() < 0.7:
            aspect = cared[rng.integers(0, len(cared))]
        else:
            aspect = int(rng.integers(len(aspects)))
        signal = aspects[aspect] + (base_quality - 3.2) + rng.normal(0, 0.6)
        mentions.append((aspect, signal > 0))
    return mentions


def _compact(rows, config, writer, rng):
    """Renumber users/items to contiguous ids; build readable names.

    Returns the dataset and the raw ids of its users and items, in
    dataset-id order.
    """
    used_users = sorted({row[0] for row in rows})
    used_items = sorted({row[1] for row in rows})
    user_map = {old: new for new, old in enumerate(used_users)}
    item_map = {old: new for new, old in enumerate(used_items)}

    reviews = [
        Review(user_map[user], item_map[item], rating, label, text, timestamp)
        for user, item, rating, label, text, timestamp in rows
    ]
    user_names = _yelp_style_ids(rng, len(used_users))
    item_names = [writer.item_name(old) for old in used_items]
    dataset = ReviewDataset(
        reviews, name=config.name, user_names=user_names, item_names=item_names
    )
    return dataset, np.array(used_users, dtype=np.int64), np.array(used_items, dtype=np.int64)


def _zipf_weights(n: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf-like popularity weights with a random rank permutation."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    rng.shuffle(weights)
    return weights / weights.sum()


_ALPHABET = string.ascii_letters + string.digits


def _yelp_style_ids(rng: np.random.Generator, count: int, length: int = 11) -> List[str]:
    """Random alphanumeric handles like the Yelp user ids in Table VII.

    One ``integers`` call draws the same bits as ``count`` calls of
    ``rng.choice(alphabet, size=length)``.
    """
    letters = rng.integers(0, len(_ALPHABET), size=(count, length))
    return ["".join([_ALPHABET[k] for k in handle]) for handle in letters.tolist()]
