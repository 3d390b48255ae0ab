"""Tests for the platform simulator and dataset presets."""

import numpy as np
import pytest

from repro.data import (
    DATASET_NAMES,
    PlatformConfig,
    generate_platform,
    load_dataset,
    preset_config,
)
from repro.data.corpora import ReviewWriter, domain_for


class TestPlatformConfig:
    def test_defaults_valid(self):
        PlatformConfig()

    def test_invalid_fake_fraction(self):
        with pytest.raises(ValueError):
            PlatformConfig(fake_fraction=1.0)

    def test_invalid_reuse(self):
        with pytest.raises(ValueError):
            PlatformConfig(fraud_reuse=0.5)

    def test_too_few_reviews(self):
        with pytest.raises(ValueError):
            PlatformConfig(num_reviews=5)


class TestGeneratePlatform:
    def test_deterministic_given_seed(self):
        cfg = PlatformConfig(num_reviews=300, num_items=10, num_benign_users=80, seed=5)
        a = generate_platform(cfg)
        b = generate_platform(cfg)
        assert [r.text for r in a] == [r.text for r in b]
        np.testing.assert_array_equal(a.ratings, b.ratings)

    def test_different_seeds_differ(self):
        cfg1 = PlatformConfig(num_reviews=300, num_items=10, num_benign_users=80, seed=1)
        cfg2 = PlatformConfig(num_reviews=300, num_items=10, num_benign_users=80, seed=2)
        assert [r.text for r in generate_platform(cfg1)] != [
            r.text for r in generate_platform(cfg2)
        ]

    def test_fake_fraction_approximate(self):
        cfg = PlatformConfig(num_reviews=1500, fake_fraction=0.2, seed=0)
        ds = generate_platform(cfg)
        assert abs(ds.fake_fraction() - 0.2) < 0.04

    def test_every_entity_has_a_review(self):
        ds = generate_platform(PlatformConfig(num_reviews=400, seed=0))
        assert (ds.user_degrees() > 0).all()
        assert (ds.item_degrees() > 0).all()

    def test_ids_contiguous(self):
        ds = generate_platform(PlatformConfig(num_reviews=400, seed=0))
        assert set(np.unique(ds.user_ids)) == set(range(ds.num_users))
        assert set(np.unique(ds.item_ids)) == set(range(ds.num_items))

    def test_ratings_in_range(self):
        ds = generate_platform(PlatformConfig(num_reviews=500, seed=2))
        assert ds.ratings.min() >= 1.0
        assert ds.ratings.max() <= 5.0

    def test_truth_alignment(self):
        ds, truth = generate_platform(
            PlatformConfig(num_reviews=500, seed=3), return_truth=True
        )
        assert len(truth.fraud_user_flags) == ds.num_users
        assert len(truth.item_quality) == ds.num_items
        assert truth.item_aspects.shape[0] == ds.num_items

    def test_fraud_flags_match_fake_authors(self):
        ds, truth = generate_platform(
            PlatformConfig(num_reviews=800, seed=4, camouflage_rate=0.0),
            return_truth=True,
        )
        fake_authors = set(ds.user_ids[ds.labels == 0])
        for author in fake_authors:
            assert truth.fraud_user_flags[author]

    def test_fakes_deviate_from_quality(self):
        ds, truth = generate_platform(
            PlatformConfig(num_reviews=1000, seed=5), return_truth=True
        )
        fake = ds.labels == 0
        deviation_fake = np.abs(
            ds.ratings[fake] - truth.item_quality[ds.item_ids[fake]]
        ).mean()
        deviation_benign = np.abs(
            ds.ratings[~fake] - truth.item_quality[ds.item_ids[~fake]]
        ).mean()
        assert deviation_fake > deviation_benign

    def test_fake_reviews_burstier(self):
        # Campaign reviews land in a short window; per-item time spread of
        # fakes is smaller than that of benign reviews on attacked items.
        cfg = PlatformConfig(num_reviews=1000, seed=6, campaign_size_mean=20.0)
        ds = generate_platform(cfg)
        spreads_fake, spreads_benign = [], []
        for item in range(ds.num_items):
            idx = np.array(ds.reviews_by_item[item])
            labels = ds.labels[idx]
            times = ds.timestamps[idx]
            if (labels == 0).sum() >= 3 and (labels == 1).sum() >= 3:
                spreads_fake.append(times[labels == 0].std())
                spreads_benign.append(times[labels == 1].std())
        assert spreads_fake, "expected at least one attacked item"
        assert np.mean(spreads_fake) < np.mean(spreads_benign)


class TestTruthIdSpaces:
    """``PlatformTruth`` is indexed by dataset ids; musics 0.3 seed 0 trims
    both users and items, so a raw id would be out of range or wrong."""

    @pytest.fixture(scope="class")
    def platform(self):
        return load_dataset("musics", seed=0, scale=0.3, return_truth=True)

    def test_campaign_targets_are_dataset_items(self, platform):
        ds, truth = platform
        quality = truth.item_quality[truth.campaign_targets]
        assert len(quality) == len(truth.campaign_targets)
        attacked = set(ds.item_ids[ds.labels == 0].tolist())
        assert set(truth.campaign_targets) <= attacked

    def test_user_bias_per_dataset_user(self, platform):
        ds, truth = platform
        assert len(truth.user_bias) == ds.num_users
        np.testing.assert_array_equal(np.isnan(truth.user_bias), truth.fraud_user_flags)
        # A benign rating is quality + bias + preference term + noise.
        benign = ~truth.fraud_user_flags[ds.user_ids]
        residual = ds.ratings[benign] - truth.item_quality[ds.item_ids[benign]]
        bias = truth.user_bias[ds.user_ids[benign]]
        assert np.corrcoef(residual, bias)[0, 1] > 0.5


class TestPresets:
    def test_all_presets_load(self):
        for name in DATASET_NAMES:
            ds = load_dataset(name, seed=0, scale=0.2)
            assert len(ds) > 50, name

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            load_dataset("nope")

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            preset_config("yelpchi", scale=0.01)

    def test_scale_changes_size(self):
        small = load_dataset("yelpchi", seed=0, scale=0.2)
        large = load_dataset("yelpchi", seed=0, scale=0.5)
        assert len(large) > len(small)

    def test_yelp_vs_amazon_degree_shape(self):
        # Yelp: few busy items.  Amazon: many quiet items.  (Table II shape.)
        yelp = load_dataset("yelpchi", seed=0, scale=0.4)
        amazon = load_dataset("musics", seed=0, scale=0.4)
        assert np.median(yelp.item_degrees()) > np.median(amazon.item_degrees())

    def test_fake_fraction_tracks_paper(self):
        from repro.data import PAPER_STATISTICS

        for name in DATASET_NAMES:
            ds = load_dataset(name, seed=1, scale=0.4)
            assert abs(ds.fake_fraction() - PAPER_STATISTICS[name]["fake_fraction"]) < 0.04


class TestReviewWriter:
    def test_confusion_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ReviewWriter(domain_for("restaurants"), rng, confusion=1.5)

    def test_benign_text_sentiment_tracks_rating(self):
        rng = np.random.default_rng(0)
        writer = ReviewWriter(domain_for("restaurants"), rng, confusion=0.0)
        positive = " ".join(writer.benign_review(5.0) for _ in range(40))
        negative = " ".join(writer.benign_review(1.0) for _ in range(40))
        assert positive.count("excellent") + positive.count("loved") > (
            negative.count("excellent") + negative.count("loved")
        )

    def test_fake_review_polarity(self):
        rng = np.random.default_rng(0)
        writer = ReviewWriter(domain_for("music"), rng, confusion=0.0)
        promo = " ".join(writer.fake_review(True) for _ in range(20))
        demote = " ".join(writer.fake_review(False) for _ in range(20))
        assert "best" in promo
        assert "worst" in demote or "avoid" in demote

    def test_aspect_mentions_respected(self):
        rng = np.random.default_rng(0)
        domain = domain_for("restaurants")
        writer = ReviewWriter(domain, rng, confusion=0.0)
        text = writer.benign_review(4.0, aspect_mentions=[(0, True), (1, False)])
        assert domain.aspects[0] in text
        assert domain.aspects[1] in text

    def test_unknown_domain(self):
        with pytest.raises(KeyError):
            domain_for("aviation")
