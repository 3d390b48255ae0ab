"""Embedding store + service semantics against a real trained model:
export parity, offline/online agreement, warm-path guarantees."""

import sys
import threading

import numpy as np
import pytest

from repro.core import rank_by_rating_then_reliability, recommend_items
from repro.core.profiles import forward_scores
from repro.obs import Tracer, use_tracer
from repro.serve import (
    EmbeddingStore,
    RecommendationService,
    Retriever,
    ServeConfig,
    export_store,
)
from repro.serve.store import string_column


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def cited_item(service):
    """An item with at least one citation, so k=0/k<0 answers are telling."""
    for item in range(service.store.num_items):
        if service.explain(item, 1)["explanations"]:
            return item
    pytest.skip("no item of the test store has a citation")


def reference_explain(store, item_id, k, explain_pool, min_reliability):
    """``Retriever.explain`` as computed before citations were memoised."""
    review_idx = store.item_reviews(item_id)
    if len(review_idx) == 0:
        return []
    pool = min(max(explain_pool, k), len(review_idx))
    order = rank_by_rating_then_reliability(
        np.asarray(store.review_pred_rating[review_idx]),
        np.asarray(store.review_pred_reliability[review_idx]),
        pool,
    )
    payload = []
    for pos in order:
        reliability = float(store.review_pred_reliability[review_idx[pos]])
        if reliability < min_reliability:
            continue
        idx = int(review_idx[pos])
        user = int(store.review_users[idx])
        payload.append(
            {
                "review_index": idx,
                "user_id": user,
                "user_name": store.user_name(user),
                "text": store.review_text(idx),
                "predicted_rating": float(store.review_pred_rating[idx]),
                "predicted_reliability": reliability,
                "actual_rating": float(store.review_ratings[idx]),
            }
        )
        if len(payload) >= k:
            break
    return payload


def scored_pairs_total(service):
    return service.registry.get("repro_serve_scored_pairs_total").labels().value


class TestStoreExport:
    def test_store_matches_pairwise_forward(self, fitted_trainer, store):
        rng = np.random.default_rng(7)
        users = rng.integers(0, store.num_users, size=200)
        items = rng.integers(0, store.num_items, size=200)
        got_r, got_l = store.score_pairs(users, items)
        want_r, want_l = forward_scores(
            fitted_trainer.model,
            fitted_trainer.slots,
            fitted_trainer.table,
            fitted_trainer._rating_range,
            users,
            items,
        )
        np.testing.assert_allclose(got_r, want_r, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(got_l, want_l, rtol=1e-9, atol=1e-9)

    def test_score_users_matches_score_pairs(self, store):
        users = np.array([0, 1])
        ratings, reliabilities = store.score_users(users)
        assert ratings.shape == (2, store.num_items)
        for row, user in enumerate(users):
            pair_r, pair_l = store.score_pairs(
                np.full(store.num_items, user), np.arange(store.num_items)
            )
            np.testing.assert_array_equal(ratings[row], pair_r)
            np.testing.assert_array_equal(reliabilities[row], pair_l)

    def test_roundtrip_preserves_arrays_and_meta(self, store, fitted_trainer):
        in_memory = export_store(fitted_trainer, out_dir=None, verify_pairs=8)
        assert store.meta["dataset"] == in_memory.meta["dataset"]
        assert store.meta["num_reviews"] == store.num_reviews
        np.testing.assert_array_equal(
            np.asarray(store.user_factors), in_memory.user_factors
        )
        np.testing.assert_array_equal(
            np.asarray(store.review_pred_reliability),
            in_memory.review_pred_reliability,
        )

    def test_load_rejects_non_store_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            EmbeddingStore.load(tmp_path)

    def test_csr_indexes_are_consistent(self, store, fitted_trainer):
        dataset = fitted_trainer.dataset
        for item in range(store.num_items):
            np.testing.assert_array_equal(
                store.item_reviews(item),
                np.asarray(dataset.reviews_by_item[item], dtype=np.int64),
            )
        for user in range(store.num_users):
            seen = {int(dataset.item_ids[i]) for i in dataset.reviews_by_user[user]}
            assert set(store.seen_items(user).tolist()) == seen


class TestOfflineOnlineParity:
    def test_retriever_matches_recommend_items(self, fitted_trainer, store):
        retriever = Retriever(store, candidate_pool=50)
        for user in range(min(10, store.num_users)):
            offline = recommend_items(
                fitted_trainer, user_id=user, top_k=50, final_k=4
            )
            (online,) = retriever.recommend_batch([(user, 4, 0)])
            assert [r["item_id"] for r in online] == [r.item_id for r in offline]
            for got, want in zip(online, offline):
                assert got["predicted_rating"] == pytest.approx(
                    want.predicted_rating, rel=1e-9
                )
                assert got["predicted_reliability"] == pytest.approx(
                    want.predicted_reliability, rel=1e-9
                )


class _TiedStore:
    """Store stand-in whose score rows are mostly tied at the rating floor."""

    def __init__(self, ratings, reliabilities, seen):
        self.ratings = ratings
        self.reliabilities = reliabilities
        self.seen = seen
        self.item_popularity = np.zeros(len(ratings), dtype=np.int64)

    def item_name(self, item_id):
        return f"item{item_id}"

    def score_users(self, user_ids):
        rows = len(user_ids)
        return np.tile(self.ratings, (rows, 1)), np.tile(self.reliabilities, (rows, 1))

    def seen_items(self, user_id):
        return self.seen


class TestCandidatePoolTies:
    def test_tied_pool_boundary_keeps_lowest_ids(self):
        # Most items sit at the clip floor, a few above it at high ids:
        # the 50-candidate pool boundary falls inside the floor tie, and
        # offline ranking fills it with the lowest unseen ids.
        num_items = 2000
        rng = np.random.default_rng(11)
        ratings = np.ones(num_items)
        ratings[[1999, 1800, 1500, 1200, 900]] = [4.5, 4.0, 3.5, 3.0, 2.0]
        reliabilities = rng.random(num_items)
        seen = np.array([0, 3, 7, 42, 1500], dtype=np.int64)
        retriever = Retriever(_TiedStore(ratings, reliabilities, seen), candidate_pool=50)
        (online,) = retriever.recommend_batch([(0, 10, 0)])

        unseen = np.setdiff1d(np.arange(num_items), seen)
        order = rank_by_rating_then_reliability(
            ratings[unseen], reliabilities[unseen], 50
        )[:10]
        assert [r["item_id"] for r in online] == unseen[order].tolist()


class TestService:
    def test_cold_then_warm_are_identical_without_rescoring(self, store):
        tracer = Tracer()
        with RecommendationService(store, ServeConfig(top_k=3)) as service:
            with use_tracer(tracer):
                cold = service.recommend(0)
                scored_after_cold = scored_pairs_total(service)
                score_spans_cold = [
                    e
                    for e in tracer.events
                    if e.get("event") == "span_begin"
                    and e.get("name") == "serve.score"
                ]
                warm = service.recommend(0)
        assert cold["served_from"] == "model"
        assert warm["served_from"] == "cache"
        assert cold["recommendations"] == warm["recommendations"]
        # The warm path never touches scoring: the fused-score span count
        # and the scored-pair counter are both frozen after the cold call.
        assert len(score_spans_cold) == 1
        score_spans = [
            e
            for e in tracer.events
            if e.get("event") == "span_begin" and e.get("name") == "serve.score"
        ]
        assert len(score_spans) == 1
        assert scored_pairs_total(service) == scored_after_cold
        hits = service.registry.get("repro_serve_cache_events_total")
        assert hits.labels(result="hit").value == 1
        assert hits.labels(result="miss").value == 1

    def test_unknown_user_falls_back_to_popularity(self, store):
        with RecommendationService(store, ServeConfig(top_k=3)) as service:
            payload = service.recommend(store.num_users + 100)
        assert payload["served_from"] == "fallback"
        assert payload["fallback"] == "popularity"
        recs = payload["recommendations"]
        assert recs
        counts = [r["review_count"] for r in recs]
        assert counts == sorted(counts, reverse=True)
        fallback_total = None
        with RecommendationService(store) as service:
            service.recommend(-1)
            fallback_total = (
                service.registry.get("repro_serve_fallbacks_total").labels().value
            )
        assert fallback_total == 1

    def test_explanations_cite_real_reviews(self, store, fitted_trainer):
        dataset = fitted_trainer.dataset
        with RecommendationService(
            store, ServeConfig(top_k=3, explain_k=2, min_reliability=0.0)
        ) as service:
            payload = service.recommend(0)
        assert payload["recommendations"]
        cited = 0
        for rec in payload["recommendations"]:
            for expl in rec["explanations"]:
                idx = expl["review_index"]
                assert 0 <= idx < store.num_reviews
                # The cited review really is a review *of this item* by
                # the named user, with the dataset's own text.
                assert int(store.review_items[idx]) == rec["item_id"]
                assert dataset.reviews[idx].text == expl["text"]
                assert dataset.user_names[expl["user_id"]] == expl["user_name"]
                cited += 1
        assert cited > 0

    def test_ttl_expiry_rescores(self, store):
        clock = FakeClock()
        config = ServeConfig(top_k=3, cache_ttl=5.0)
        with RecommendationService(store, config, clock=clock) as service:
            first = service.recommend(1)
            clock.now = 10.0  # past the TTL
            again = service.recommend(1)
        assert first["served_from"] == "model"
        assert again["served_from"] == "model"
        assert first["recommendations"] == again["recommendations"]

    def test_cache_disabled(self, store):
        with RecommendationService(
            store, ServeConfig(top_k=3, cache_size=0)
        ) as service:
            assert service.cache is None
            assert service.recommend(0)["served_from"] == "model"
            assert service.recommend(0)["served_from"] == "model"

    def test_loads_store_from_path(self, store_dir):
        with RecommendationService(store_dir, ServeConfig(top_k=2)) as service:
            payload = service.recommend(0)
        assert payload["served_from"] == "model"
        assert len(payload["recommendations"]) <= 2

    def test_explain_validates_item(self, store):
        with RecommendationService(store) as service:
            with pytest.raises(IndexError):
                service.explain(store.num_items + 5)

    def test_recommend_validates_k(self, store):
        with RecommendationService(store) as service:
            with pytest.raises(ValueError):
                service.recommend(0, k=0)

    def test_explain_k_zero_cites_nothing(self, store):
        with RecommendationService(store) as service:
            item = cited_item(service)
            assert service.explain(item, 0)["explanations"] == []

    def test_explain_rejects_negative_k(self, store):
        with RecommendationService(store) as service:
            item = cited_item(service)
            with pytest.raises(ValueError, match="k must be >= 0"):
                service.explain(item, -1)

    def test_health_payload(self, store):
        with RecommendationService(store) as service:
            service.recommend(0)
            health = service.health()
        assert health["status"] == "ok"
        assert health["users"] == store.num_users
        assert health["items"] == store.num_items
        assert health["cache"]["misses"] >= 1


class TestSharedCitations:
    @pytest.mark.parametrize("min_reliability", [0.0, 0.5])
    def test_memoised_citations_match_fresh_computation(self, store, min_reliability):
        retriever = Retriever(store, explain_pool=5, min_reliability=min_reliability)
        for item in range(store.num_items):
            # k beyond the pool is computed afresh; every k within it is a
            # prefix of the item's one memoised list.
            for k in (*range(1, 6), 8):
                assert retriever.explain(item, k) == reference_explain(
                    store, item, k, 5, min_reliability
                ), (item, k)

    def test_concurrent_first_calls_agree(self, store):
        # The batcher worker and HTTP threads share one memo; racing first
        # calls may each build an item's list, but every answer is whole.
        retriever = Retriever(store, min_reliability=0.0)
        items = range(store.num_items)
        want = {item: reference_explain(store, item, 3, 5, 0.0) for item in items}
        wrong = []

        def worker():
            for item in items:
                if retriever.explain(item, 3) != want[item]:
                    wrong.append(item)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_reload_serves_the_new_stores_citations(self, store, tmp_path):
        root = tmp_path / "stores"
        EmbeddingStore(dict(store.arrays), dict(store.meta)).save_versioned(root)
        # Same shapes and scores, different review text: only a stale
        # memo could still cite the old wording after the swap.
        arrays = dict(store.arrays)
        arrays.update(
            string_column(
                "review_texts",
                ["v2 " + store.review_text(j) for j in range(store.num_reviews)],
            )
        )
        with RecommendationService(
            root, ServeConfig(min_reliability=0.0)
        ) as service:
            item = cited_item(service)
            before = service.explain(item, 2)["explanations"]
            EmbeddingStore(arrays, dict(store.meta)).save_versioned(root)
            service.reload_store()
            after = service.explain(item, 2)["explanations"]
            assert after == reference_explain(service.store, item, 2, 5, 0.0)
        assert [e["text"] for e in after] == ["v2 " + e["text"] for e in before]
