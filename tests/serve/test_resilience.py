"""Serving resilience: deadlines, shedding, the degradation ladder,
breaker transitions, and atomic store hot-reload — driven by the chaos
harness so every recovery path is exercised deterministically."""

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.resilience import ChaosEngine, RetrievalFault, SimulatedCrash
from repro.serve import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    EmbeddingStore,
    RecommendationServer,
    RecommendationService,
    ServeConfig,
    ServerOverloaded,
    ServiceUnavailable,
    StoreCorrupt,
    current_version,
    export_store,
    verify_store_manifest,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# Primitives: Deadline, AdmissionController, CircuitBreaker
# ----------------------------------------------------------------------
class TestDeadline:
    def test_remaining_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(0.3)
        assert deadline.remaining() == pytest.approx(0.2)
        assert not deadline.expired()
        clock.advance(0.3)
        assert deadline.remaining() == 0.0
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("scoring")
        assert excinfo.value.stage == "scoring"
        assert excinfo.value.budget == pytest.approx(0.5)

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestAdmissionController:
    def test_sheds_on_queue_depth(self):
        admission = AdmissionController(max_inflight=2, clock=FakeClock())
        admission.acquire()
        admission.acquire()
        with pytest.raises(ServerOverloaded) as excinfo:
            admission.acquire()
        assert excinfo.value.reason == "queue depth"
        assert excinfo.value.retry_after > 0
        admission.release(0.01)
        admission.acquire()  # slot freed

    def test_sheds_on_estimated_wait(self):
        clock = FakeClock()
        admission = AdmissionController(max_inflight=100, clock=clock)
        # Teach the EWMA a 1s service time, then hold requests in flight.
        admission.acquire()
        admission.release(1.0)
        for _ in range(3):
            admission.acquire()
        assert admission.estimated_wait() > 0.2
        with pytest.raises(ServerOverloaded) as excinfo:
            admission.acquire(Deadline(0.2, clock=clock))
        assert excinfo.value.reason == "estimated wait exceeds deadline"
        # A request with budget to spare is still admitted.
        admission.acquire(Deadline(60.0, clock=clock))

    def test_ewma_folds_observations(self):
        admission = AdmissionController(max_inflight=4)
        admission.acquire()
        admission.release(1.0)
        assert admission.ewma_seconds == pytest.approx(1.0)
        admission.acquire()
        admission.release(0.0)
        assert admission.ewma_seconds == pytest.approx(0.8)


class TestCircuitBreaker:
    def test_full_transition_cycle(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_after=5.0, clock=clock)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # below threshold
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        clock.advance(5.1)
        assert breaker.allow()  # the half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # only one probe per window
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.transitions == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after=2.0, clock=clock)
        breaker.record_failure()
        clock.advance(2.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(1.0)
        assert not breaker.allow()  # the reset clock restarted
        clock.advance(1.5)
        assert breaker.allow()

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_state_change_callback(self):
        clock = FakeClock()
        seen = []
        breaker = CircuitBreaker(
            failure_threshold=1,
            reset_after=1.0,
            clock=clock,
            on_state_change=lambda old, new: seen.append((old, new)),
        )
        breaker.record_failure()
        clock.advance(1.1)
        breaker.allow()
        breaker.record_success()
        assert seen == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]


# ----------------------------------------------------------------------
# Service-level: degradation ladder, breaker wiring, chaos faults
# ----------------------------------------------------------------------
def make_service(store, chaos=None, **overrides):
    defaults = dict(
        top_k=3,
        explain_k=1,
        cache_size=64,
        cache_ttl=0.5,
        deadline_ms=500.0,
        breaker_failures=2,
        breaker_reset_s=0.2,
    )
    defaults.update(overrides)
    return RecommendationService(store, config=ServeConfig(**defaults), chaos=chaos)


class TestDegradationLadder:
    def test_healthy_payload_is_not_degraded(self, store):
        with make_service(store) as service:
            payload = service.recommend(0)
            assert payload["degraded"] is None
            assert payload["served_from"] == "model"

    def test_fault_degrades_to_stale_cache(self, store):
        chaos = ChaosEngine(seed=0).fail_score_at(2)
        with make_service(store, chaos=chaos) as service:
            fresh = service.recommend(0)  # scoring call 1 populates the cache
            assert fresh["degraded"] is None
            # Age the cached entry out so the normal read misses...
            import time as _time

            _time.sleep(0.6)
            degraded = service.recommend(0)  # scoring call 2 faults
            assert degraded["degraded"] == "stale_cache"
            assert degraded["served_from"] == "stale_cache"
            # ...and the stale payload is the genuinely-scored one.
            assert degraded["recommendations"] == fresh["recommendations"]
            assert chaos.fired[-1].kind == "fail_score"

    def test_fault_without_cache_degrades_to_popularity(self, store):
        chaos = ChaosEngine(seed=0).fail_score_at(1)
        with make_service(store, chaos=chaos, cache_size=0) as service:
            payload = service.recommend(0)
            assert payload["degraded"] == "popularity"
            assert payload["served_from"] == "fallback"
            assert payload["recommendations"]  # non-empty, genuinely scored
            for rec in payload["recommendations"]:
                for citation in rec.get("explanations", []):
                    # Citations come from the store's precomputed review
                    # predictions — never fabricated under degradation.
                    idx = citation["review_index"]
                    assert citation["predicted_reliability"] == pytest.approx(
                        float(store.review_pred_reliability[idx])
                    )

    def test_ladder_order_stale_before_popularity(self, store):
        # With a warm (stale) cache entry available, the ladder must pick
        # it over the popularity rung.
        chaos = ChaosEngine(seed=0).fail_score_at(2)
        with make_service(store, chaos=chaos) as service:
            service.recommend(0)
            import time as _time

            _time.sleep(0.6)
            payload = service.recommend(0)
            assert payload["degraded"] == "stale_cache"

    def test_all_rungs_down_raises_service_unavailable(self, store, monkeypatch):
        chaos = ChaosEngine(seed=0).fail_score_at(1)
        with make_service(store, chaos=chaos, cache_size=0) as service:
            monkeypatch.setattr(
                type(service.retriever),
                "popular_items",
                lambda self, k, explain_k=0: (_ for _ in ()).throw(
                    RuntimeError("popularity table gone")
                ),
            )
            with pytest.raises(ServiceUnavailable):
                service.recommend(0)

    def test_timeout_with_no_rung_raises_deadline_exceeded(self, store, monkeypatch):
        chaos = ChaosEngine(seed=0).slow_score_at(1, seconds=0.3)
        with make_service(
            store, chaos=chaos, cache_size=0, deadline_ms=60.0
        ) as service:
            monkeypatch.setattr(
                type(service.retriever),
                "popular_items",
                lambda self, k, explain_k=0: (_ for _ in ()).throw(
                    RuntimeError("popularity table gone")
                ),
            )
            with pytest.raises(DeadlineExceeded):
                service.recommend(0)

    def test_timeout_degrades_within_budget(self, store):
        chaos = ChaosEngine(seed=0).slow_score_at(1, seconds=0.3)
        with make_service(store, chaos=chaos, deadline_ms=80.0) as service:
            payload = service.recommend(0)
            assert payload["degraded"] == "popularity"

    def test_breaker_opens_after_repeated_faults(self, store):
        chaos = ChaosEngine(seed=0).fail_score_at(1).fail_score_at(2)
        with make_service(store, chaos=chaos, cache_size=0) as service:
            service.recommend(0)
            assert service.breaker.state == CircuitBreaker.CLOSED
            service.recommend(1)
            assert service.breaker.state == CircuitBreaker.OPEN
            assert service.health()["status"] == "degraded"
            # While open, requests skip scoring entirely and degrade.
            before = service._score_calls
            payload = service.recommend(2)
            assert payload["degraded"] == "popularity"
            assert service._score_calls == before
            # After the reset window a probe succeeds and the breaker
            # closes; health recovers.
            import time as _time

            _time.sleep(0.25)
            recovered = service.recommend(3)
            assert recovered["degraded"] is None
            assert service.breaker.state == CircuitBreaker.CLOSED
            assert service.health()["status"] == "ok"

    def test_degraded_metric_counts_modes(self, store):
        chaos = ChaosEngine(seed=0).fail_score_at(1)
        with make_service(store, chaos=chaos, cache_size=0) as service:
            service.recommend(0)
            text = service.registry.to_prometheus()
            assert 'repro_serve_degraded_total{mode="popularity"} 1' in text

    def test_shedding_at_max_inflight(self, store):
        with make_service(store, max_inflight=1) as service:
            service.admission.acquire()  # occupy the only slot
            try:
                with pytest.raises(ServerOverloaded):
                    service.recommend(0)
            finally:
                service.admission.release(0.01)
            text = service.registry.to_prometheus()
            assert 'repro_serve_shed_total{reason="queue depth"} 1' in text


# ----------------------------------------------------------------------
# Versioned stores + atomic hot-reload
# ----------------------------------------------------------------------
@pytest.fixture()
def versioned_root(fitted_trainer, tmp_path):
    root = tmp_path / "stores"
    export_store(fitted_trainer, out_dir=root, versioned=True)
    return root


class TestVersionedStore:
    def test_export_layout(self, versioned_root):
        assert current_version(versioned_root) == "v0001"
        version_dir = versioned_root / "v0001"
        assert (version_dir / "meta.json").exists()
        manifest = verify_store_manifest(version_dir)  # hashes all check out
        assert manifest["version"] == "v0001"
        assert manifest["score_sample"]["users"]

    def test_second_export_advances_pointer(self, fitted_trainer, versioned_root):
        export_store(fitted_trainer, out_dir=versioned_root, versioned=True)
        assert current_version(versioned_root) == "v0002"
        store = EmbeddingStore.load(versioned_root)  # resolves CURRENT
        assert store.path.name == "v0002"

    def test_corrupt_table_fails_verification(self, versioned_root):
        version_dir = versioned_root / "v0001"
        ChaosEngine(seed=0).corrupt_store_table(version_dir, "item_factors")
        with pytest.raises(StoreCorrupt):
            verify_store_manifest(version_dir)
        with pytest.raises(StoreCorrupt):
            EmbeddingStore.load(versioned_root, verify=True)

    def test_mid_export_crash_keeps_old_version_live(
        self, fitted_trainer, versioned_root
    ):
        chaos = ChaosEngine(seed=0).fail_reload_at("publish")
        store = EmbeddingStore.load(versioned_root, mmap=False)
        with pytest.raises(SimulatedCrash):
            store.save_versioned(versioned_root, fault_hook=chaos.on_reload)
        # The pointer still names the intact old version; loading through
        # it never sees the half-published one.
        assert current_version(versioned_root) == "v0001"
        reloaded = EmbeddingStore.load(versioned_root, verify=True)
        assert reloaded.path.name == "v0001"

    def test_crash_before_rename_leaves_only_tmp(self, fitted_trainer, versioned_root):
        chaos = ChaosEngine(seed=0).fail_reload_at("manifest")
        store = EmbeddingStore.load(versioned_root, mmap=False)
        with pytest.raises(SimulatedCrash):
            store.save_versioned(versioned_root, fault_hook=chaos.on_reload)
        assert not (versioned_root / "v0002").exists()
        assert current_version(versioned_root) == "v0001"


class TestHotReload:
    def test_reload_swaps_to_new_version(self, fitted_trainer, versioned_root):
        with RecommendationService(versioned_root) as service:
            assert service.store.path.name == "v0001"
            baseline = service.recommend(0)
            export_store(fitted_trainer, out_dir=versioned_root, versioned=True)
            summary = service.reload_store()
            assert summary == {
                "outcome": "ok",
                "from_version": "v0001",
                "version": "v0002",
                "at_uptime": summary["at_uptime"],
            }
            assert service.store.path.name == "v0002"
            after = service.recommend(0)
            # Same trainer, same scores: the swap is invisible to results.
            assert after["recommendations"] == baseline["recommendations"]
            assert service.health()["store_version"] == "v0002"

    def test_corrupt_candidate_is_rejected_and_rolled_back(
        self, fitted_trainer, versioned_root
    ):
        with RecommendationService(versioned_root) as service:
            export_store(fitted_trainer, out_dir=versioned_root, versioned=True)
            ChaosEngine(seed=0).corrupt_store_table(
                versioned_root / "v0002", "user_factors", nbytes=64
            )
            with pytest.raises(StoreCorrupt):
                service.reload_store()
            # The old engine keeps serving; the failure is observable.
            assert service.store.path.name == "v0001"
            assert service.recommend(0)["degraded"] is None
            assert service.health()["last_reload"]["outcome"] == "rejected"
            text = service.registry.to_prometheus()
            assert 'repro_serve_store_reloads_total{outcome="rejected"} 1' in text

    def test_mid_reload_crash_keeps_old_engine(self, fitted_trainer, versioned_root):
        chaos = ChaosEngine(seed=0).fail_reload_at("swap")
        with RecommendationService(versioned_root, chaos=chaos) as service:
            export_store(fitted_trainer, out_dir=versioned_root, versioned=True)
            with pytest.raises(SimulatedCrash):
                service.reload_store()
            assert service.store.path.name == "v0001"
            assert service.recommend(0)["degraded"] is None

    def test_reload_under_concurrent_reads_is_atomic(
        self, fitted_trainer, versioned_root
    ):
        # Readers hammer recommend() while the store is re-exported and
        # swapped; every response must be complete and healthy — built
        # from the old engine or the new one, never a mix, never an error.
        config = ServeConfig(cache_size=0, deadline_ms=0.0, top_k=3, explain_k=0)
        with RecommendationService(versioned_root, config=config) as service:
            baseline = service.recommend(0)["recommendations"]
            stop = threading.Event()
            failures = []

            def reader():
                while not stop.is_set():
                    payload = service.recommend(0)
                    if (
                        payload["degraded"] is not None
                        or payload["recommendations"] != baseline
                    ):
                        failures.append(payload)
                        return

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for t in threads:
                t.start()
            try:
                for _ in range(3):
                    export_store(
                        fitted_trainer, out_dir=versioned_root, versioned=True
                    )
                    service.reload_store()
            finally:
                stop.set()
                for t in threads:
                    t.join()
            assert not failures
            assert service.store.path.name == "v0004"

    def test_watcher_reloads_on_pointer_change(self, fitted_trainer, versioned_root):
        import time as _time

        with RecommendationService(versioned_root) as service:
            service.start_store_watcher(interval=0.05)
            export_store(fitted_trainer, out_dir=versioned_root, versioned=True)
            for _ in range(100):
                if service.store.path.name == "v0002":
                    break
                _time.sleep(0.05)
            assert service.store.path.name == "v0002"


# ----------------------------------------------------------------------
# End-to-end over HTTP: no unhandled 500s, structured errors, recovery
# ----------------------------------------------------------------------
def _get(base, path):
    """GET returning (status, headers, parsed JSON body) — errors included."""
    try:
        with urllib.request.urlopen(base + path, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(
                response.read()
            )
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), json.loads(err.read())


class TestHTTPResilience:
    @pytest.fixture()
    def chaos_server(self, store):
        chaos = (
            ChaosEngine(seed=0)
            .slow_score_at(2, seconds=0.3)
            .fail_score_at(3)
            .fail_score_at(4)
        )
        service = make_service(store, chaos=chaos, cache_size=0, deadline_ms=150.0)
        server = RecommendationServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        try:
            yield f"http://{host}:{port}", service
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=5)

    def test_no_unhandled_500s_under_chaos(self, chaos_server):
        base, service = chaos_server
        statuses = []
        for user in range(8):
            status, _, body = _get(base, f"/recommend?user={user}")
            statuses.append(status)
            assert isinstance(body, dict)
            if status != 200:
                assert "error" in body
            else:
                assert "degraded" in body
        assert set(statuses) <= {200, 503, 504}
        assert 200 in statuses  # degraded rungs kept answering

    def test_degraded_labelling_and_breaker_in_healthz(self, chaos_server):
        base, service = chaos_server
        _get(base, "/recommend?user=0")  # call 1: healthy
        degraded = [
            _get(base, f"/recommend?user={u}")[2] for u in (1, 2, 3)
        ]  # slow, fail, fail → breaker (threshold 2) opens
        assert any(body.get("degraded") == "popularity" for body in degraded)
        status, _, health = _get(base, "/healthz")
        assert status == 200
        assert health["breaker"]["state"] == "open"
        assert health["status"] == "degraded"

    def test_deadline_param_bounds_request(self, store):
        chaos = ChaosEngine(seed=0).slow_score_at(1, seconds=0.5, times=None)
        service = make_service(store, chaos=chaos, cache_size=0, stale_on_error=False)
        server = RecommendationServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        base = f"http://{host}:{port}"
        try:
            import time as _time

            start = _time.monotonic()
            status, _, body = _get(base, "/recommend?user=0&deadline_ms=100")
            elapsed = _time.monotonic() - start
            # Answered (degraded) well before the 0.5s stall would allow.
            assert status == 200 and body["degraded"] == "popularity"
            assert elapsed < 0.45
            status, _, body = _get(base, "/recommend?user=0&deadline_ms=bogus")
            assert status == 400 and "error" in body
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=5)

    def test_shed_requests_get_503_with_retry_after(self, store):
        service = make_service(store, max_inflight=1)
        server = RecommendationServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        base = f"http://{host}:{port}"
        try:
            service.admission.acquire()  # occupy the only slot
            try:
                status, headers, body = _get(base, "/recommend?user=0")
            finally:
                service.admission.release(0.01)
            assert status == 503
            assert float(headers["Retry-After"]) > 0
            assert body["reason"] == "queue depth"
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=5)

    def test_reload_endpoint(self, fitted_trainer, versioned_root):
        service = RecommendationService(versioned_root)
        server = RecommendationServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        base = f"http://{host}:{port}"
        try:
            export_store(fitted_trainer, out_dir=versioned_root, versioned=True)
            request = urllib.request.Request(base + "/reload", method="POST")
            with urllib.request.urlopen(request, timeout=30) as response:
                body = json.loads(response.read())
            assert body["outcome"] == "ok" and body["version"] == "v0002"
            ChaosEngine(seed=0).corrupt_store_table(
                versioned_root / "v0002", "item_bias"
            )
            (versioned_root / "CURRENT").write_text("v0002\n")
            request = urllib.request.Request(base + "/reload", method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 409
            assert json.loads(excinfo.value.read())["rolled_back"] is True
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=5)

    def test_close_drains_inflight_batches(self, store):
        # Shutdown order is service-first: queued futures resolve during
        # the batcher drain instead of erroring when the socket dies.
        service = make_service(store, cache_size=0)
        futures = [
            service.batcher.submit((user, 3, 0)) for user in range(4)
        ]
        server = RecommendationServer(("127.0.0.1", 0), service)
        server.close()
        assert all(f.done() and not f.exception() for f in futures)


# ----------------------------------------------------------------------
# Deadline-aware batcher behavior
# ----------------------------------------------------------------------
class TestBatcherDeadlines:
    def test_lone_item_dispatches_at_once(self):
        from repro.serve import MicroBatcher

        flushes = []
        batcher = MicroBatcher(
            lambda items: items,
            max_batch_size=64,
            on_flush=lambda size, reason: flushes.append((size, reason)),
        )
        try:
            # The deadline's clock never advances, so no budget can force
            # the flush: the item goes out because the queue ran empty.
            future = batcher.submit("x", deadline=Deadline(0.05, clock=FakeClock()))
            assert future.result(timeout=1.0) == "x"
            assert flushes == [(1, "drained")]
        finally:
            batcher.close()

    def test_expired_entry_fails_without_scoring(self):
        from repro.serve import MicroBatcher

        scored = []
        release = threading.Event()

        def handler(items):
            release.wait(timeout=5.0)
            scored.extend(items)
            return items

        batcher = MicroBatcher(handler, max_batch_size=1)
        try:
            # Occupy the worker so the expired entry waits for a flush.
            blocker = batcher.submit("blocker")
            clock = FakeClock()
            dead = Deadline(0.01, clock=clock)
            doomed = batcher.submit("doomed", deadline=dead)
            clock.advance(1.0)  # expire it while queued
            release.set()
            assert blocker.result(timeout=2.0) == "blocker"
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=2.0)
            assert "doomed" not in scored
        finally:
            batcher.close()

    def test_mixed_deadlines_all_served_when_budget_allows(self):
        from repro.serve import MicroBatcher

        batcher = MicroBatcher(lambda items: items, max_batch_size=8)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(
                        lambda i=i: batcher.submit(
                            i, deadline=Deadline(1.0)
                        ).result(timeout=2.0)
                    )
                    for i in range(4)
                ]
                assert sorted(f.result() for f in futures) == [0, 1, 2, 3]
        finally:
            batcher.close()
