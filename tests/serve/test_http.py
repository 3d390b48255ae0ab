"""End-to-end HTTP round trips against a live in-process server."""

import http.client
import json
import statistics
import threading
import time

import pytest

from repro.serve import ServeConfig, make_server


@pytest.fixture(scope="module")
def live_server(store):
    server, service = make_server(
        store, port=0, config=ServeConfig(top_k=5, explain_k=2, min_reliability=0.0)
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


def get(server, path):
    host, port = server.server_address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def get_json(server, path):
    status, body = get(server, path)
    return status, json.loads(body)


class TestHTTPAPI:
    def test_recommend_round_trip(self, live_server, store):
        status, payload = get_json(live_server, "/recommend?user=0&k=3")
        assert status == 200
        assert payload["user_id"] == 0
        assert payload["k"] == 3
        assert payload["served_from"] in ("model", "cache")
        assert 0 < len(payload["recommendations"]) <= 3
        for rec in payload["recommendations"]:
            assert set(rec) >= {
                "item_id",
                "item_name",
                "predicted_rating",
                "predicted_reliability",
                "explanations",
            }
            for expl in rec["explanations"]:
                idx = expl["review_index"]
                assert 0 <= idx < store.num_reviews
                assert int(store.review_items[idx]) == rec["item_id"]

    def test_second_request_is_served_from_cache(self, live_server):
        get_json(live_server, "/recommend?user=1&k=2")
        status, payload = get_json(live_server, "/recommend?user=1&k=2")
        assert status == 200
        assert payload["served_from"] == "cache"

    def test_unknown_user_returns_fallback_not_error(self, live_server):
        status, payload = get_json(live_server, "/recommend?user=99999&k=2")
        assert status == 200
        assert payload["served_from"] == "fallback"
        assert payload["recommendations"]

    def test_explain_round_trip(self, live_server, store):
        status, payload = get_json(live_server, "/explain?item=0&k=2")
        assert status == 200
        assert payload["item_id"] == 0
        assert payload["item_name"] == store.item_name(0)

    def test_missing_required_param_is_400(self, live_server):
        status, payload = get_json(live_server, "/recommend")
        assert status == 400
        assert "user" in payload["error"]

    def test_non_integer_param_is_400(self, live_server):
        status, payload = get_json(live_server, "/recommend?user=abc")
        assert status == 400
        assert "integer" in payload["error"]

    def test_unknown_item_is_404(self, live_server):
        status, payload = get_json(live_server, "/explain?item=99999")
        assert status == 404
        assert "error" in payload

    def test_unknown_path_is_404(self, live_server):
        status, payload = get_json(live_server, "/nope")
        assert status == 404

    def test_healthz(self, live_server, store):
        status, payload = get_json(live_server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["users"] == store.num_users

    def test_metrics_exposition(self, live_server):
        status, body = get(live_server, "/metrics")
        assert status == 200
        text = body.decode("utf-8")
        for family in (
            "repro_serve_requests_total",
            "repro_serve_request_seconds",
            "repro_serve_cache_events_total",
            "repro_serve_store_rows",
        ):
            assert family in text
        assert "# TYPE repro_serve_requests_total counter" in text


class TestKeepAlive:
    def test_keep_alive_round_trips_do_not_stall(self, live_server):
        # A response written as headers and body in two segments waits
        # ~40 ms on each keep-alive round trip for the client's delayed
        # ACK (Nagle's algorithm holds the second segment).
        host, port = live_server.server_address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        paths = {
            "/healthz": lambda i: "/healthz",
            "/recommend": lambda i: f"/recommend?user={i % 5}&k=3",
            "/metrics": lambda i: "/metrics",
            "/nope": lambda i: "/nope",
        }
        medians = {}
        try:
            for name, path in paths.items():
                round_trips = []
                for i in range(12):
                    start = time.perf_counter()
                    conn.request("GET", path(i))
                    response = conn.getresponse()
                    response.read()
                    round_trips.append(time.perf_counter() - start)
                    assert response.status == (404 if name == "/nope" else 200)
                medians[name] = statistics.median(round_trips) * 1e3
        finally:
            conn.close()
        assert all(ms < 10.0 for ms in medians.values()), medians

    def test_explain_k_bounds(self, live_server):
        status, payload = get_json(live_server, "/explain?item=0&k=0")
        assert status == 200
        assert payload["explanations"] == []
        status, payload = get_json(live_server, "/explain?item=0&k=-1")
        assert status == 400
        assert "k must be >= 0" in payload["error"]
