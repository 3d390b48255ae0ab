"""Stdlib HTTP front-end for the recommendation service.

A thin JSON API on ``http.server.ThreadingHTTPServer`` — no new
dependencies, one thread per connection, all real work delegated to the
shared (thread-safe) :class:`~repro.serve.RecommendationService`:

=============================================  ==========================
``GET /recommend?user=U[&k=K][&deadline_ms=D]`` top-K with explanations
``GET /explain?item=I[&k=K]``                   explanations for one item
``GET /healthz``                                liveness + breaker state
``GET /metrics``                                Prometheus text exposition
``POST /reload[?path=P]``                       validate + hot-swap store
=============================================  ==========================

Every failure maps to a structured JSON body ``{"error": ...}`` — never
a bare traceback or an empty 500: 400 (bad parameters), 404 (unknown
path/item), 503 + ``Retry-After`` (shed by admission control, or every
degradation rung failed), 504 (deadline blown with no rung available),
500 (anything unexpected; counted under
``repro_serve_errors_total{kind="internal"}``).

Shutdown is drain-then-close: :meth:`RecommendationServer.close` stops
the service first — the micro-batcher flushes its queue so in-flight
futures resolve — and only then closes the listening socket.

Request lifecycle, error mapping, and curl examples live in
``docs/serving.md`` and ``docs/serving_resilience.md``.  Bind port 0 for
an ephemeral port (tests, CI smoke); ``server.server_address`` reports
the bound one.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .resilience import DeadlineExceeded, ServerOverloaded, ServiceUnavailable
from .service import RecommendationService, ServeConfig
from .store import StoreCorrupt

__all__ = ["RecommendationServer", "make_server"]


class RecommendationServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` owning one service instance."""

    daemon_threads = True

    def __init__(self, address, service: RecommendationService) -> None:
        super().__init__(address, _Handler)
        self.service = service

    def close(self) -> None:
        """Drain the service (batcher flush) first, then close the socket."""
        self.service.close()
        self.server_close()


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning server's service; JSON in, JSON out."""

    server: RecommendationServer
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a response is one write (see _send), so there is
    # nothing for Nagle's algorithm to coalesce, only ACKs to wait for.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        service = self.server.service
        endpoint = parsed.path.lstrip("/") or "root"
        try:
            if parsed.path == "/recommend":
                user = self._int_param(query, "user", required=True)
                k = self._int_param(query, "k")
                explain_k = self._int_param(query, "explain_k")
                deadline_ms = self._float_param(query, "deadline_ms")
                self._send_json(
                    200, service.recommend(user, k, explain_k, deadline_ms)
                )
            elif parsed.path == "/explain":
                item = self._int_param(query, "item", required=True)
                k = self._int_param(query, "k")
                self._send_json(200, service.explain(item, k))
            elif parsed.path == "/healthz":
                self._send_json(200, service.health())
            elif parsed.path == "/metrics":
                body = service.registry.to_prometheus().encode("utf-8")
                self._send(200, body, "text/plain; version=0.0.4")
            else:
                self._send_json(404, {"error": f"unknown path {parsed.path!r}"})
        except BaseException as exc:
            self._send_error(endpoint, exc)

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        service = self.server.service
        try:
            if parsed.path == "/reload":
                path = query.get("path", [None])[0]
                summary = service.reload_store(path)
                self._send_json(200, summary)
            else:
                self._send_json(404, {"error": f"unknown path {parsed.path!r}"})
        except BaseException as exc:
            self._send_error("reload", exc)

    # ------------------------------------------------------------------
    def _send_error(self, endpoint: str, exc: BaseException) -> None:
        """Map one exception to a structured JSON error response.

        Every branch produces ``{"error": ...}`` and counts under
        ``repro_serve_errors_total{endpoint,kind}`` — no caller ever sees
        an unhandled 500 or a hung socket.
        """
        service = self.server.service
        if isinstance(exc, _BadRequest) or isinstance(exc, ValueError):
            service.record_error(endpoint, "bad_request")
            self._send_json(400, {"error": str(exc)})
        elif isinstance(exc, IndexError):
            service.record_error(endpoint, "not_found")
            self._send_json(404, {"error": str(exc)})
        elif isinstance(exc, ServerOverloaded):
            service.record_error(endpoint, "overloaded")
            self._send_json(
                503,
                {"error": str(exc), "reason": exc.reason},
                headers={"Retry-After": f"{exc.retry_after:.3f}"},
            )
        elif isinstance(exc, ServiceUnavailable):
            service.record_error(endpoint, "unavailable")
            self._send_json(
                503,
                {"error": str(exc), "reason": exc.reason},
                headers={"Retry-After": f"{exc.retry_after:.3f}"},
            )
        elif isinstance(exc, DeadlineExceeded):
            service.record_error(endpoint, "deadline")
            self._send_json(
                504, {"error": str(exc), "stage": exc.stage, "budget": exc.budget}
            )
        elif isinstance(exc, StoreCorrupt):
            # A rejected hot-reload candidate: the old store kept serving.
            service.record_error(endpoint, "store_corrupt")
            self._send_json(409, {"error": str(exc), "rolled_back": True})
        else:
            service.record_error(endpoint, "internal")
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _int_param(self, query, name: str, required: bool = False) -> Optional[int]:
        values = query.get(name)
        if not values:
            if required:
                raise _BadRequest(f"missing required query parameter {name!r}")
            return None
        try:
            return int(values[0])
        except ValueError:
            raise _BadRequest(f"{name!r} must be an integer, got {values[0]!r}")

    def _float_param(self, query, name: str) -> Optional[float]:
        values = query.get(name)
        if not values:
            return None
        try:
            return float(values[0])
        except ValueError:
            raise _BadRequest(f"{name!r} must be a number, got {values[0]!r}")

    def _send_json(
        self, status: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"), headers=headers)

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        headers: Optional[dict] = None,
    ) -> None:
        """Send status line, headers and body with one ``wfile.write``.

        ``end_headers()`` would write the headers as a segment of their
        own, and the body's segment then waited for the client's delayed
        ACK (~40 ms on every keep-alive response).  An HTTP/0.9 request
        buffers no headers and gets the bare body.
        """
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        head = b"".join(getattr(self, "_headers_buffer", ()))
        self._headers_buffer = []
        self.wfile.write(head + b"\r\n" + body if head else body)

    def log_message(self, fmt: str, *args) -> None:
        """Silence per-request stderr chatter; metrics carry the signal."""


class _BadRequest(ValueError):
    """Maps to an HTTP 400 response."""


def make_server(
    store,
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[ServeConfig] = None,
    service: Optional[RecommendationService] = None,
) -> Tuple[RecommendationServer, RecommendationService]:
    """Build a ready-to-run server; returns ``(server, service)``.

    ``store`` is an :class:`~repro.serve.EmbeddingStore` or a path to an
    exported store directory (plain or versioned root); pass a prepared
    ``service`` instead to reuse its registry/cache/chaos wiring.
    ``port=0`` binds an ephemeral port — read the actual one off
    ``server.server_address``.  Call ``server.serve_forever()`` to
    block, ``server.close()`` to stop (drains the batcher first).
    """
    if service is None:
        service = RecommendationService(store, config=config)
    server = RecommendationServer((host, port), service)
    return server, service
