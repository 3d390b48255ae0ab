"""``serve-http``: closed-loop load on the program's HTTP server.

Set-up (``setup_store.py`` in a child process) generates ``musics``,
fits, exports the store and records offline parity; then the server
runs in its own process (``server.py``).  Two closed-loop clients, each
sending its next request once the last one is answered and a short
seeded pause has passed, drive it over two keep-alive connections.

The request mix replays the held-out test split of the set-up's
catalog: each request asks for the author of a test review drawn
uniformly, so users are weighted by how many test reviews they wrote.
An author with no training review is a user the model never saw; such a
request goes out as an id the store does not hold and takes the
popularity fallback.  The known authors of the test split fit the
cache, so after their first request hits dominate.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from repro.obs.trace import read_events

import common
from spans import (
    recommend_ms_by_request,
    serving_metrics,
    span_table,
    spans_from_events,
    training_metrics,
)

HERE = Path(__file__).resolve().parent
CLIENTS = 2
WARMUP_S = 1.0
#: Each client pauses a seeded uniform 0..THINK_MS before each request.
#: Without it, two clients calling the service in process phase-locked
#: onto the batcher's 2 ms timer in a pattern that differed from run to
#: run, and the tail with it; cache misses here take that same path.
THINK_MS = 1.0
#: Latency is summarised per window of at least WINDOW_SIZE requests
#: (common.windows); ops_per_s, p50 and tail are medians over windows.
#: The tail is p95: a window of WINDOW_SIZE holds TAIL_BEYOND requests
#: beyond it.
WINDOW_SIZE = 200
TAIL_PCT = 95.0
TOP_K = 10  # ServeConfig().top_k, the size every answer must have
SEQUENCE = 200_000  # pre-drawn users per client, reused cyclically
CHILD_TIMEOUT = 150


def closed_loop(
    send: Callable[[int, int, int], Optional[str]],
    next_user: Callable[[int], int],
    seconds: float,
    seed: int,
) -> Tuple[List[Tuple[int, float, float]], List[str]]:
    """Run CLIENTS closed-loop clients for ``seconds``.

    ``send(client, user, rid)`` performs one request and returns None or
    a failure message.  Returns ``([(rid, latency_ms, done_at)],
    failures)``, ``done_at`` in seconds since the clients started.
    """
    rids = itertools.count()
    done: List[List[Tuple[int, float, float]]] = [[] for _ in range(CLIENTS)]
    failures: List[List[str]] = [[] for _ in range(CLIENTS)]
    began = time.perf_counter()
    deadline = began + seconds

    def client(index: int) -> None:
        think = np.random.default_rng([seed, index])
        while time.perf_counter() < deadline:
            time.sleep(think.random() * THINK_MS / 1e3)
            user, rid = next_user(index), next(rids)
            start = time.perf_counter()
            try:
                problem = send(index, user, rid)
            except Exception as exc:  # a failed request, counted, load goes on
                problem = f"user {user}: {type(exc).__name__}: {exc}"
            end = time.perf_counter()
            done[index].append((rid, (end - start) * 1e3, end - began))
            if problem:
                failures[index].append(problem)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 60)
    merged_failures = [f for per_client in failures for f in per_client]
    if any(thread.is_alive() for thread in threads):
        merged_failures.append("a client thread did not finish")
    return [r for per_client in done for r in per_client], merged_failures


def check_payload(payload: Dict, user: int, allowed: Tuple[str, ...]) -> Optional[str]:
    """None when ``payload`` is a full, healthy answer for ``user``."""
    if payload.get("degraded") is not None:
        return f"user {user}: degraded answer ({payload['degraded']})"
    if payload.get("served_from") not in allowed:
        return f"user {user}: served from {payload.get('served_from')!r}, expected {allowed}"
    if len(payload.get("recommendations", ())) != TOP_K:
        return f"user {user}: {len(payload.get('recommendations', ()))} items, expected {TOP_K}"
    return None


def parity_failures(setup: Dict, recommend: Callable[[int], Dict]) -> List[str]:
    """Served item ids must equal the offline ``recommend_items`` ids."""
    problems = []
    for user, expected in setup["parity"].items():
        try:
            served = [rec["item_id"] for rec in recommend(int(user))["recommendations"]]
        except Exception as exc:  # reported as a failed check, the run goes on
            problems.append(f"parity user {user}: {type(exc).__name__}: {exc}")
            continue
        if served != expected:
            problems.append(f"parity user {user}: served {served} != offline {expected}")
    return problems


def cache_delta(before: Dict, after: Dict) -> Dict[str, float]:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "hits": hits,
        "misses": misses,
        "evictions": after["evictions"] - before["evictions"],
        "hit_ratio": hits / max(hits + misses, 1),
    }


class Phase:
    """Tallies of one timed phase."""

    def __init__(self, records, failures, cache) -> None:
        self.records, self.failures, self.cache = records, failures, cache
        parts = common.windows([(done_at, latency) for _, latency, done_at in records], WINDOW_SIZE)
        self.latency = common.windowed(parts, TAIL_PCT)
        ends = [0.0] + [part[-1][0] for part in parts]
        self.ops_per_s = common.median(
            [len(part) / (ends[i + 1] - ends[i]) for i, part in enumerate(parts)]
        )
        problem = common.tail_failure(self.latency)
        if problem:
            self.failures.append(problem)
        self.shed = sum("HTTP 503" in f for f in failures)
        self.degraded = sum("degraded" in f for f in failures)
        self.non_2xx = sum(": HTTP " in f for f in failures)


# ---------------------------------------------------------------------------
def build_store(seed: int, work: Path, trace: bool) -> Dict:
    command = [sys.executable, str(HERE / "setup_store.py"), "--seed", str(seed), "--out", str(work)]
    subprocess.run(command + (["--trace"] if trace else []), check=True, timeout=CHILD_TIMEOUT)
    return json.loads((work / "setup.json").read_text(encoding="utf-8"))


class Server:
    """The ``server.py`` child process and its stdin/stdout control channel."""

    def __init__(self, store: Path, spans: Optional[Path] = None) -> None:
        command = [sys.executable, str(HERE / "server.py"), "--store", str(store)]
        if spans is not None:
            command += ["--spans", str(spans)]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
        )
        try:
            self.port = self._read()["port"]
        except BaseException:
            self.close()
            raise

    def _read(self) -> Dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {self.proc.wait(timeout=30)}")
        return json.loads(line)

    def command(self, name: str) -> Dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> Dict:
        final = self.command("stop")
        self.proc.wait(timeout=30)
        return final

    def close(self) -> None:
        """Kill the process if it still runs, wait for it, close the pipes."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdin.close()
        self.proc.stdout.close()


def _http(seed: int, seconds: float, trace: bool, work: Path) -> Dict:
    start = time.perf_counter()
    setup = build_store(seed, work, trace)
    server = Server(work / "store")
    setup_s = time.perf_counter() - start

    known = setup["num_users"]
    rng = np.random.default_rng(seed)
    authors = np.asarray(setup["test_authors"])
    sequences = [authors[rng.integers(0, len(authors), SEQUENCE)] for _ in range(CLIENTS)]
    cursors = [itertools.count() for _ in range(CLIENTS)]
    connections: List[http.client.HTTPConnection] = []

    def next_user(client: int) -> int:
        return int(sequences[client][next(cursors[client]) % SEQUENCE])

    def get(client: int, path: str) -> Tuple[int, bytes]:
        conn = connections[client]
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            conn.close()  # reconnects on the next request
            raise

    def send(client: int, user: int, rid: int) -> Optional[str]:
        status, body = get(client, f"/recommend?user={user}&rid={rid}")
        if status != 200:
            return f"user {user}: HTTP {status} {body[:200]!r}"
        if user < known:
            return check_payload(json.loads(body), user, ("cache", "model"))
        return check_payload(json.loads(body), user, ("fallback",))

    def timed(server: Server) -> Phase:
        connections[:] = [
            http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            for _ in range(CLIENTS)
        ]
        try:
            closed_loop(send, next_user, WARMUP_S, seed)
            server.command("clear")
            gc.collect()
            before = server.command("stats")
            records, failures = closed_loop(send, next_user, seconds, seed)
            cache = cache_delta(before, server.command("stats"))
            return Phase(records, failures, cache)
        finally:
            for conn in connections:
                conn.close()

    def recommend(user: int) -> Dict:
        status, body = get(0, f"/recommend?user={user}")
        if status != 200:
            raise RuntimeError(f"parity request for user {user}: HTTP {status}")
        return json.loads(body)

    traced = server_spans = None
    try:
        plain = timed(server)
        connections[0] = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        parity = parity_failures(setup, recommend)
        connections[0].close()
        peak_rss_mb = server.stop()["peak_rss_mb"]
        if trace:
            server.close()
            server = Server(work / "store", spans=work / "server_spans.jsonl")
            traced = timed(server)
            server.stop()
            server_spans = spans_from_events(read_events(work / "server_spans.jsonl"))
    finally:
        server.close()

    transport_ms = 0.0
    if traced is not None:
        server_ms = recommend_ms_by_request(server_spans)
        transport_ms = common.median(
            [latency - server_ms[rid] for rid, latency, _ in traced.records if rid in server_ms]
        )
    return dict(setup=setup, setup_s=setup_s, plain=plain, traced=traced, spans=server_spans,
                parity=parity, peak_rss_mb=peak_rss_mb, transport_ms=transport_ms)


# ---------------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, root: Path) -> common.Outcome:
    out = common.Outcome()
    scratch = root / ".perfbench_tmp"
    work = scratch / f"serve-http-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        result = _http(seed, seconds, trace, work)
        setup_spans = (
            spans_from_events(read_events(work / "setup_spans.jsonl")) if trace else None
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    setup, plain = result["setup"], result["plain"]
    out.attempted += len(plain.records) + len(setup["parity"])
    out.failures.extend(plain.failures + result["parity"])
    out.metrics.update(
        setup_s=result["setup_s"],
        ops_per_s=plain.ops_per_s,
        p50_ms=plain.latency["p50"],
        tail_ms=plain.latency["tail"],
        peak_rss_mb=result["peak_rss_mb"],
    )
    authors = setup["test_authors"]
    out.record.update(
        {key: setup[key] for key in ("catalog", "scale", "epochs", "num_users", "num_items", "train_reviews")},
        clients=CLIENTS,
        request_mix="test-split authors, uniform over test reviews",
        unknown_share=sum(user >= setup["num_users"] for user in authors) / len(authors),
        requests=len(plain.records),
        **{key: plain.latency[key] for key in ("tail_pct", "tail_beyond", "window_samples", "windows")},
        cache_hit_ratio=plain.cache["hit_ratio"],
        cache=plain.cache,
    )

    traced: Optional[Phase] = result["traced"]
    if traced is not None:
        out.attempted += len(traced.records)
        out.failures.extend(traced.failures)
        out.layers.update(training_metrics(setup_spans))
        out.layers.update(serving_metrics(result["spans"]))
        out.layers.update({
            "serve.cache.hit_ratio": traced.cache["hit_ratio"],
            "serve.cache.evictions": traced.cache["evictions"],
            "serve.service.shed": traced.shed,
            "serve.service.degraded": traced.degraded,
            "serve.http.transport_ms": result["transport_ms"],
            "serve.http.non_2xx": traced.non_2xx,
            "trace.overhead_ratio": traced.ops_per_s / plain.ops_per_s,
        })
        out.record["span_table"] = span_table(setup_spans) + span_table(result["spans"])
    return out
