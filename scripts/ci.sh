#!/usr/bin/env bash
# CI entry point: tier-1 tests, docs lint, and a traced training smoke run.
#
# Usage: bash scripts/ci.sh        (from the repository root)
#
# Stages:
#   1. tier-1 test suite   — PYTHONPATH=src python -m pytest -x -q
#   2. docs lint           — python scripts/check_docs.py
#   3. traced smoke run    — a ~10s tiny training run with tracing and
#      metrics enabled, then a one-shot watch render; asserts the event
#      stream, the Prometheus dump, and the v2 report all materialize,
#      and that the report's phase timers (computed from the phase
#      spans) count both epochs.  The report's layer rows are layers that
#      ran (none with 0 calls), and both BiLSTM rows record backward
#      time, i.e. the profiler's probes pass the gradient on into the
#      planned layers every fit runs on.  `plan --explain` on the same
#      preset exits 0 and lists both review encoders as [bilstm] entries.
#   4. chaos recovery smoke — train with an injected mid-epoch crash,
#      resume from the surviving checkpoints (exercising the CLI
#      --checkpoint-dir/--resume path too), and assert the resumed
#      model is bitwise identical to an uninterrupted reference run.
#   5. static analysis — repo discipline lint over src/repro plus a
#      symbolic shape check of the default training config; any
#      violation fails the build (see docs/analysis.md).  The
#      concurrency pass then lints lock discipline (LOCK001-LOCK004)
#      and must report zero violations; a race-checked run of the
#      serve resilience tests (REPRO_RACE_CHECK=1) proves the
#      threaded serving layer clean under the Eraser lockset
#      detector.
#   6. serve smoke — train + export an embedding store through the CLI,
#      boot the HTTP API on an ephemeral port, issue real requests, and
#      assert 200s with well-formed JSON plus a clean shutdown (see
#      docs/serving.md).
#   7. serve-chaos smoke — boot a server with injected scoring faults:
#      /healthz must flip to degraded (breaker open) while the ladder
#      keeps answering with labelled degraded payloads, then recover;
#      a corrupt store version offered to hot-reload must be rejected
#      with the old store still serving (see docs/serving_resilience.md).
#   8. perfbench smoke — a 2-second traced train-yelp run must exit 0
#      and attribute time to word pretraining, training, offline
#      inference and export (text.skipgram_s, core.steps,
#      core.predict_pairs and serve.store.export_s all > 0 in its
#      final JSON line), and a 2-second serve-http run (seed 5)
#      must exit 0.  The repository benchmark (perfbench/, BENCHMARK.json)
#      wraps trainer and serving entry points by name; a refactor that
#      moves one, or routes inference around it, breaks here.
#   9. perf-regression gate — scripts/check_bench.py diffs the fresh
#      benchmarks/out/BENCH_*.json against the copies committed at HEAD
#      and fails on >1.5x latency / <0.67x throughput; artifacts the
#      bench steps have not refreshed compare equal and pass through.
#      Intentional slowdowns are waived via REPRO_BENCH_WAIVER (see the
#      script docstring and docs/execution_plan.md).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== docs lint =="
python scripts/check_docs.py

echo "== traced training smoke run =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
python -m repro train --dataset yelpchi --scale 0.15 --epochs 2 \
    --events "$SMOKE_DIR/run.jsonl" --report-json "$SMOKE_DIR/report.json" \
    > "$SMOKE_DIR/train.log"
python -m repro watch "$SMOKE_DIR/run.jsonl"
python - "$SMOKE_DIR" <<'PY'
import json, sys
from pathlib import Path

smoke = Path(sys.argv[1])
sys.path.insert(0, "src")
from repro.obs import read_events, validate_report

events = read_events(smoke / "run.jsonl")
kinds = {e["kind"] for e in events if e["event"] == "span_begin"}
missing = {"data", "epoch", "eval", "rank"} - kinds
assert not missing, f"span kinds missing from event stream: {missing}"

report = json.loads((smoke / "report.json").read_text())
problems = validate_report(report)
assert not problems, f"report failed validation: {problems}"
assert report["schema_version"] >= 2 and report["health"]["monitors"]
for phase in ("fit.epoch.train", "fit.epoch.eval"):
    count = report["timers"][phase]["count"]
    assert count == 2, f"timers[{phase!r}] counts {count} phases, expected 2"
idle = [l["name"] for l in report["layers"] if l["calls"] == 0]
assert not idle, f"layer rows with 0 calls: {idle}"
bilstm = {l["name"]: l["backward_seconds"] for l in report["layers"]
          if l["name"].endswith(".bilstm")}
assert len(bilstm) == 2, f"expected two BiLSTM layer rows, got {sorted(bilstm)}"
dead = [name for name, seconds in bilstm.items() if not seconds > 0]
assert not dead, f"planned BiLSTM rows record no backward time: {dead}"

prom = (smoke / "run.jsonl.prom").read_text()
assert "# TYPE repro_epoch_seconds histogram" in prom

print("smoke run OK:", len(events), "events,", len(kinds), "span kinds")
PY
# The compiled plan as `plan --explain` prints it: one [bilstm] entry per
# review encoder.
python -m repro plan --dataset yelpchi --scale 0.15 --explain > "$SMOKE_DIR/plan.log"
bilstm_entries=$(grep -c "\[bilstm\]" "$SMOKE_DIR/plan.log" || true)
[ "$bilstm_entries" -eq 2 ] \
    || { echo "plan --explain lists $bilstm_entries [bilstm] entries, expected 2"; exit 1; }

echo "== chaos recovery smoke =="
python - "$SMOKE_DIR" <<'PY'
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, "src")
from repro.core import RRRETrainer, fast_config
from repro.data import load_dataset, train_test_split
from repro.resilience import ChaosEngine, SimulatedCrash

ckpt_dir = Path(sys.argv[1]) / "chaos-ckpts"
dataset = load_dataset("yelpchi", seed=0, scale=0.15)
train, test = train_test_split(dataset, seed=0)

reference = RRRETrainer(fast_config(epochs=3))
reference.fit(dataset, train, test)

victim = RRRETrainer(fast_config(epochs=3))
chaos = ChaosEngine(seed=0).crash_at(epoch=2, step=2)
try:
    victim.fit(dataset, train, test, checkpoint_dir=ckpt_dir, chaos=chaos)
except SimulatedCrash:
    pass
else:
    raise AssertionError("chaos crash never fired")

resumed = RRRETrainer(fast_config(epochs=3))
resumed.fit(dataset, train, test, checkpoint_dir=ckpt_dir, resume=True)

expected = reference.model.state_dict()
actual = resumed.model.state_dict()
assert sorted(expected) == sorted(actual)
for key in expected:
    np.testing.assert_array_equal(actual[key], expected[key], err_msg=key)
assert resumed.history[-1].eval_metrics == reference.history[-1].eval_metrics
print("chaos recovery OK: resumed model bitwise-equal after injected crash")
PY
# The same resume path through the CLI flags.
python -m repro train --dataset yelpchi --scale 0.15 --epochs 2 \
    --checkpoint-dir "$SMOKE_DIR/cli-ckpts" > "$SMOKE_DIR/cli-train.log"
python -m repro train --dataset yelpchi --scale 0.15 --epochs 3 \
    --checkpoint-dir "$SMOKE_DIR/cli-ckpts" --resume > "$SMOKE_DIR/cli-resume.log"
grep -q "resumed" "$SMOKE_DIR/cli-resume.log" \
    || { echo "CLI resume did not report a restored checkpoint"; exit 1; }

echo "== static analysis =="
python -m repro analyze --lint src/repro
python -m repro analyze --shapes --report-json "$SMOKE_DIR/analysis.json"
python - "$SMOKE_DIR" <<'PY'
import json, sys
from pathlib import Path

payload = json.loads((Path(sys.argv[1]) / "analysis.json").read_text())
assert payload["ok"] and not payload["failed_passes"], payload
shapes = payload["passes"]["shapes"]["shapes"]
assert shapes["rating"] == "(B) float64", shapes
print("analysis OK:", len(shapes), "named activations validated")
PY
python -m repro analyze --concurrency

echo "== race-checked serve tests =="
REPRO_RACE_CHECK=1 python -m pytest tests/serve/test_resilience.py -q

echo "== serve smoke =="
python -m repro export-embeddings --dataset yelpchi --scale 0.15 --epochs 1 \
    --out "$SMOKE_DIR/store" > "$SMOKE_DIR/export.log"
grep -q "verified against the live model" "$SMOKE_DIR/export.log" \
    || { echo "export did not report verification"; exit 1; }
python - "$SMOKE_DIR" <<'PY'
import http.client
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, "src")
from repro.serve import make_server

server, service = make_server(Path(sys.argv[1]) / "store", port=0)
thread = threading.Thread(target=server.serve_forever, daemon=True)
thread.start()
host, port = server.server_address

conn = http.client.HTTPConnection(host, port, timeout=10)
for path, checks in [
    ("/recommend?user=0&k=3", ("user_id", "recommendations")),
    ("/explain?item=0&k=2", ("item_id", "explanations")),
    ("/healthz", ("status",)),
]:
    conn.request("GET", path)
    response = conn.getresponse()
    assert response.status == 200, (path, response.status)
    payload = json.loads(response.read())
    for key in checks:
        assert key in payload, (path, key, payload)
conn.close()

server.shutdown()
server.close()
thread.join(timeout=5.0)
assert not thread.is_alive(), "server thread failed to stop"
print(f"serve smoke OK: 3 endpoints on ephemeral port {port}, clean shutdown")
PY

echo "== serve-chaos smoke =="
python - "$SMOKE_DIR" <<'PY'
import http.client
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, "src")
from repro.resilience import ChaosEngine
from repro.serve import (
    EmbeddingStore,
    RecommendationService,
    ServeConfig,
    make_server,
)

smoke = Path(sys.argv[1])

# Republish the flat smoke store as a versioned root (reload fodder).
store = EmbeddingStore.load(smoke / "store", mmap=False)
root = smoke / "store-versions"
store.save_versioned(root)  # v0001, the version the service boots on

# Scoring calls 1-2 fail -> breaker (threshold 2) opens; later calls heal.
chaos = ChaosEngine(seed=0).fail_score_at(1).fail_score_at(2)
config = ServeConfig(cache_size=0, breaker_failures=2, breaker_reset_s=0.2)
service = RecommendationService(root, config=config, chaos=chaos)
server, _ = make_server(None, port=0, service=service)
thread = threading.Thread(target=server.serve_forever, daemon=True)
thread.start()
host, port = server.server_address


def get(path, method="GET"):
    conn = http.client.HTTPConnection(host, port, timeout=10)
    conn.request(method, path)
    response = conn.getresponse()
    payload = json.loads(response.read())
    conn.close()
    return response.status, payload


# Faulted requests: answered by the ladder, labelled, never a 500.
for user in (0, 1):
    status, payload = get(f"/recommend?user={user}&k=3")
    assert status == 200, (status, payload)
    assert payload["degraded"] == "popularity", payload["degraded"]

status, health = get("/healthz")
assert health["status"] == "degraded", health
assert health["breaker"]["state"] == "open", health["breaker"]

# After the reset window the half-open probe succeeds: health recovers.
time.sleep(0.25)
status, payload = get("/recommend?user=2&k=3")
assert status == 200 and payload["degraded"] is None, payload
status, health = get("/healthz")
assert health["status"] == "ok", health
assert health["breaker"]["state"] == "closed", health["breaker"]

# Hot-reload: a corrupted candidate must be rejected (409) with the old
# version still live; an intact pointer target must swap cleanly.
assert health["store_version"] == "v0001", health
store.save_versioned(root)  # v0002: the candidate, about to be damaged
ChaosEngine(seed=1).corrupt_store_table(root / "v0002", "item_factors")
status, payload = get("/reload", method="POST")
assert status == 409 and payload.get("rolled_back"), (status, payload)
status, health = get("/healthz")
assert health["store_version"] == "v0001", health
assert health["last_reload"]["outcome"] == "rejected", health["last_reload"]
store.save_versioned(root)  # v0003, intact; CURRENT now names it
status, payload = get("/reload", method="POST")
assert status == 200 and payload["outcome"] == "ok", (status, payload)
status, health = get("/healthz")
assert health["store_version"] == "v0003", health
status, payload = get("/recommend?user=0&k=3")
assert status == 200 and payload["degraded"] is None, payload

server.shutdown()
server.close()
thread.join(timeout=5.0)
assert not thread.is_alive(), "server thread failed to stop"
print(f"serve-chaos smoke OK: degraded->recovered, corrupt reload rejected "
      f"and rolled back on port {port}")
PY

echo "== perfbench smoke =="
python3 perfbench/run.py --workload train-yelp --seed 1 --seconds 2 --trace 1 \
    > "$SMOKE_DIR/perfbench-train.log"
tail -n 1 "$SMOKE_DIR/perfbench-train.log" | python -c '
import json, sys
metrics = json.loads(sys.stdin.read())["metrics"]
for name in ("text.skipgram_s", "core.steps", "core.predict_pairs", "serve.store.export_s"):
    value = metrics[name]["value"]
    assert value > 0, f"traced train-yelp attributed nothing to {name}: {value}"
steps = metrics["core.steps"]["value"]
print(f"perfbench train-yelp OK: {steps} traced training steps")
'
# 2 s give ~2000 requests, far more than the 10 samples beyond p95 the
# benchmark requires.  Seed 5 hits clip-floor rating ties, so it also
# checks online == offline ranking.
python3 perfbench/run.py --workload serve-http --seed 5 --seconds 2 \
    > "$SMOKE_DIR/perfbench-serve.log"
echo "perfbench serve-http OK"

echo "== perf-regression gate =="
python scripts/check_bench.py

echo "== CI green =="
