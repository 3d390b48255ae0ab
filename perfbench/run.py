"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-http --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in its own process.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced phase (see ``perfbench/README.md``).  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is non-zero when any correctness check
failed.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported here or in any child process: with
# 2 cores, a multi-threaded BLAS fights the serving threads and made the
# first training epoch ~50% slower than the rest.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("train-yelp", "serve-http")

#: End-to-end metrics, on every workload: name -> (unit, what it is).
END_TO_END = {
    "setup_s": ("s", "set-up wall time (median of repeats on train-yelp)"),
    "ops_per_s": ("1/s", "training reviews/s of fit, or completed requests/s"),
    "p50_ms": ("ms", "median request latency (offline recommend_items on train-yelp)"),
    "tail_ms": ("ms", "p90 on train-yelp, p95 on serve-http, median over windows"),
    "peak_rss_mb": ("MB", "peak RSS of the process doing the measured work"),
}

#: train-yelp only, so printed and checked but not in the gated set
#: (which every workload must report).  bRMSE and AUC are also too
#: seed-dependent to gate: with 3 epochs the model seed alone moves
#: bRMSE by ~15% (IQR/median over 8 seeds on fixed data).
TRAIN_ONLY = {
    "eval_pairs_per_s": ("1/s", "predict_pairs throughput over the test split"),
    "export_s": ("s", "export_store wall time, parity check included"),
    "brmse": ("stars", "reliability-weighted rating RMSE on the test split"),
    "auc": ("1", "reliability AUC on the test split"),
}

#: Per-layer metrics: name -> (unit, layer, end-to-end metric it should move).
LAYERS = {
    "data.generate_s": ("s", "repro.data", "setup_s on all"),
    "text.table_build_s": ("s", "repro.data.sampling", "ops_per_s train-yelp; setup_s serve-http"),
    "text.skipgram_s": ("s", "repro.text", "ops_per_s train-yelp"),
    "core.steps": ("count", "repro.core", "(normalises the per-step rows)"),
    "core.forward_ms": ("ms", "repro.core model", "ops_per_s train-yelp"),
    "core.forward_self_ms": ("ms", "repro.core model", "ops_per_s train-yelp"),
    "core.encoder_ms": ("ms", "repro.core encoder", "ops_per_s train-yelp"),
    "core.attention_ms": ("ms", "repro.core nets", "ops_per_s train-yelp"),
    "nn.backward_ms": ("ms", "repro.nn", "ops_per_s train-yelp"),
    "nn.optim_ms": ("ms", "repro.nn", "ops_per_s train-yelp"),
    "core.predict_pairs_s": ("s", "repro.core trainer", "p50_ms, eval_pairs_per_s train-yelp"),
    "core.predict_pairs": ("count", "repro.core trainer", "p50_ms, eval_pairs_per_s train-yelp"),
    "core.predict_pairs_per_s": ("1/s", "repro.core trainer", "p50_ms, peak_rss_mb train-yelp"),
    "serve.store.export_s": ("s", "serve.store", "export_s train-yelp"),
    "serve.store.load_s": ("s", "serve.store", "setup_s serve-http"),
    "serve.store.score_ms": ("ms", "serve.store", "p50_ms serve-http (misses)"),
    "serve.cache.hit_ratio": ("1", "serve.cache", "p50_ms, ops_per_s serve-http"),
    "serve.cache.evictions": ("count", "serve.cache", "p50_ms serve-http"),
    "serve.batcher.wait_ms": ("ms", "serve.batcher", "p50_ms serve-http (misses)"),
    "serve.batcher.wait_tail_ms": ("ms", "serve.batcher", "tail_ms serve-http (misses)"),
    "serve.batcher.batch_size": ("count", "serve.batcher", "p50_ms, tail_ms serve-http"),
    "serve.retrieval.batch_ms": ("ms", "serve.retrieval", "p50_ms, ops_per_s serve-http"),
    "serve.retrieval.explain_ms": ("ms", "serve.retrieval", "p50_ms, ops_per_s serve-http"),
    "serve.service.recommend_ms": ("ms", "serve.service", "p50_ms serve-http"),
    "serve.service.shed": ("count", "serve.resilience", "failed ops serve-http"),
    "serve.service.degraded": ("count", "serve.resilience", "failed ops serve-http"),
    "serve.http.transport_ms": ("ms", "serve.http", "p50_ms, tail_ms serve-http"),
    "serve.http.non_2xx": ("count", "serve.http", "failed ops serve-http"),
    "trace.overhead_ratio": ("1", "benchmark", "none (checks the trace itself)"),
}


def environment() -> dict:
    """What makes two runs comparable: versions, cores, BLAS, source."""
    import numpy

    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a git repo
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    try:
        if workload == "train-yelp":
            import train_yelp

            out = train_yelp.run(seed, seconds, trace)
        else:
            import serve_load

            out = serve_load.run(seed, seconds, trace, ROOT)
    except Exception:  # the run itself broke: report it as one failed op
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    failed = len(out.failures)
    record = dict(workload=workload, seed=seed, seconds=seconds, trace=trace)
    record.update(environment())
    record.update(out.record)
    span_rows = record.pop("span_table", [])
    record["error_rate"] = failed / max(out.attempted, 1)
    record["failures"] = out.failures[:20]

    print(f"== {workload} seed={seed} trace={int(trace)}")
    if trace:
        for name in LAYERS:  # layers this workload does not reach read 0
            out.layers.setdefault(name, 0.0)
        print(f"{'metric':30} {'value':>12} {'unit':6} {'layer':22} should move")
        for name, (unit, layer, target) in LAYERS.items():
            print(f"{name:30} {out.layers[name]:12.4f} {unit:6} {layer:22} {target}")
        print(f"{'span':28} {'calls':>8} {'total_ms':>12} {'self_ms':>12}")
        for name, calls, total, own in span_rows:
            print(f"{name:28} {calls:8d} {total:12.2f} {own:12.2f}")
        metrics = {n: {"value": out.layers[n], "unit": LAYERS[n][0]} for n in LAYERS}
    else:
        for name, (unit, _) in {**END_TO_END, **TRAIN_ONLY}.items():
            if name not in out.metrics:
                continue
            extra = ""
            if name == "tail_ms":
                extra = (
                    f"  (p{record['tail_pct']:g}, >= {record['window_samples']} samples"
                    f" and {record['tail_beyond']} beyond in each of {record['windows']}"
                    " windows; median over windows)"
                )
            print(f"{name:18} {out.metrics[name]:14.4f} {unit}{extra}")
        metrics = {n: {"value": out.metrics[n], "unit": END_TO_END[n][0]} for n in END_TO_END}
    print(f"{'error_rate':18} {record['error_rate']:14.4f} 1  ({failed}/{out.attempted})")
    for message in out.failures[:20]:
        print(f"FAILED: {message}")
    print("record " + json.dumps(record, sort_keys=True, default=float))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": out.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh process; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
