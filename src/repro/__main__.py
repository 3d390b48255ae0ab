"""Command-line interface: regenerate any paper artifact, or run one
profiled training run.

Usage::

    python -m repro table3                 # Table III at default scale
    python -m repro fig2 --scale 0.5       # Fig. 2 data
    python -m repro all --seeds 3          # everything
    python -m repro list                   # show available experiments
    python -m repro train --dataset yelpchi --epochs 6 \
        --profile --report-json out.json   # telemetry: RunReport JSON
    python -m repro train --events run.jsonl  # + traced spans & metrics
    python -m repro train --checkpoint-dir ckpts \
        --checkpoint-every 1               # fault-tolerant: atomic checkpoints
    python -m repro train --checkpoint-dir ckpts --resume  # continue a run
    python -m repro watch run.jsonl        # render the event stream
    python -m repro watch run.jsonl --follow  # live-tail a running fit
    python -m repro analyze                # all five static-analysis passes
    python -m repro analyze --lint src/repro  # repo discipline linter only
    python -m repro analyze --shapes --graph  # config + autograd validation
    python -m repro analyze --concurrency  # lock-discipline lint (LOCK001-004)
    python -m repro analyze --concurrency --dynamic  # + race-detector exercise
    python -m repro plan                   # list the fused layers of the model
    python -m repro plan --explain         # + inferred shapes and per-call scratch
    python -m repro export-embeddings --out store/  # train + export serving store
    python -m repro serve --store store/ --port 8080  # online top-K HTTP API

``train`` fits RRRE once with full telemetry (per-layer forward/backward
timings, gradient norms, phase timers — see ``docs/observability.md``)
and prints the run report; ``--report-json`` writes the same report as
schema-stable JSON.  ``--events`` additionally streams structured trace
events (spans, epoch records, health alerts) to a JSONL file and dumps
the metrics registry in Prometheus text format next to it.  ``watch``
renders such an event file as a live status board.  For table/figure
experiments ``--report-json`` dumps the regenerated artifact's raw
numbers instead.

``plan`` prints the fused layers every RRRE model trains and predicts
on (see ``docs/execution_plan.md``) — the BiLSTM review encoders and
the attention softmax, and with ``--explain`` the inferred output
shapes plus each layer's per-call scratch.

``analyze`` runs the static-analysis suite (see ``docs/analysis.md``):
symbolic shape validation of the default config, autograd-graph
validation of one real forward, finite-difference gradient checks of
every ``repro.nn`` layer, the repo discipline linter, and the
lock-discipline pass over the threaded runtime.  Pick passes with
``--shapes/--graph/--gradcheck/--lint/--concurrency`` (default: all
five); ``--concurrency --dynamic`` additionally runs the Eraser-style
race-detection exercise.  The exit code is non-zero when any selected
pass fails.

``export-embeddings`` fits RRRE and factors the trained model into a
serving-ready embedding store (see ``docs/serving.md``); ``serve``
loads such a store and answers ``/recommend`` / ``/explain`` /
``/healthz`` / ``/metrics`` over HTTP without ever re-encoding review
text.  The full subcommand catalogue, with one-line descriptions, is in
``python -m repro --help`` (driven by :data:`SUBCOMMANDS`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional

#: experiment name → (``repro.eval`` runner name, accepts_seeds).  Runners
#: resolve in :func:`run_one`, so ``serve`` and ``list`` never import the
#: experiment code.
EXPERIMENTS: Dict[str, tuple] = {
    "table2": ("run_table2", False),
    "table3": ("run_table3", True),
    "table4": ("run_table4", True),
    "table5": ("run_table5", True),
    "table6": ("run_table6", True),
    "table7": ("run_table7", False),
    "table8": ("run_table8", False),
    "fig2": ("run_fig2", False),
    "fig3": ("run_fig3", False),
    "fig4": ("run_fig4", False),
    "ablation-attention": ("run_ablation_attention", True),
    "ablation-encoder": ("run_ablation_encoder", True),
    "ablation-lambda": ("run_ablation_lambda", False),
}

#: Every subcommand with a one-line description — drives the parser's
#: choices, ``--help`` epilog, and ``list`` output, and is cross-checked
#: against the docs by ``scripts/check_docs.py``.
SUBCOMMANDS: Dict[str, str] = {
    "table2": "dataset statistics next to the paper's (Table II)",
    "table3": "bRMSE of all rating models across datasets (Table III)",
    "table4": "AUC/AP of reliability scoring across datasets (Table IV)",
    "table5": "top-K ranking quality, NDCG@k on YelpChi (Table V)",
    "table6": "top-K ranking quality, NDCG@k on CDs (Table VI)",
    "table7": "case study: rating→reliability re-ranked top-K (Table VII)",
    "table8": "case study: reliable explanations for one item (Table VIII)",
    "fig2": "training curves per embedding size k (Fig. 2)",
    "fig3": "user input size s_u sweep (Fig. 3)",
    "fig4": "item input size s_i sweep (Fig. 4)",
    "ablation-attention": "ablate the review-attention module",
    "ablation-encoder": "swap the review text encoder variants",
    "ablation-lambda": "sweep the rating/reliability loss weight",
    "all": "regenerate every table and figure in sequence",
    "list": "print this subcommand catalogue and exit",
    "train": "one telemetry-enabled RRRE fit (profiling, events, checkpoints)",
    "watch": "render a trace event file as a live status board",
    "analyze": "static-analysis suite: shapes, graph, gradcheck, lint, concurrency",
    "plan": "print the model's fused layers and their per-call scratch",
    "export-embeddings": "fit RRRE and export the serving embedding store",
    "serve": "HTTP recommendation API over an exported store",
}


def _catalogue() -> str:
    """The ``--help`` epilog: every subcommand with its description."""
    width = max(len(name) for name in SUBCOMMANDS)
    lines = ["subcommands:"]
    for name in sorted(SUBCOMMANDS):
        lines.append(f"  {name:<{width}}  {SUBCOMMANDS[name]}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of the RRRE paper (ICDE 2021), "
        "or run the training/analysis/serving entry points.",
        epilog=_catalogue(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        metavar="subcommand",
        choices=sorted(SUBCOMMANDS),
        help="what to run (catalogue below)",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="event file for 'watch' (JSONL written by train --events), "
        "or the lint target for 'analyze --lint' (default: src/repro)",
    )
    parser.add_argument("--scale", type=float, default=0.5, help="dataset scale")
    parser.add_argument("--seeds", type=int, default=2, help="number of seeds")
    parser.add_argument("--epochs", type=int, default=12, help="RRRE epochs")
    parser.add_argument(
        "--dataset",
        default="yelpchi",
        help="dataset preset for 'train' (see repro.data.DATASET_NAMES)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the per-layer forward/backward profile after the run",
    )
    parser.add_argument(
        "--report-json",
        metavar="PATH",
        default=None,
        help="write the run report (or experiment data) as JSON to PATH",
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="for 'train': stream trace events (spans, epochs, health) to a JSONL file",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="for 'train': write the metrics registry in Prometheus text format "
        "(default: <events>.prom when --events is given)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="for 'train': write atomic training checkpoints to DIR and "
        "enable the divergence guard (see docs/resilience.md)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="for 'train': resume from the newest intact checkpoint in "
        "--checkpoint-dir and continue to a result identical to an "
        "uninterrupted run",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="for 'train': checkpoint every N epochs (default 1)",
    )
    parser.add_argument(
        "--shapes",
        action="store_true",
        help="for 'analyze': symbolic shape check of the default config",
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help="for 'analyze': autograd-graph validation of one real forward",
    )
    parser.add_argument(
        "--gradcheck",
        action="store_true",
        help="for 'analyze': finite-difference gradient checks of every layer",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="for 'analyze': run the repo discipline linter (rules: "
        "RNG001/RNG002/TIME001/DTYPE001/MUT001/MUT002)",
    )
    parser.add_argument(
        "--concurrency",
        action="store_true",
        help="for 'analyze': lock-discipline lint of the threaded runtime "
        "(rules: LOCK001/LOCK002/LOCK003/LOCK004)",
    )
    parser.add_argument(
        "--dynamic",
        action="store_true",
        help="for 'analyze --concurrency': additionally run the Eraser-style "
        "dynamic race-detection exercise over the instrumented serving "
        "classes (implies --concurrency)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="for 'plan': also print inferred shapes and the per-call "
        "scratch of every fused layer",
    )
    parser.add_argument(
        "--follow",
        action="store_true",
        help="for 'watch': keep tailing the event file until run_end",
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="for 'watch --follow': poll interval in seconds",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="for 'export-embeddings': store output directory "
        "(default: stores/<dataset>)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="for 'export-embeddings': dataset/model seed (default 0)",
    )
    parser.add_argument(
        "--versioned",
        action="store_true",
        help="for 'export-embeddings': publish into a versioned root "
        "(vNNNN/ + manifest + CURRENT pointer; enables hot-reload)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="for 'serve': exported embedding-store directory or "
        "versioned root (required)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="for 'serve': bind address"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="for 'serve': bind port (0 = ephemeral, printed at startup)",
    )
    parser.add_argument(
        "--top-k",
        type=int,
        default=10,
        help="for 'serve': default recommendations per request",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="for 'serve': most requests scored in one micro-batch",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="for 'serve': result-cache entries (0 disables caching)",
    )
    parser.add_argument(
        "--cache-ttl",
        type=float,
        default=30.0,
        help="for 'serve': result-cache time-to-live in seconds",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=250.0,
        help="for 'serve': default per-request deadline in milliseconds "
        "(0 disables deadlines)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="for 'serve': admission bound on concurrent requests "
        "(excess load is shed with 503 + Retry-After)",
    )
    parser.add_argument(
        "--watch-store",
        type=float,
        metavar="SECONDS",
        default=0.0,
        help="for 'serve': poll the versioned root's CURRENT pointer at "
        "this interval and hot-reload on change (0 disables)",
    )
    return parser


def run_one(
    name: str,
    scale: float,
    seeds: int,
    epochs: int,
    report_json: Optional[str] = None,
) -> None:
    """Run one registered experiment; optionally dump its data as JSON."""
    import inspect

    from . import eval as experiments

    runner_name, accepts_seeds = EXPERIMENTS[name]
    runner = getattr(experiments, runner_name)
    signature = inspect.signature(runner)
    has_var_kwargs = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in signature.parameters.values()
    )
    accepted = set(signature.parameters)
    kwargs = {"scale": scale}
    if has_var_kwargs or "epochs" in accepted:
        kwargs["epochs"] = epochs
    if accepts_seeds and (has_var_kwargs or "seeds" in accepted):
        kwargs["seeds"] = tuple(range(seeds))
    report = runner(**kwargs)
    print(report.rendered)
    print()
    if report_json:
        from .obs.report import SCHEMA_VERSION, _jsonable

        payload = {
            "schema_version": SCHEMA_VERSION,
            "experiment": name,
            "params": kwargs,
            "data": _jsonable(report.data),
            "rendered": report.rendered,
        }
        with open(report_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {report_json}")


def run_all(scale: float, seeds: int, epochs: int) -> None:
    """Every experiment, with Tables III-VI from one set of fits."""
    from . import eval as experiments

    seeded = experiments.run_tables3to6(
        seeds=tuple(range(seeds)), scale=scale, epochs=epochs
    )
    for name in sorted(EXPERIMENTS):
        if name in seeded:
            print(seeded[name].rendered)
            print()
        else:
            run_one(name, scale, seeds, epochs)


def run_train(
    dataset_name: str,
    scale: float,
    epochs: int,
    profile: bool,
    report_json: Optional[str],
    events: Optional[str] = None,
    metrics_path: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    checkpoint_every: int = 1,
) -> None:
    """One telemetry-enabled RRRE fit; prints (and optionally writes) the report.

    With ``events`` the whole run — dataset generation, every epoch, the
    final evaluation, and a sample recommendation — is traced to a JSONL
    event stream, and the metrics registry is dumped in Prometheus text
    format (``metrics_path``, default ``<events>.prom``).

    ``checkpoint_dir`` turns on the fault-tolerant runtime (see
    ``docs/resilience.md``): atomic checkpoints every
    ``checkpoint_every`` epochs plus the divergence guard; ``resume``
    continues from the newest intact checkpoint in that directory.
    """
    import contextlib

    from .core import RRRETrainer, fast_config, recommend_items
    from .data import load_dataset, train_test_split
    from .obs import Tracer, use_tracer

    tracer = Tracer(events) if events else None
    scope = use_tracer(tracer) if tracer else contextlib.nullcontext()
    try:
        with scope:
            dataset = load_dataset(dataset_name, seed=0, scale=scale)
            train, test = train_test_split(dataset, seed=0)
            trainer = RRRETrainer(fast_config(epochs=epochs))
            trainer.fit(
                dataset,
                train,
                test,
                verbose=bool(checkpoint_dir),
                telemetry=True,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
                checkpoint_every=checkpoint_every,
                guard=bool(checkpoint_dir),
            )
            # Exercise the re-ranking path so the trace carries rank spans.
            recommend_items(trainer, user_id=0, top_k=5)
    finally:
        if tracer is not None:
            tracer.close()
    report = trainer.report
    print(report.render(top_layers=20 if profile else 8))
    if events and not metrics_path:
        metrics_path = events + ".prom"
    if metrics_path and trainer.metrics_registry is not None:
        trainer.metrics_registry.save_prometheus(metrics_path)
        print(f"\nwrote {metrics_path}")
    if events:
        print(f"wrote {events}")
    if report_json:
        path = report.save(report_json)
        print(f"\nwrote {path}")


def run_plan(
    dataset_name: str,
    scale: float,
    explain: bool = False,
    report_json: Optional[str] = None,
) -> int:
    """Print the fused layers of the default model.

    Builds the same model ``train`` would fit (vocabulary and entity
    counts come from the dataset preset) and prints one line per
    :class:`repro.nn.BiLSTM` / :class:`repro.nn.ReviewAttention` from its
    ``describe(batch, length)``, at the config's batch size and review
    length.  ``explain`` adds the inferred output shapes and the
    per-call scratch of each layer, and a trailer with their total.
    """
    from .core import RRRETrainer, fast_config
    from .data import load_dataset, train_test_split
    from .nn import BiLSTM, ReviewAttention

    trainer = RRRETrainer(fast_config())
    dataset = load_dataset(dataset_name, seed=0, scale=scale)
    train, _ = train_test_split(dataset, seed=0)
    trainer._prepare(dataset, train)
    batch, length = trainer.config.batch_size, trainer.config.max_len
    entries = [
        {"path": path, **module.describe(batch, length)}
        for path, module in trainer.model.named_modules()
        if isinstance(module, (BiLSTM, ReviewAttention))
    ]
    scratch = sum(row[2] for entry in entries for row in entry["scratch"])
    lines = [f"execution plan: {len(entries)} fused module(s) [B={batch}, L={length}]"]
    width = max((len(entry["path"]) for entry in entries), default=0)
    for entry in entries:
        lines.append(f"  {entry['path']:<{width}}  [{entry['kind']}] {entry['summary']}")
        if explain:
            pad = f"  {'':<{width}}    "
            lines.extend(f"{pad}out: {spec}" for spec in entry["out"])
            lines.extend(
                f"{pad}scratch: {names} ({','.join(map(str, shape))}) {nbytes:,} B, {role}"
                for names, shape, nbytes, role in entry["scratch"]
            )
    lines.append(f"per-call scratch at B={batch}, L={length}: {scratch:,} bytes")
    lines.append(
        "safety: outputs and scratch fresh per call, freed with the tape; "
        "parameter/input version counters re-checked at backward, at most "
        "one backward per forward (PlanSafetyError — see "
        "docs/execution_plan.md)"
    )
    print("\n".join(lines))
    if report_json:
        from .obs.report import SCHEMA_VERSION, _jsonable

        payload = {
            "schema_version": SCHEMA_VERSION,
            "dataset": dataset_name,
            "stats": {
                "modules": len(entries),
                "kinds": sorted({entry["kind"] for entry in entries}),
                "scratch_bytes": scratch,
            },
            "entries": _jsonable(entries),
        }
        with open(report_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {report_json}")
    return 0


def run_analyze(
    shapes: bool,
    graph: bool,
    gradcheck: bool,
    lint: bool,
    concurrency: bool = False,
    dynamic: bool = False,
    path: Optional[str] = None,
    report_json: Optional[str] = None,
) -> int:
    """Run the selected static-analysis passes (all five when none given).

    Prints one summary block per pass and returns a non-zero exit code
    when any selected pass fails, so CI can gate on it.  ``path`` is the
    lint target (default ``src/repro``); ``report_json`` writes the full
    machine-readable results.  ``dynamic`` implies ``concurrency`` and
    adds the instrumented race-detection exercise to that pass.
    """
    from .analysis import (
        PreflightError,
        analyze_concurrency,
        check_shapes,
        lint_paths,
        preflight,
        run_layer_gradchecks,
    )
    from .core.config import RRREConfig

    if dynamic:
        concurrency = True
    if not (shapes or graph or gradcheck or lint or concurrency):
        shapes = graph = gradcheck = lint = concurrency = True
    passes: Dict[str, dict] = {}
    failed = []

    if shapes:
        report = check_shapes(RRREConfig(), strict=False)
        passes["shapes"] = report.to_dict()
        if report.ok:
            print(f"shapes: OK ({len(report.shapes)} named activations)")
            for name, spec in report.shapes.items():
                print(f"  {name:24s} {spec}")
        else:
            print(f"shapes: FAIL\n  {report.error}")
            failed.append("shapes")

    if graph:
        from .core import RRRETrainer
        from .data import load_dataset, train_test_split

        trainer = RRRETrainer(RRREConfig(epochs=1))
        dataset = load_dataset("yelpchi", seed=0, scale=0.1)
        train, _ = train_test_split(dataset, seed=0)
        trainer._prepare(dataset, train)
        try:
            result = preflight(trainer.model, trainer.slots, trainer.table, mode="strict")
            info = result["graph"]
            print(
                f"graph: OK ({info['num_nodes']} tape nodes, "
                f"{info['reachable_parameters']}/{info['num_parameters']} "
                f"parameters reachable, {len(info['issues'])} warning(s))"
            )
            passes["graph"] = result
        except PreflightError as err:
            print(f"graph: FAIL\n  {err}")
            passes["graph"] = {"ok": False, "error": str(err)}
            failed.append("graph")

    if gradcheck:
        results = run_layer_gradchecks(max_elements=50)
        passes["gradcheck"] = {name: r.to_dict() for name, r in results.items()}
        bad = [name for name, r in results.items() if not r.ok]
        worst = max(r.max_rel_err for r in results.values())
        if bad:
            print(f"gradcheck: FAIL ({', '.join(sorted(bad))})")
            for name in sorted(bad):
                for failure in results[name].failures[:3]:
                    print(f"  {name}: {failure}")
            failed.append("gradcheck")
        else:
            print(
                f"gradcheck: OK ({len(results)} layers, "
                f"max relative error {worst:.3g})"
            )

    if lint:
        target = path or "src/repro"
        report = lint_paths([target])
        passes["lint"] = report.to_dict()
        if report.ok:
            print(f"lint: OK ({report.files_checked} files under {target})")
        else:
            print(f"lint: FAIL ({len(report.violations)} violation(s))")
            for violation in report.violations:
                print(f"  {violation}")
            failed.append("lint")

    if concurrency:
        target = path or "src/repro"
        result = analyze_concurrency(target, dynamic=dynamic)
        passes["concurrency"] = result
        models = sum(len(m) for m in result["models"].values())
        if not result["violations"]:
            print(
                f"concurrency: OK ({result['files_checked']} files, "
                f"{models} lock model(s), 0 LOCK violations)"
            )
        else:
            print(f"concurrency: FAIL ({len(result['violations'])} violation(s))")
            for violation in result["violations"]:
                print(
                    f"  {violation['path']}:{violation['line']}:{violation['col']}: "
                    f"{violation['rule']} {violation['message']}"
                )
        if not result["ok"]:
            failed.append("concurrency")
        if dynamic:
            dyn = result["dynamic"]
            check = dyn["self_check"]
            print(
                f"  dynamic: {'OK' if dyn['ok'] else 'FAIL'} "
                f"({len(dyn['races'])} candidate race(s); self-check "
                f"racy={'caught' if check['racy_class_detected'] else 'MISSED'}, "
                f"deadlock={'caught' if check['abba_deadlock_detected'] else 'MISSED'})"
            )
            for race in dyn["races"]:
                print(f"    race: {race['class']}.{race['field']}")

    if report_json:
        from .obs.report import SCHEMA_VERSION, _jsonable

        payload = {
            "schema_version": SCHEMA_VERSION,
            "ok": not failed,
            "failed_passes": failed,
            "passes": _jsonable(passes),
        }
        with open(report_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {report_json}")
    return 1 if failed else 0


def run_export(
    dataset_name: str,
    scale: float,
    epochs: int,
    seed: int,
    out: Optional[str],
    versioned: bool = False,
) -> int:
    """Fit RRRE and export the serving embedding store to ``out``.

    The export is verified against the live model (store scores must
    match the pairwise model forward) before anything is written; the resulting
    directory is what ``python -m repro serve --store DIR`` loads.
    ``versioned=True`` publishes into ``out`` as a versioned root
    (``vNNNN/`` + SHA-256 manifest + ``CURRENT`` pointer) — the layout
    the serving hot-reload path consumes.
    """
    from .core import RRRETrainer, fast_config
    from .data import load_dataset, train_test_split
    from .serve import export_store

    out = out or f"stores/{dataset_name}"
    dataset = load_dataset(dataset_name, seed=seed, scale=scale)
    train, test = train_test_split(dataset, seed=seed)
    trainer = RRRETrainer(fast_config(epochs=epochs, seed=seed))
    trainer.fit(dataset, train, test)
    store = export_store(trainer, out_dir=out, versioned=versioned)
    where = store.path if store.path is not None else out
    print(
        f"exported store to {where}: {store.num_users} users, "
        f"{store.num_items} items, {store.num_reviews} reviews "
        f"(verified against the live model)"
    )
    return 0


def run_serve(args) -> int:
    """Serve an exported store over HTTP until interrupted."""
    from .serve import ServeConfig, make_server

    if not args.store:
        print(
            "serve needs an exported store: "
            "python -m repro serve --store stores/yelpchi",
            file=sys.stderr,
        )
        return 2
    config = ServeConfig(
        top_k=args.top_k,
        max_batch_size=args.max_batch,
        cache_size=args.cache_size,
        cache_ttl=args.cache_ttl,
        deadline_ms=args.deadline_ms,
        max_inflight=args.max_inflight,
    )
    server, service = make_server(
        args.store, host=args.host, port=args.port, config=config
    )
    if args.watch_store > 0:
        service.start_store_watcher(interval=args.watch_store)
    host, port = server.server_address
    # Flushed eagerly: with piped stdout the port announcement must be
    # visible before serve_forever blocks (scripts parse it).
    print(
        f"serving {service.store.meta.get('dataset')} store "
        f"({service.store.num_users} users, {service.store.num_items} items) "
        f"on http://{host}:{port}",
        flush=True,
    )
    print(f"try: curl 'http://{host}:{port}/recommend?user=0&k=5'", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.close()
    return 0


def main(argv=None) -> int:
    # Intermixed parsing lets the optional positional follow flags, as in
    # ``python -m repro analyze --lint src/repro``.
    args = build_parser().parse_intermixed_args(argv)
    if args.experiment == "list":
        width = max(len(name) for name in SUBCOMMANDS)
        for name in sorted(SUBCOMMANDS):
            print(f"{name:<{width}}  {SUBCOMMANDS[name]}")
        return 0
    if args.experiment == "train":
        if args.resume and not args.checkpoint_dir:
            print("--resume requires --checkpoint-dir", file=sys.stderr)
            return 2
        run_train(
            args.dataset,
            args.scale,
            args.epochs,
            args.profile,
            args.report_json,
            events=args.events,
            metrics_path=args.metrics,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
        )
        return 0
    if args.experiment == "plan":
        return run_plan(
            args.dataset,
            args.scale,
            explain=args.explain,
            report_json=args.report_json,
        )
    if args.experiment == "analyze":
        return run_analyze(
            args.shapes,
            args.graph,
            args.gradcheck,
            args.lint,
            concurrency=args.concurrency,
            dynamic=args.dynamic,
            path=args.path,
            report_json=args.report_json,
        )
    if args.experiment == "watch":
        if not args.path:
            print("watch needs an event file: python -m repro watch run.jsonl", file=sys.stderr)
            return 2
        from .obs.watch import watch

        return watch(args.path, follow=args.follow, poll=args.poll)
    if args.experiment == "export-embeddings":
        return run_export(
            args.dataset, args.scale, args.epochs, args.seed, args.out,
            versioned=args.versioned,
        )
    if args.experiment == "serve":
        return run_serve(args)
    if args.experiment == "all":
        if args.report_json:
            print("--report-json needs a single experiment (not 'all')", file=sys.stderr)
            return 2
        run_all(args.scale, args.seeds, args.epochs)
        return 0
    run_one(args.experiment, args.scale, args.seeds, args.epochs, report_json=args.report_json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
