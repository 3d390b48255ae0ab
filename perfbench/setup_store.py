"""Set-up child of the serve workloads: generate, fit, export, record parity.

Run as ``python3 perfbench/setup_store.py --seed N --out DIR [--trace]``
by ``serve_load.py``, in its own process so that training never counts
toward the serving process's peak RSS.  Writes the exported store to
``DIR/store`` and ``DIR/setup.json``; with ``--trace`` also the span
events of this process to ``DIR/setup_spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from spans import Patcher, write_events  # noqa: E402

#: ~1.7k known users and ~2.3k items; the test split's ~2.4k reviews
#: come from ~0.8k of them, who fit the default cache's 1024 entries.
CATALOG, SCALE = "musics", 2.0
#: The served model only has to exist; one epoch of the small config
#: keeps set-up near 10 s.  Serving cost depends on the store's shape
#: (users, items, factors), not on how well the model is trained.
EPOCHS = 1
#: Offline parity sample, checked item for item after the timed phase.
PARITY_USERS = 8
TOP_K, FINAL_K = 50, 10


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.core import RRRETrainer, fast_config, recommend_items
    from repro.data import load_dataset, train_test_split
    from repro.serve import export_store

    patcher = Patcher().install_training() if args.trace else None
    tracer = patcher.tracer if patcher else None

    def spanned(name, fn, *a, **k):
        if tracer is None:
            return fn(*a, **k)
        with tracer.span(name):
            return fn(*a, **k)

    def generate():
        dataset = load_dataset(CATALOG, seed=args.seed, scale=SCALE)
        return dataset, *train_test_split(dataset, seed=args.seed)

    dataset, train, test = spanned("data.generate", generate)
    trainer = RRRETrainer(fast_config(epochs=EPOCHS, seed=args.seed)).fit(dataset, train)

    spanned("serve.store.export", export_store, trainer, out_dir=args.out / "store")

    # The serve request mix: one entry per test review, its author, or an
    # id past the store's users when the author wrote no training review
    # (the model never saw them: the popularity fallback answers).
    trained = np.bincount(train.user_ids, minlength=dataset.num_users) > 0
    authors = [
        int(user) if trained[user] else dataset.num_users + int(user) for user in test.user_ids
    ]

    rng = np.random.default_rng(args.seed)
    sample = rng.choice(dataset.num_users, PARITY_USERS, replace=False)
    parity = {
        str(user): [
            rec.item_id
            for rec in recommend_items(trainer, int(user), top_k=TOP_K, final_k=FINAL_K)
        ]
        for user in sample
    }

    setup = {
        "catalog": CATALOG,
        "scale": SCALE,
        "epochs": EPOCHS,
        "num_users": dataset.num_users,
        "num_items": dataset.num_items,
        "train_reviews": len(train.user_ids),
        "parity": parity,
        "test_authors": authors,
    }
    (args.out / "setup.json").write_text(json.dumps(setup), encoding="utf-8")
    if patcher is not None:
        patcher.uninstall()
        write_events(tracer, args.out / "setup_spans.jsonl")


if __name__ == "__main__":
    main()
