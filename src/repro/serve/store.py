"""The serving embedding store: trained state factored for O(dot) scoring.

Serving answers "top-K for user u" without re-encoding a single review:
the store persists the per-entity head terms of the trainer's
:class:`repro.core.profiles.ProfileTable` (``p_u``, ``A_u``, ``a_u`` per
user, ``q_i``, ``B_i``, ``c_i`` per item — an *exact* factorization of
both heads), the per-review predicted (rating, reliability) pairs behind
explanation payloads, review metadata in CSR layout by item,
popularity statistics for the unknown-user fallback, and the review
texts and entity names as UTF-8 string columns — one ``.npy`` file per
array (memory-mappable) plus a ``meta.json`` sidecar.  Pair scores
use the same arithmetic as ``RRRETrainer.predict_pairs``
(:func:`repro.core.scoring.factored_scores`); ``export_store`` verifies
them against the pairwise model forward before writing anything.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro import __version__
from repro.core.scoring import factored_scores
from repro.resilience.checkpoint import sha256_file

#: Store layout version; bump on any array/meta schema change.  Version
#: 2 stores strings as UTF-8 columns (version 1 stored fixed-width
#: unicode arrays and must be re-exported).
STORE_VERSION = 2

#: Integrity manifest filename inside a store directory.
MANIFEST_NAME = "manifest.json"

#: Pointer file naming the live version inside a versioned store root.
CURRENT_POINTER = "CURRENT"

#: (user, item) pairs recorded in the manifest's factorization
#: parity sample (recomputed and compared on every validated load).
SCORE_SAMPLE_PAIRS = 32


class StoreCorrupt(RuntimeError):
    """A store directory failed integrity or parity validation."""

#: Array files the store writes and expects (name -> required).
_ARRAYS = (
    "user_factors",      # (U, f)  p_u — FM factor projection of z_u
    "user_bias",         # (U,)    A_u — user-only rating terms
    "user_rel",          # (U,)    a_u — user half of the reliability logit
    "item_factors",      # (I, f)  q_i
    "item_bias",         # (I,)    B_i
    "item_rel",          # (I,)    c_i
    "review_users",      # (R,)    author id per review (dataset order)
    "review_items",      # (R,)    item id per review
    "review_ratings",    # (R,)    actual rating r_ui
    "review_labels",     # (R,)    ground-truth reliability label
    "review_pred_rating",       # (R,) model rating for (author, item)
    "review_pred_reliability",  # (R,) model P(benign) for (author, item)
    "item_review_indptr",   # (I+1,) CSR: reviews of item i are indices[indptr[i]:indptr[i+1]]
    "item_review_indices",  # (R,)   CSR column: dataset review indices, time-sorted
    "user_seen_indptr",     # (U+1,) CSR: items user u reviewed in training
    "user_seen_items",      # (*,)
    "item_popularity",      # (I,)   training review count per item
    "item_mean_rating",     # (I,)   mean observed rating (fallback payload)
    "item_mean_reliability",  # (I,) mean predicted reliability of the item's reviews
    "review_texts_utf8",     # (*,)   raw review texts, UTF-8, back to back
    "review_texts_offsets",  # (R+1,) text j is review_texts_utf8[offsets[j]:offsets[j+1]]
    "user_names_utf8",       # (*,)
    "user_names_offsets",    # (U+1,)
    "item_names_utf8",       # (*,)
    "item_names_offsets",    # (I+1,)
)

#: String columns: each is a ``<name>_utf8`` uint8 blob plus int64
#: ``<name>_offsets`` (see :func:`string_column`), mapped to the row
#: count (meta key and store property) that is its length.
_STRING_COLUMNS = {
    "review_texts": "num_reviews",
    "user_names": "num_users",
    "item_names": "num_items",
}


def string_column(name: str, strings) -> Dict[str, np.ndarray]:
    """Encode ``strings`` as the two arrays of string column ``name``.

    ``<name>_utf8`` holds every string's UTF-8 bytes back to back and
    ``<name>_offsets`` (length N+1, from 0) where each one starts and
    ends.  Review text mostly ASCII takes about an eighth of the bytes of
    a fixed-width unicode array, which spends 4 bytes per character of
    the longest text.
    """
    encoded = [text.encode("utf-8") for text in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded)),
        out=offsets[1:],
    )
    return {
        f"{name}_utf8": np.frombuffer(b"".join(encoded), dtype=np.uint8),
        f"{name}_offsets": offsets,
    }


@dataclass
class EmbeddingStore:
    """In-memory (or memory-mapped) view of an exported store directory.

    Arrays are exactly the per-entity factorization described in the
    module docstring; :meth:`score_users` reconstructs full score rows
    from them.  Load with ``mmap=True`` (the default) to keep large
    tables on disk and page them in on demand.
    """

    arrays: Dict[str, np.ndarray]
    meta: Dict[str, object]
    path: Optional[Path] = None
    _rel_bias: float = field(init=False)
    _rating_range: Tuple[float, float] = field(init=False)
    _strings: Dict[str, Tuple[memoryview, np.ndarray]] = field(
        init=False, repr=False
    )

    def __post_init__(self) -> None:
        missing = [name for name in _ARRAYS if name not in self.arrays]
        if missing:
            raise ValueError(f"store is missing arrays: {missing}")
        self._rel_bias = float(self.meta["rel_bias"])
        low, high = self.meta["rating_range"]
        self._rating_range = (float(low), float(high))
        # A memoryview slices ~2x faster than a memmap and decodes
        # without a copy; neither pages in more than the slice.
        self._strings = {
            name: (
                memoryview(np.asarray(self.arrays[f"{name}_utf8"])),
                self.arrays[f"{name}_offsets"],
            )
            for name in _STRING_COLUMNS
        }

    # -- convenience accessors ----------------------------------------
    def __getattr__(self, name: str) -> np.ndarray:
        arrays = self.__dict__.get("arrays")
        if arrays is not None and name in arrays:
            return arrays[name]
        raise AttributeError(name)

    @property
    def num_users(self) -> int:
        return int(self.arrays["user_bias"].shape[0])

    @property
    def num_items(self) -> int:
        return int(self.arrays["item_bias"].shape[0])

    @property
    def num_reviews(self) -> int:
        return int(self.arrays["review_users"].shape[0])

    def knows_user(self, user_id: int) -> bool:
        """Whether ``user_id`` falls inside the exported id space."""
        return 0 <= user_id < self.num_users

    def seen_items(self, user_id: int) -> np.ndarray:
        """Item ids the user reviewed in training (CSR slice)."""
        indptr = self.arrays["user_seen_indptr"]
        return self.arrays["user_seen_items"][indptr[user_id] : indptr[user_id + 1]]

    def item_reviews(self, item_id: int) -> np.ndarray:
        """Dataset review indices of one item, time-sorted (CSR slice)."""
        indptr = self.arrays["item_review_indptr"]
        return self.arrays["item_review_indices"][indptr[item_id] : indptr[item_id + 1]]

    def review_text(self, review: int) -> str:
        """Raw text of one review (dataset order)."""
        return self._string("review_texts", review)

    def user_name(self, user_id: int) -> str:
        """Display name of one user."""
        return self._string("user_names", user_id)

    def item_name(self, item_id: int) -> str:
        """Display name of one item."""
        return self._string("item_names", item_id)

    def _string(self, column: str, row: int) -> str:
        blob, offsets = self._strings[column]
        return str(blob[offsets[row] : offsets[row + 1]], "utf-8")

    # -- scoring -------------------------------------------------------
    def score_users(self, user_ids: np.ndarray):
        """Full score rows for a batch of known users.

        Returns ``(ratings, reliabilities)`` of shape ``(B, num_items)``,
        equal to what ``RRRETrainer.predict_pairs`` would produce for
        every (u, i) pair — ratings clipped to the observed training
        range, reliabilities as P(benign).
        """
        user_ids = np.asarray(user_ids, dtype=np.int64)
        ratings = (
            self.arrays["user_factors"][user_ids] @ self.arrays["item_factors"].T
        )
        ratings += self.arrays["user_bias"][user_ids, None]
        ratings += self.arrays["item_bias"][None, :]
        np.clip(ratings, *self._rating_range, out=ratings)
        logits = (
            self.arrays["user_rel"][user_ids, None]
            + self.arrays["item_rel"][None, :]
            + self._rel_bias
        )
        reliabilities = 1.0 / (1.0 + np.exp(-logits))
        return ratings, reliabilities

    def score_pairs(self, user_ids: np.ndarray, item_ids: np.ndarray):
        """Scores for aligned (u, i) pairs (store-side ``predict_pairs``)."""
        return factored_scores(
            self.arrays, self._rel_bias, self._rating_range, user_ids, item_ids
        )

    # -- persistence ---------------------------------------------------
    def save(self, out_dir) -> Path:
        """Write one ``.npy`` per array plus ``meta.json``; returns the dir."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name in _ARRAYS:
            np.save(out / f"{name}.npy", np.ascontiguousarray(self.arrays[name]))
        (out / "meta.json").write_text(
            json.dumps(self.meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        self.path = out
        return out

    def save_versioned(
        self,
        root,
        fault_hook: Optional[Callable[[str], None]] = None,
    ) -> Path:
        """Publish this store as the next version under ``root``.

        Layout: ``root/v0001/``, ``root/v0002/``, … each a complete
        store directory with a SHA-256 :data:`MANIFEST_NAME`, plus a
        :data:`CURRENT_POINTER` file naming the live one.  The write is
        atomic end to end — arrays land in a dot-prefixed temporary
        directory, the manifest (hashes + a factorization parity sample)
        is written last inside it, the directory is renamed into place,
        and only then is ``CURRENT`` swapped (tmp + rename + dir fsync).
        A crash at any stage leaves ``CURRENT`` pointing at the previous
        intact version; readers never observe a partial store.

        ``fault_hook(stage)`` fires at ``"arrays"`` / ``"manifest"`` /
        ``"publish"`` — the chaos harness's mid-export crash points
        (``ChaosEngine.on_reload``).  Returns the published version dir.
        """
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        version = next_version_name(root)
        tmp = root / f".{version}.tmp"
        self.save(tmp)
        self.path = None  # tmp is about to be renamed; forget it
        if fault_hook is not None:
            fault_hook("arrays")
        write_store_manifest(tmp, version=version, score_sample=_score_sample(self))
        if fault_hook is not None:
            fault_hook("manifest")
        final = root / version
        os.replace(tmp, final)
        _fsync_dir(root)
        if fault_hook is not None:
            fault_hook("publish")
        set_current_version(root, version)
        self.path = final
        return final

    @classmethod
    def load(
        cls, path, mmap: bool = True, verify: bool = False
    ) -> "EmbeddingStore":
        """Load a store directory; ``mmap=True`` memory-maps every array.

        ``path`` may be a plain store directory or a versioned root (one
        holding a :data:`CURRENT_POINTER`) — the live version is resolved
        automatically.  ``verify=True`` additionally checks the SHA-256
        manifest and the factorization parity sample before returning
        (raising :class:`StoreCorrupt` on any mismatch) — the hot-reload
        path always loads with ``verify=True``.
        """
        root = resolve_store_path(path)
        meta_path = root / "meta.json"
        if not meta_path.exists():
            raise FileNotFoundError(f"{root} is not an embedding store (no meta.json)")
        # The version is checked before any hash: an old layout is
        # refused by name, not as a manifest that misses today's files.
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise StoreCorrupt(f"{meta_path} is not valid JSON: {exc}") from exc
        if meta.get("store_version") != STORE_VERSION:
            raise StoreCorrupt(
                f"{root}: store version {meta.get('store_version')!r} is not "
                f"{STORE_VERSION}; re-export it with "
                "`python -m repro export-embeddings`"
            )
        if verify:
            verify_store_manifest(root)
        mode = "r" if mmap else None
        arrays = {
            name: np.load(root / f"{name}.npy", mmap_mode=mode) for name in _ARRAYS
        }
        store = cls(arrays=arrays, meta=meta, path=root)
        if verify:
            validate_store(store)
        return store


# ----------------------------------------------------------------------
# Versioned store directories: manifest, pointer, validation
# ----------------------------------------------------------------------
def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def next_version_name(root: Path) -> str:
    """The next ``v%04d`` directory name under a versioned root."""
    highest = 0
    for entry in Path(root).glob("v[0-9]*"):
        try:
            highest = max(highest, int(entry.name[1:]))
        except ValueError:
            continue
    return f"v{highest + 1:04d}"


def current_version(root) -> Optional[str]:
    """The version named by ``root/CURRENT``, or ``None`` when absent."""
    pointer = Path(root) / CURRENT_POINTER
    if not pointer.exists():
        return None
    return pointer.read_text(encoding="utf-8").strip() or None


def set_current_version(root, version: str) -> None:
    """Atomically point ``root/CURRENT`` at ``version`` (tmp + rename)."""
    root = Path(root)
    if not (root / version).is_dir():
        raise FileNotFoundError(f"cannot publish {version!r}: {root / version} missing")
    tmp = root / f".{CURRENT_POINTER}.tmp"
    tmp.write_text(version + "\n", encoding="utf-8")
    os.replace(tmp, root / CURRENT_POINTER)
    _fsync_dir(root)


def resolve_store_path(path) -> Path:
    """Resolve ``path`` to a concrete store directory.

    A plain store directory (has ``meta.json``) resolves to itself; a
    versioned root (has :data:`CURRENT_POINTER`) resolves to its live
    version.  Anything else is returned as-is and will fail the caller's
    ``meta.json`` check with a pointed error.
    """
    root = Path(path)
    if (root / "meta.json").exists():
        return root
    version = current_version(root)
    if version is not None:
        return root / version
    return root


def _score_sample(store: EmbeddingStore, pairs: int = SCORE_SAMPLE_PAIRS) -> Dict:
    """A seeded (u, i) score sample for factorization parity checks."""
    rng = np.random.default_rng(0)
    users = rng.integers(0, store.num_users, size=pairs)
    items = rng.integers(0, store.num_items, size=pairs)
    ratings, reliabilities = store.score_pairs(users, items)
    return {
        "seed": 0,
        "users": users.tolist(),
        "items": items.tolist(),
        "ratings": ratings.tolist(),
        "reliabilities": reliabilities.tolist(),
    }


def write_store_manifest(
    store_dir, version: Optional[str] = None, score_sample: Optional[Dict] = None
) -> Path:
    """Write ``manifest.json`` for a store directory.

    Records the SHA-256 of every payload file (the same
    :func:`repro.resilience.sha256_file` digest checkpoints use) plus an
    optional factorization parity sample; :func:`verify_store_manifest`
    and :func:`validate_store` check both on reload.
    """
    store_dir = Path(store_dir)
    files = {}
    for entry in sorted(store_dir.iterdir()):
        if entry.name == MANIFEST_NAME or entry.name.startswith("."):
            continue
        files[entry.name] = sha256_file(entry)
    manifest = {
        "manifest_version": 1,
        "store_version": STORE_VERSION,
        "version": version,
        "files": files,
        "score_sample": score_sample,
    }
    tmp = store_dir / f".{MANIFEST_NAME}.tmp"
    tmp.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    os.replace(tmp, store_dir / MANIFEST_NAME)
    return store_dir / MANIFEST_NAME


def read_store_manifest(store_dir) -> Dict:
    """Parse a store directory's manifest; :class:`StoreCorrupt` if absent."""
    path = Path(store_dir) / MANIFEST_NAME
    if not path.exists():
        raise StoreCorrupt(f"{store_dir} has no {MANIFEST_NAME}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StoreCorrupt(f"{path} is not valid JSON: {exc}") from exc


def verify_store_manifest(store_dir) -> Dict:
    """Hash-check every manifest-listed file; returns the manifest.

    Raises :class:`StoreCorrupt` on a missing file, a digest mismatch,
    or an expected array absent from the manifest — the bit-rot /
    truncation / tamper gate of the hot-reload path.
    """
    store_dir = Path(store_dir)
    manifest = read_store_manifest(store_dir)
    files = manifest.get("files") or {}
    expected = {f"{name}.npy" for name in _ARRAYS} | {"meta.json"}
    missing = sorted(expected - set(files))
    if missing:
        raise StoreCorrupt(f"{store_dir}: manifest does not cover {missing}")
    for name, digest in sorted(files.items()):
        path = store_dir / name
        if not path.exists():
            raise StoreCorrupt(f"{store_dir}: manifest lists missing file {name!r}")
        actual = sha256_file(path)
        if actual != digest:
            raise StoreCorrupt(
                f"{store_dir}: {name!r} content hash mismatch "
                f"(manifest {digest[:12]}…, actual {actual[:12]}…)"
            )
    return manifest


def _offsets_fault(offsets: np.ndarray, blob_len: int, rows: int) -> Optional[str]:
    """Why a string column's offsets cannot index its blob, else ``None``."""
    if offsets.shape != (rows + 1,):
        return f"length {offsets.shape} != ({rows + 1},)"
    if offsets[0] != 0:
        return f"start at {offsets[0]}, not 0"
    if np.any(offsets[1:] < offsets[:-1]):
        return "decrease"
    if offsets[-1] != blob_len:
        return f"end at {offsets[-1]}, not at the blob's length {blob_len}"
    return None


def validate_store(store: EmbeddingStore, manifest: Optional[Dict] = None) -> None:
    """Shape + factorization parity validation of a loaded store.

    Checks that the table shapes are mutually consistent (factor dims
    align, CSR index bounds hold, counts match ``meta.json``, string
    offsets run from 0 to their blob's end without decreasing) and — when
    a manifest with a score sample is available — that recomputed pair
    scores match the ones recorded at export time bit-for-bit tolerance
    1e-9.  Raises :class:`StoreCorrupt` on any violation; the hot-reload
    path calls this before swapping a new version in.
    """
    arrays, meta = store.arrays, store.meta
    users, items, reviews = store.num_users, store.num_items, store.num_reviews
    checks = [
        (meta.get("num_users") == users, "meta num_users != user table rows"),
        (meta.get("num_items") == items, "meta num_items != item table rows"),
        (meta.get("num_reviews") == reviews, "meta num_reviews != review table rows"),
        (
            arrays["user_factors"].shape == (users, int(meta.get("factor_dim", -1))),
            "user_factors shape disagrees with meta factor_dim",
        ),
        (
            arrays["user_factors"].shape[1] == arrays["item_factors"].shape[1],
            "user/item factor dims disagree",
        ),
        (
            arrays["item_review_indptr"].shape == (items + 1,),
            "item_review_indptr length != num_items + 1",
        ),
        (
            int(arrays["item_review_indptr"][-1]) == reviews,
            "item_review_indptr does not span the review table",
        ),
        (
            arrays["user_seen_indptr"].shape == (users + 1,),
            "user_seen_indptr length != num_users + 1",
        ),
        (
            reviews == 0
            or int(np.max(arrays["item_review_indices"])) < reviews,
            "item_review_indices out of range",
        ),
    ]
    for name, rows in _STRING_COLUMNS.items():
        fault = _offsets_fault(
            np.asarray(arrays[f"{name}_offsets"]),
            arrays[f"{name}_utf8"].shape[0],
            getattr(store, rows),
        )
        checks.append((fault is None, f"{name}_offsets {fault}"))
    for ok, why in checks:
        if not ok:
            raise StoreCorrupt(f"store failed shape validation: {why}")

    if manifest is None and store.path is not None:
        path = Path(store.path) / MANIFEST_NAME
        if path.exists():
            manifest = read_store_manifest(store.path)
    sample = (manifest or {}).get("score_sample")
    if sample:
        got_r, got_l = store.score_pairs(
            np.asarray(sample["users"], dtype=np.int64),
            np.asarray(sample["items"], dtype=np.int64),
        )
        want_r = np.asarray(sample["ratings"], dtype=np.float64)
        want_l = np.asarray(sample["reliabilities"], dtype=np.float64)
        if not (
            np.allclose(got_r, want_r, rtol=1e-9, atol=1e-9)
            and np.allclose(got_l, want_l, rtol=1e-9, atol=1e-9)
        ):
            raise StoreCorrupt(
                "store failed factorization parity: recomputed sample scores "
                "diverge from the manifest's export-time values"
            )


def export_store(
    trainer,
    out_dir=None,
    verify_pairs: int = 64,
    versioned: bool = False,
) -> EmbeddingStore:
    """Factor a fitted trainer into an :class:`EmbeddingStore`.

    Takes the per-entity terms of the trainer's profile table
    (:meth:`repro.core.RRRETrainer.profiles`) and precomputes per-review
    predictions and fallback statistics.  ``verify_pairs`` (> 0) asserts
    store scores match the pairwise model forward on that many seeded
    (u, i) pairs before anything is written.  ``out_dir=None`` returns
    the in-memory store; ``versioned=True`` publishes into ``out_dir``
    as a versioned root (see :meth:`EmbeddingStore.save_versioned`), the
    layout the hot-reload path consumes.
    """
    profiles = trainer.profiles()
    model, dataset = trainer.model, trainer.dataset
    low, high = profiles.rating_range

    # Per-review predictions for explanation payloads: the model's
    # (rating, reliability) for each review's (author, item) pair.
    r_users, r_items = dataset.user_ids, dataset.item_ids
    review_pred_rating, review_pred_reliability = profiles.score_pairs(r_users, r_items)

    # CSR indexes: reviews by item (time-sorted, as dataset.reviews_by_item)
    # and the distinct items each user reviewed, ascending.
    num_items = dataset.num_items
    item_counts = np.bincount(r_items, minlength=num_items)
    item_review_indptr = np.concatenate([[0], np.cumsum(item_counts)])
    item_review_indices = np.array(
        [idx for rows in dataset.reviews_by_item for idx in rows], dtype=np.int64
    )
    seen_users, user_seen_items = np.divmod(np.unique(r_users * num_items + r_items), num_items)
    user_seen_indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(seen_users, minlength=dataset.num_users))]
    )
    per_item = np.maximum(item_counts, 1)
    item_mean_rating = np.bincount(r_items, dataset.ratings, num_items) / per_item
    item_mean_reliability = (
        np.bincount(r_items, review_pred_reliability, num_items) / per_item
    )

    arrays = {
        **profiles.arrays,
        "review_users": r_users,
        "review_items": r_items,
        "review_ratings": dataset.ratings,
        "review_labels": dataset.labels,
        "review_pred_rating": review_pred_rating,
        "review_pred_reliability": review_pred_reliability,
        "item_review_indptr": item_review_indptr,
        "item_review_indices": item_review_indices,
        "user_seen_indptr": user_seen_indptr,
        "user_seen_items": user_seen_items,
        "item_popularity": item_counts,
        "item_mean_rating": item_mean_rating,
        "item_mean_reliability": item_mean_reliability,
        **string_column("review_texts", (r.text for r in dataset.reviews)),
        **string_column("user_names", dataset.user_names),
        **string_column("item_names", dataset.item_names),
    }
    meta = {
        "store_version": STORE_VERSION,
        "library_version": __version__,
        "dataset": dataset.name,
        "num_users": dataset.num_users,
        "num_items": dataset.num_items,
        "num_reviews": len(dataset.reviews),
        "factor_dim": int(profiles.arrays["user_factors"].shape[1]),
        "rel_bias": profiles.rel_bias,
        "rating_range": [float(low), float(high)],
        "encoder": model.config.encoder,
        "seed": model.config.seed,
    }
    store = EmbeddingStore(arrays=arrays, meta=meta)

    if verify_pairs:
        # Training code: a process that exports has it loaded already.
        from repro.core.profiles import forward_scores

        rng = np.random.default_rng(0)
        users = rng.integers(0, dataset.num_users, size=verify_pairs)
        items = rng.integers(0, dataset.num_items, size=verify_pairs)
        got = store.score_pairs(users, items)
        want = forward_scores(
            model, trainer.slots, trainer.table, profiles.rating_range, users, items
        )
        np.testing.assert_allclose(
            got[0], want[0], rtol=1e-9, atol=1e-9,
            err_msg="store ratings diverge from the model",
        )
        np.testing.assert_allclose(
            got[1], want[1], rtol=1e-9, atol=1e-9,
            err_msg="store reliabilities diverge from the model",
        )

    if out_dir is not None:
        if versioned:
            store.save_versioned(out_dir)
        else:
            store.save(out_dir)
    return store
