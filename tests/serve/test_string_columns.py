"""The store's UTF-8 string columns: exact round trips of review texts
and names through export, memory-mapped load and HTTP, validation of
the offsets, and the refusal of version-1 (fixed-width unicode) stores."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import RRRETrainer, fast_config
from repro.data import Review, ReviewDataset, train_test_split
from repro.serve import (
    EmbeddingStore,
    ServeConfig,
    StoreCorrupt,
    export_store,
    make_server,
)
from repro.serve.store import (
    MANIFEST_NAME,
    current_version,
    set_current_version,
    string_column,
    validate_store,
    write_store_manifest,
)

TEXTS = [
    "café – naïve ☕ tasted great",
    "",
    "日本語のレビュー とても良い",
    "plain ascii review text",
    "emoji 🎵🎶 loud",
    "Ünïcödé ß straße",
]
USER_NAMES = ["café – naïve ☕", "", "Zoë"] + [f"user {u} ✓" for u in range(3, 8)]
ITEM_NAMES = ["", "naïve ☕ item"] + [f"itém {i}" for i in range(2, 6)]

#: Serve every review as a citation: no reliability floor, and a pool
#: larger than any item's review count.
CITE_ALL = ServeConfig(min_reliability=0.0, explain_pool=50, top_k=6)


@pytest.fixture(scope="module")
def utf8_dataset():
    rng = np.random.default_rng(0)
    reviews = []
    for user in range(len(USER_NAMES)):
        for item in rng.choice(len(ITEM_NAMES), size=4, replace=False):
            reviews.append(
                Review(
                    user_id=user,
                    item_id=int(item),
                    rating=float(rng.integers(1, 6)),
                    label=int(rng.random() < 0.8),
                    text=TEXTS[(user + int(item)) % len(TEXTS)],
                    timestamp=float(len(reviews)),
                )
            )
    return ReviewDataset(
        reviews, name="utf8", user_names=USER_NAMES, item_names=ITEM_NAMES
    )


@pytest.fixture(scope="module")
def utf8_store_dir(utf8_dataset, tmp_path_factory):
    train, _ = train_test_split(utf8_dataset, seed=0)
    trainer = RRRETrainer(fast_config(epochs=1, seed=0)).fit(utf8_dataset, train)
    root = tmp_path_factory.mktemp("utf8_store")
    export_store(trainer, out_dir=root, versioned=True)
    return root


class LiveServer:
    def __init__(self, store, config=CITE_ALL):
        self.server, self.service = make_server(store, port=0, config=config)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        host, port = self.server.server_address
        self.base = f"http://{host}:{port}"

    def request(self, path, method="GET"):
        """(status, parsed JSON body), error responses included."""
        request = urllib.request.Request(self.base + path, method=method)
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.close()
        self.thread.join(timeout=5)


def assert_citations_match(dataset, citations):
    for cited in citations:
        review = dataset.reviews[cited["review_index"]]
        assert cited["text"] == review.text
        assert cited["user_id"] == review.user_id
        assert cited["user_name"] == dataset.user_names[review.user_id]


class TestRoundTrip:
    def test_accessors_equal_the_dataset(self, utf8_dataset, utf8_store_dir):
        store = EmbeddingStore.load(utf8_store_dir, mmap=True, verify=True)
        assert isinstance(store.review_texts_utf8, np.memmap)
        assert [store.review_text(j) for j in range(store.num_reviews)] == [
            review.text for review in utf8_dataset.reviews
        ]
        assert [store.user_name(u) for u in range(store.num_users)] == USER_NAMES
        assert [store.item_name(i) for i in range(store.num_items)] == ITEM_NAMES

    def test_served_texts_and_names_equal_the_dataset(
        self, utf8_dataset, utf8_store_dir
    ):
        store = EmbeddingStore.load(utf8_store_dir, mmap=True)
        cited = set()
        with LiveServer(store) as live:
            for item in range(store.num_items):
                status, body = live.request(f"/explain?item={item}&k=50")
                assert status == 200
                assert body["item_name"] == ITEM_NAMES[item]
                assert_citations_match(utf8_dataset, body["explanations"])
                cited.update(e["review_index"] for e in body["explanations"])
            # Unknown user last: it takes the popularity fallback.
            for user in list(range(store.num_users)) + [store.num_users]:
                status, body = live.request(f"/recommend?user={user}&explain_k=3")
                assert status == 200
                for rec in body["recommendations"]:
                    assert rec["item_name"] == ITEM_NAMES[rec["item_id"]]
                    assert_citations_match(utf8_dataset, rec["explanations"])
        # Every review was cited, so every text (the empty one and the
        # multi-byte ones) went through the HTTP round trip.
        assert cited == set(range(len(utf8_dataset.reviews)))

    def test_zero_review_store(self, utf8_store_dir, tmp_path):
        # No trainer fits on zero reviews, so the store is cut down from
        # an exported one and published through the same save path.
        full = EmbeddingStore.load(utf8_store_dir, mmap=False)
        arrays = dict(full.arrays)
        for name in (
            "review_users", "review_items", "review_labels", "item_review_indices"
        ):
            arrays[name] = np.zeros(0, dtype=np.int64)
        for name in ("review_ratings", "review_pred_rating", "review_pred_reliability"):
            arrays[name] = np.zeros(0)
        arrays["item_review_indptr"] = np.zeros(full.num_items + 1, dtype=np.int64)
        arrays.update(string_column("review_texts", []))
        meta = dict(full.meta, num_reviews=0)
        EmbeddingStore(arrays, meta).save_versioned(tmp_path / "empty")

        store = EmbeddingStore.load(tmp_path / "empty", mmap=True, verify=True)
        assert store.num_reviews == 0
        assert store.review_texts_utf8.shape == (0,)
        with LiveServer(store) as live:
            status, body = live.request("/explain?item=1&k=3")
            assert status == 200
            assert body == {"item_id": 1, "item_name": ITEM_NAMES[1], "explanations": []}
            status, body = live.request("/recommend?user=0&explain_k=2")
            assert status == 200 and body["recommendations"]
            for rec in body["recommendations"]:
                assert rec["item_name"] == ITEM_NAMES[rec["item_id"]]
                assert rec["explanations"] == []


def corrupt_truncated_blob(arrays):
    arrays["review_texts_utf8"] = arrays["review_texts_utf8"][:-1]


def corrupt_decreasing_offsets(arrays):
    offsets = np.array(arrays["user_names_offsets"])
    offsets[2], offsets[3] = offsets[3], offsets[2]
    arrays["user_names_offsets"] = offsets


def corrupt_offsets_start(arrays):
    offsets = np.array(arrays["item_names_offsets"])
    offsets[0] = 1
    arrays["item_names_offsets"] = offsets


def corrupt_offsets_length(arrays):
    arrays["review_texts_offsets"] = arrays["review_texts_offsets"][:-1]


class TestOffsetValidation:
    def test_exported_store_validates(self, store):
        validate_store(store)

    @pytest.mark.parametrize(
        "corrupt, why",
        [
            (corrupt_truncated_blob, "review_texts_offsets end at"),
            (corrupt_decreasing_offsets, "user_names_offsets decrease"),
            (corrupt_offsets_start, "item_names_offsets start at 1"),
            (corrupt_offsets_length, "review_texts_offsets length"),
        ],
    )
    def test_bad_offsets_are_rejected(self, store, tmp_path, corrupt, why):
        arrays = dict(store.arrays)
        corrupt(arrays)
        bad = EmbeddingStore(arrays, dict(store.meta))
        with pytest.raises(StoreCorrupt, match=why):
            validate_store(bad)
        # Published with a manifest that hashes the bad tables, so only
        # the offsets check stands between them and a hot reload.
        bad.save_versioned(tmp_path / "root")
        with pytest.raises(StoreCorrupt, match=why):
            EmbeddingStore.load(tmp_path / "root", verify=True)


def write_v1_store(store, out_dir):
    """``store`` in the version-1 layout: fixed-width unicode strings."""
    arrays = {
        name: array
        for name, array in store.arrays.items()
        if not name.endswith(("_utf8", "_offsets"))
    }
    arrays["review_texts"] = np.array(
        [store.review_text(j) for j in range(store.num_reviews)]
    )
    arrays["user_names"] = np.array([store.user_name(u) for u in range(store.num_users)])
    arrays["item_names"] = np.array([store.item_name(i) for i in range(store.num_items)])
    out_dir.mkdir(parents=True)
    for name, array in arrays.items():
        np.save(out_dir / f"{name}.npy", array)
    (out_dir / "meta.json").write_text(json.dumps(dict(store.meta, store_version=1)))
    write_store_manifest(out_dir, version=out_dir.name)
    manifest = json.loads((out_dir / MANIFEST_NAME).read_text())
    manifest["store_version"] = 1
    (out_dir / MANIFEST_NAME).write_text(json.dumps(manifest))


class TestVersionOneStores:
    @pytest.mark.parametrize("verify", [False, True])
    def test_load_refuses_by_name(self, store, tmp_path, verify):
        write_v1_store(store, tmp_path / "v1")
        with pytest.raises(StoreCorrupt) as excinfo:
            EmbeddingStore.load(tmp_path / "v1", verify=verify)
        message = str(excinfo.value)
        assert "store version 1 is not 2" in message
        assert "python -m repro export-embeddings" in message

    def test_hot_reload_rolls_back(self, store, tmp_path):
        root = tmp_path / "stores"
        EmbeddingStore(dict(store.arrays), dict(store.meta)).save_versioned(root)
        with LiveServer(root) as live:
            status, before = live.request("/recommend?user=0")
            assert status == 200
            write_v1_store(live.service.store, root / "v0002")
            set_current_version(root, "v0002")

            status, body = live.request("/reload", method="POST")
            assert status == 409
            assert body["rolled_back"] is True
            assert "store version 1 is not 2" in body["error"]
            assert "export-embeddings" in body["error"]

            status, health = live.request("/healthz")
            assert status == 200
            assert health["store_version"] == "v0001"
            last = health["last_reload"]
            assert last["outcome"] == "rejected"
            assert last["kept_version"] == "v0001"
            assert last["error"].startswith("StoreCorrupt: ")
            assert "store version 1" in last["error"]
            status, after = live.request("/recommend?user=0")
            assert status == 200
            assert after["recommendations"] == before["recommendations"]
        assert current_version(root) == "v0002"

