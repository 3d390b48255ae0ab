"""Tests for the minibatched skip-gram trainer, the pair builder both
word-vector trainers share, and PPMI-SVD determinism."""

import math

import numpy as np
import pytest

from repro.core import RRRETrainer
from repro.data import load_dataset, train_test_split
from repro.eval import bench_rrre_config
from repro.text import PAD_ID, UNK_ID, Vocabulary, train_ppmi_svd, train_skipgram
from repro.text.embeddings import SKIPGRAM_BLOCK, _build_pairs


def _loop_pairs(encoded, window):
    """The per-token loop ``_build_pairs`` replaced, kept as its reference."""
    pairs = []
    for doc in encoded:
        ids = [i for i in doc if i not in (PAD_ID, UNK_ID)]
        for pos, center in enumerate(ids):
            lo = max(0, pos - window)
            hi = min(len(ids), pos + window + 1)
            for ctx_pos in range(lo, hi):
                if ctx_pos != pos:
                    pairs.append((center, ids[ctx_pos]))
    if not pairs:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)


def _reference_skipgram(documents, vocab, dim, negatives, epochs, lr, seed, window=4):
    """Block SGNS written pair by pair and target by target.

    Every pair of a block is scored against the vectors at the start of
    the block; each word's terms are summed and applied at rate
    ``min(lr, 1 / terms)``.  Returns the vectors and how many rows had a
    negative equal to their context word.
    """
    rng = np.random.default_rng(seed)
    size = len(vocab)
    freqs = np.array([max(vocab.count(vocab.id_to_token(i)), 1) for i in range(size)], float)
    freqs[PAD_ID] = 0.0
    probs = freqs**0.75 / (freqs**0.75).sum()
    center = (rng.random((size, dim)) - 0.5) / dim
    context = np.zeros((size, dim))
    pairs = _loop_pairs([vocab.encode(doc) for doc in documents], window)
    repeats = 0
    for epoch in range(epochs):
        order = rng.permutation(len(pairs))
        negs = rng.choice(size, size=(len(pairs), negatives), p=probs)
        step_lr = lr * (1.0 - epoch / epochs) + 1e-4
        for lo in range(0, len(pairs), SKIPGRAM_BLOCK):
            d_center, d_context = np.zeros_like(center), np.zeros_like(context)
            n_center, n_context = np.zeros(size), np.zeros(size)
            for row in range(lo, min(lo + SKIPGRAM_BLOCK, len(pairs))):
                c, ctx = pairs[order[row]]
                targets = [ctx, *negs[row]]
                repeats += targets.count(ctx) > 1
                n_center[c] += 1
                for k, t in enumerate(targets):
                    g = 1.0 / (1.0 + math.exp(-(center[c] @ context[t]))) - (k == 0)
                    d_center[c] += g * context[t]
                    d_context[t] += g * center[c]
                    n_context[t] += 1
            center -= np.minimum(step_lr, 1.0 / np.maximum(n_center, 1))[:, None] * d_center
            context -= np.minimum(step_lr, 1.0 / np.maximum(n_context, 1))[:, None] * d_context
    center[PAD_ID] = 0.0
    return center, repeats


def _toy_corpus():
    return [
        ["pizza", "cheese", "crust", "pizza", "cheese"],
        ["pizza", "crust", "cheese", "oven"],
        ["guitar", "riff", "solo", "guitar", "riff"],
        ["guitar", "solo", "riff", "amp"],
    ] * 12


class TestBuildPairs:
    @pytest.mark.parametrize("window", [0, 1, 2, 4, 9])
    def test_matches_loop(self, window):
        rng = np.random.default_rng(window)
        encoded = [
            [],
            [PAD_ID, PAD_ID],
            [5],
            [UNK_ID, 3, UNK_ID],
            [2, 3],
            [4, PAD_ID, 4, 4, UNK_ID, 7],
            [],
            [9, 8, 7],
        ] + [rng.integers(0, 12, rng.integers(0, 30)).tolist() for _ in range(20)]
        got = _build_pairs(encoded, window)
        want = _loop_pairs(encoded, window)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_no_pairs(self):
        assert _build_pairs([], 4).shape == (0, 2)
        assert _build_pairs([[], [PAD_ID, UNK_ID], [3], [UNK_ID, 5, PAD_ID]], 4).shape == (0, 2)


class TestMinibatchSkipgram:
    def test_matches_pairwise_reference(self):
        docs = _toy_corpus()
        vocab = Vocabulary(docs)
        assert len(_build_pairs([vocab.encode(d) for d in docs], 4)) > 2 * SKIPGRAM_BLOCK
        got = train_skipgram(docs, vocab, dim=6, epochs=2, seed=4)
        want, _ = _reference_skipgram(docs, vocab, dim=6, negatives=5, epochs=2, lr=0.025, seed=4)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_repeated_targets_in_a_row_are_summed(self):
        # Two pairs, one block, three sampleable words: most rows draw
        # their context word again among the negatives.  Each repeat's
        # update counts, not just the last one written.
        docs = [["a", "b"]]
        vocab = Vocabulary(docs)
        got = train_skipgram(docs, vocab, dim=4, epochs=2, seed=0)
        want, repeats = _reference_skipgram(docs, vocab, dim=4, negatives=5, epochs=2, lr=0.025, seed=0)
        assert repeats > 0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("share", [0.6, 0.95, 1.0])
    def test_dominant_word_stays_finite(self, share):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(30)]
        docs = [
            ["the" if rng.random() < share else words[rng.integers(30)] for _ in range(12)]
            for _ in range(200)
        ]
        tokens = [t for doc in docs for t in doc]
        assert tokens.count("the") > len(tokens) / 2
        vocab = Vocabulary(docs)
        for dim, epochs in ((8, 1), (20, 3)):
            vecs = train_skipgram(docs, vocab, dim=dim, epochs=epochs, seed=0)
            assert np.isfinite(vecs).all()
            assert np.abs(vecs).max() < 10.0

    def test_default_fits_are_bitwise_repeatable(self):
        dataset = load_dataset("yelpchi", seed=0, scale=0.2)
        train, _ = train_test_split(dataset, seed=0)
        first, second = (
            RRRETrainer(bench_rrre_config(epochs=1, seed=3)).fit(dataset, train).model.state_dict()
            for _ in range(2)
        )
        assert first.keys() == second.keys()
        assert all(np.array_equal(first[name], second[name]) for name in first)


class TestPPMISVD:
    def test_ignores_global_rng(self):
        docs = _toy_corpus()
        vocab = Vocabulary(docs)
        np.random.seed(0)
        a = train_ppmi_svd(docs, vocab, dim=8)
        np.random.seed(1)
        np.random.rand()
        b = train_ppmi_svd(docs, vocab, dim=8)
        assert np.array_equal(a, b)

    def test_column_signs_are_fixed(self):
        docs = _toy_corpus()
        vecs = train_ppmi_svd(docs, Vocabulary(docs), dim=8)
        peaks = vecs[np.abs(vecs).argmax(axis=0), np.arange(vecs.shape[1])]
        assert (peaks[np.abs(peaks) > 0] > 0).all()
