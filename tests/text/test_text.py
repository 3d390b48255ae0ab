"""Tests for tokenization, vocabulary, padding, and word embeddings."""

import numpy as np
import pytest

from repro.text import (
    PAD_ID,
    UNK_ID,
    Vocabulary,
    cosine_similarity,
    most_similar,
    pad_batch,
    pad_document,
    tokenize,
    tokenize_corpus,
    train_ppmi_svd,
    train_skipgram,
)
from repro.text.embeddings import _inverse_cdf, _scatter_sub


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Great FOOD") == ["great", "food"]

    def test_strips_punctuation(self):
        assert tokenize("good, really good!") == ["good", "really", "good"]

    def test_keeps_apostrophes_and_digits(self):
        assert tokenize("don't rate it 5 stars") == ["don't", "rate", "it", "5", "stars"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_stop_word_removal(self):
        assert tokenize("the food is great", drop_stop_words=True) == ["food", "great"]

    def test_corpus_helper(self):
        docs = tokenize_corpus(["a b", "c"])
        assert docs == [["a", "b"], ["c"]]


class TestVocabulary:
    def test_reserved_ids(self):
        vocab = Vocabulary([["hello"]])
        assert vocab.token_to_id("<pad>") == PAD_ID
        assert vocab.token_to_id("<unk>") == UNK_ID

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary([["hello"]])
        assert vocab.token_to_id("nonexistent") == UNK_ID

    def test_roundtrip(self):
        vocab = Vocabulary([["good", "food", "good"]])
        ids = vocab.encode(["good", "food"])
        assert vocab.decode(ids) == ["good", "food"]

    def test_frequency_ordering(self):
        vocab = Vocabulary([["b", "b", "b", "a", "a", "c"]])
        # Most frequent gets the smallest non-reserved id.
        assert vocab.token_to_id("b") < vocab.token_to_id("a") < vocab.token_to_id("c")

    def test_min_count_prunes(self):
        vocab = Vocabulary([["a", "a", "b"]], min_count=2)
        assert "a" in vocab
        assert "b" not in vocab

    def test_max_size_caps(self):
        vocab = Vocabulary([["a", "a", "b", "b", "c"]], max_size=2)
        assert len(vocab) == 4  # pad + unk + 2 kept

    def test_invalid_min_count(self):
        with pytest.raises(ValueError):
            Vocabulary([["a"]], min_count=0)

    def test_count(self):
        vocab = Vocabulary([["a", "a"]])
        assert vocab.count("a") == 2
        assert vocab.count("zz") == 0

    def test_deterministic_tie_break(self):
        v1 = Vocabulary([["x", "y"]])
        v2 = Vocabulary([["y", "x"]])
        assert v1.tokens == v2.tokens


class TestPadding:
    def test_pad_short_document(self):
        ids, mask = pad_document([5, 6], 4)
        np.testing.assert_array_equal(ids, [5, 6, PAD_ID, PAD_ID])
        np.testing.assert_array_equal(mask, [True, True, False, False])

    def test_truncate_long_document(self):
        ids, mask = pad_document([1, 2, 3, 4, 5], 3)
        np.testing.assert_array_equal(ids, [1, 2, 3])
        assert mask.all()

    def test_empty_document_keeps_one_position(self):
        ids, mask = pad_document([], 3)
        assert mask[0]  # softmax over the mask stays well-defined
        assert ids[0] == PAD_ID

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            pad_document([1], 0)

    def test_pad_batch_shapes(self):
        ids, mask = pad_batch([[1], [2, 3], []], 4)
        assert ids.shape == (3, 4)
        assert mask.shape == (3, 4)
        assert mask[1].sum() == 2


def _toy_corpus():
    # Two clusters of co-occurring words.
    return [
        ["pizza", "cheese", "crust", "pizza", "cheese"],
        ["pizza", "crust", "cheese", "oven"],
        ["guitar", "riff", "solo", "guitar", "riff"],
        ["guitar", "solo", "riff", "amp"],
    ] * 12


class TestEmbeddings:
    def test_skipgram_shape_and_pad_zero(self):
        docs = _toy_corpus()
        vocab = Vocabulary(docs)
        vecs = train_skipgram(docs, vocab, dim=12, epochs=1, seed=0)
        assert vecs.shape == (len(vocab), 12)
        np.testing.assert_allclose(vecs[PAD_ID], np.zeros(12))

    def test_skipgram_groups_cooccurring_words(self):
        docs = _toy_corpus()
        vocab = Vocabulary(docs)
        vecs = train_skipgram(docs, vocab, dim=16, epochs=4, seed=0)
        same = cosine_similarity(vecs[vocab.token_to_id("pizza")], vecs[vocab.token_to_id("cheese")])
        cross = cosine_similarity(vecs[vocab.token_to_id("pizza")], vecs[vocab.token_to_id("guitar")])
        assert same > cross

    def test_skipgram_deterministic(self):
        docs = _toy_corpus()
        vocab = Vocabulary(docs)
        a = train_skipgram(docs, vocab, dim=8, epochs=1, seed=3)
        b = train_skipgram(docs, vocab, dim=8, epochs=1, seed=3)
        np.testing.assert_allclose(a, b)

    def test_scatter_sub_adds_terms_in_order(self):
        # Bitwise equal to accumulating each word's terms one by one in
        # ``ids`` order, then subtracting: the order the sums are taken
        # in is part of what makes a fit reproducible.
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 7, size=(40, 3))
        rows, coefs = rng.standard_normal((40, 5)), rng.standard_normal((40, 3))
        matrix = rng.standard_normal((7, 5))
        want = np.zeros_like(matrix)
        counts = np.bincount(ids.ravel())
        for b in range(40):
            for k in range(3):
                word = ids[b, k]
                want[word] += min(0.3, 1.0 / counts[word]) * coefs[b, k] * rows[b]
        want = matrix - want
        _scatter_sub(matrix, ids, rows, 0.3, coefs)
        assert np.array_equal(matrix, want)

    def test_negative_sampler_matches_rng_choice(self):
        probs = np.random.default_rng(1).random(50) ** 3
        probs[[3, 4, 5, 49]] = 0.0  # repeated CDF values, zero last weight
        probs /= probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        want = np.random.default_rng(2).choice(50, size=(4000, 5), p=probs)
        got = _inverse_cdf(cdf, np.random.default_rng(2).random((4000, 5)))
        assert np.array_equal(got, want)
        # Keys on and next to every CDF entry and bucket edge.
        edges = np.arange(4096) / 4096
        keys = np.concatenate([cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 1), edges,
                               np.nextafter(edges, 1), np.nextafter(edges[1:], 0)])
        keys = keys[keys < 1.0]
        assert np.array_equal(_inverse_cdf(cdf, keys), cdf.searchsorted(keys, side="right"))

    def test_skipgram_empty_corpus(self):
        vocab = Vocabulary([["a"]])
        vecs = train_skipgram([[]], vocab, dim=4)
        assert vecs.shape == (len(vocab), 4)

    def test_ppmi_svd_shape(self):
        docs = _toy_corpus()
        vocab = Vocabulary(docs)
        vecs = train_ppmi_svd(docs, vocab, dim=8)
        assert vecs.shape == (len(vocab), 8)

    def test_ppmi_svd_groups_cooccurring_words(self):
        docs = _toy_corpus()
        vocab = Vocabulary(docs)
        vecs = train_ppmi_svd(docs, vocab, dim=8)
        same = cosine_similarity(vecs[vocab.token_to_id("pizza")], vecs[vocab.token_to_id("crust")])
        cross = cosine_similarity(vecs[vocab.token_to_id("pizza")], vecs[vocab.token_to_id("riff")])
        assert same > cross

    def test_most_similar_excludes_self_and_reserved(self):
        docs = _toy_corpus()
        vocab = Vocabulary(docs)
        vecs = train_skipgram(docs, vocab, dim=16, epochs=3, seed=0)
        neighbours = most_similar(vecs, vocab, "pizza", top_k=3)
        names = [n for n, _ in neighbours]
        assert "pizza" not in names
        assert "<pad>" not in names

    def test_cosine_similarity_zero_vector(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0
