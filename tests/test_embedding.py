"""Tests for vocabulary construction, CBOW training, lookup, and checkpoints."""

import numpy as np
import pytest

from emocnn.corpus import DataError, Document, LabeledDataset, synth_corpus
from emocnn.embedding import (
    CbowConfig,
    Vocabulary,
    _noise_table,
    build_vocab,
    embed_lookup,
    init_random_embeddings,
    load_embeddings,
    save_embeddings,
    train_cbow,
)


def dataset_from_texts(texts, label=0):
    docs = [
        Document(tokens=tuple(t.split()), label=label, source_id=str(i))
        for i, t in enumerate(texts)
    ]
    return LabeledDataset.from_documents(docs)


class TestBuildVocab:
    def test_min_count_filters_into_unk(self):
        vocab = build_vocab(dataset_from_texts(["a a b"]), min_count=2)
        assert len(vocab) == 2
        assert vocab.word_to_index.get("a", 0) == 1
        assert vocab.word_to_index.get("b", 0) == 0  # below threshold -> unknown slot

    def test_counts_every_word_when_min_count_one(self):
        vocab = build_vocab(dataset_from_texts(["x y"]), min_count=1)
        assert len(vocab) == 3

    def test_count_ties_break_lexicographically(self):
        vocab = build_vocab(dataset_from_texts(["b a b a"]), min_count=1)
        assert vocab.word_to_index.get("a", 0) < vocab.word_to_index.get("b", 0)

    def test_ordered_by_descending_count(self):
        vocab = build_vocab(dataset_from_texts(["z z z y y x"]), min_count=1)
        assert vocab.word_to_index.get("z", 0) == 1
        assert vocab.word_to_index.get("y", 0) == 2
        assert vocab.word_to_index.get("x", 0) == 3

    def test_round_trip_indices(self):
        vocab = build_vocab(dataset_from_texts(["red green blue red"]), min_count=1)
        for word in ("red", "green", "blue"):
            assert vocab.index_to_word[vocab.word_to_index[word]] == word

    def test_all_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            build_vocab(dataset_from_texts(["a b c"]), min_count=5)

    @pytest.mark.parametrize("min_count", [0, -3])
    def test_threshold_below_one_rejected(self, min_count):
        with pytest.raises(ValueError, match="min_count must be >= 1"):
            build_vocab(dataset_from_texts(["a b c"]), min_count=min_count)

    def test_indices_match_one_lookup_per_token(self):
        # The quickstart corpus; words below min_count and words never seen
        # map to the unknown slot 0.
        dataset = synth_corpus(n_per_class=200, vocab_size=50, doc_len=30,
                               signal_strength=1.0, seed=7)
        vocab = build_vocab(dataset, min_count=300)
        tokens = [t for doc in dataset.documents for t in doc.tokens] + ["zebra", "<unk>"]
        got = vocab.indices(tokens)
        want = np.array([vocab.word_to_index.get(t, 0) for t in tokens], dtype=np.int64)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert 0 < np.count_nonzero(got == 0) < len(tokens)
        assert vocab.indices(()).shape == (0,)


class TestRandomEmbeddings:
    def test_range_and_shape(self):
        vocab = build_vocab(dataset_from_texts(["a b c d e f g h i"]), min_count=1)
        table = init_random_embeddings(vocab, dim=8, seed=0)
        assert table.vectors.shape == (10, 8)
        assert np.all(np.abs(table.vectors) <= 0.5 / 8)

    def test_seed_determinism(self):
        vocab = build_vocab(dataset_from_texts(["a b c"]), min_count=1)
        a = init_random_embeddings(vocab, dim=4, seed=9)
        b = init_random_embeddings(vocab, dim=4, seed=9)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_different_seeds_differ(self):
        vocab = build_vocab(dataset_from_texts(["a b c"]), min_count=1)
        a = init_random_embeddings(vocab, dim=4, seed=9)
        b = init_random_embeddings(vocab, dim=4, seed=10)
        assert np.any(a.vectors != b.vectors)


class TestTrainCbow:
    def tiny_config(self, **overrides):
        base = dict(window=2, dim=4, negatives=3, epochs=1, learning_rate=0.05, seed=7)
        base.update(overrides)
        return CbowConfig(**base)

    def test_output_shape_and_finiteness(self):
        ds = dataset_from_texts(["a b c d e", "c d e a b"])
        vocab = build_vocab(ds, min_count=1)
        table = train_cbow(ds, vocab, self.tiny_config())
        assert table.vectors.shape == (len(vocab), 4)
        assert np.all(np.isfinite(table.vectors))

    def test_objective_decreases_over_epochs(self):
        ds = synth_corpus(n_per_class=40, vocab_size=24, doc_len=12,
                          signal_strength=1.0, seed=3)
        vocab = build_vocab(ds, min_count=1)
        table = train_cbow(ds, vocab, self.tiny_config(epochs=2, dim=8))
        assert table.train_objective is not None
        assert table.train_objective[1] <= table.train_objective[0]

    def test_deterministic_given_seed(self):
        ds = dataset_from_texts(["a b c d", "d c b a", "b d a c"])
        vocab = build_vocab(ds, min_count=1)
        a = train_cbow(ds, vocab, self.tiny_config())
        b = train_cbow(ds, vocab, self.tiny_config())
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_same_pool_words_end_up_more_similar(self):
        # On a fully separable corpus, keywords of one class share contexts,
        # keywords of different classes never co-occur.
        ds = synth_corpus(n_per_class=60, vocab_size=24, doc_len=12,
                          signal_strength=1.0, seed=3)
        vocab = build_vocab(ds, min_count=1)
        table = train_cbow(ds, vocab, self.tiny_config(epochs=3, dim=8))

        def mean_cosine(pairs):
            sims = []
            for w1, w2 in pairs:
                v1 = table.vectors[vocab.word_to_index.get(w1, 0)]
                v2 = table.vectors[vocab.word_to_index.get(w2, 0)]
                sims.append(v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2)))
            return float(np.mean(sims))

        pos = [w for w in vocab.index_to_word if w.startswith("pos")]
        neg = [w for w in vocab.index_to_word if w.startswith("neg")]
        same = [(a, b) for words in (pos, neg) for a in words for b in words if a < b]
        cross = [(a, b) for a in pos for b in neg]
        assert mean_cosine(same) > mean_cosine(cross)

    def test_noise_table_never_indexes_past_the_vocabulary(self):
        # A Zipf-like 40k vocabulary whose rounded cumsum ends below 1.0: a
        # draw in that gap used to index past the last word.
        counts = (0,) + tuple(max(1, 100_000 // r) for r in range(1, 40_000))
        words = ("<unk>",) + tuple(f"w{r}" for r in range(1, 40_000))
        vocab = Vocabulary(words, {w: i for i, w in enumerate(words)}, counts)
        weights = np.asarray(counts, dtype=np.float64) ** 0.75
        assert np.cumsum(weights / weights.sum())[-1] < 1.0
        table = _noise_table(vocab)
        assert table[-1] == 1.0
        assert np.searchsorted(table, np.nextafter(1.0, 0)) < len(vocab)

    def test_no_context_pairs_rejected(self):
        ds = dataset_from_texts(["solo", "another"])
        vocab = build_vocab(ds, min_count=1)
        with pytest.raises(ValueError):
            train_cbow(ds, vocab, self.tiny_config())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CbowConfig(window=0)
        with pytest.raises(ValueError):
            CbowConfig(learning_rate=0.0)


class TestEmbedLookup:
    def setup_method(self):
        self.ds = dataset_from_texts(["one two three"])
        self.vocab = build_vocab(self.ds, min_count=1)
        self.table = init_random_embeddings(self.vocab, dim=2, seed=1)

    def test_rows_match_tokens(self):
        m = embed_lookup(self.vocab, self.table, ["one", "two", "three"], min_rows=3)
        assert m.shape == (3, 2)
        np.testing.assert_array_equal(m[0],
                                      self.table.vectors[self.vocab.word_to_index.get("one", 0)])

    def test_short_sentence_padded_with_zero_rows(self):
        m = embed_lookup(self.vocab, self.table, ["one", "two"], min_rows=5)
        assert m.shape == (5, 2)
        np.testing.assert_array_equal(m[2:], np.zeros((3, 2)))

    def test_unknown_token_uses_reserved_row(self):
        m = embed_lookup(self.vocab, self.table, ["zebra"], min_rows=1)
        np.testing.assert_array_equal(m[0], self.table.vectors[0])

    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError):
            embed_lookup(self.vocab, self.table, [], min_rows=1)

    def test_row_count_contract(self):
        for tokens, min_rows in ((["one"], 4), (["one"] * 6, 4)):
            m = embed_lookup(self.vocab, self.table, tokens, min_rows=min_rows)
            assert m.shape[0] == max(len(tokens), min_rows)


class TestCheckpointRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = dataset_from_texts(["alpha beta gamma alpha"])
        vocab = build_vocab(ds, min_count=1)
        table = init_random_embeddings(vocab, dim=6, seed=4)
        path = tmp_path / "embeddings.json"
        save_embeddings(path, vocab, table)
        vocab2, table2 = load_embeddings(path)
        assert vocab2.index_to_word == vocab.index_to_word
        np.testing.assert_array_equal(table2.vectors, table.vectors)

    def test_shape_validation(self, tmp_path):
        path = tmp_path / "embeddings.json"
        # vectors: [0.0, 0.0] as little-endian float64, two entries for a 2 x 3 table
        path.write_text(
            '{"version": 2, "dim": 3, "words": ["<unk>", "a"], "vectors": "AAAAAAAAAAAAAAAAAAAAAA=="}',
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="entries"):
            load_embeddings(path)

    def test_duplicate_words_rejected(self, tmp_path):
        # A repeated word would leave one of its rows unreachable.
        path = tmp_path / "embeddings.json"
        # vectors: [0.0, 1.0, 2.0] as little-endian float64
        path.write_text(
            '{"version": 2, "dim": 1, "words": ["<unk>", "a", "a"],'
            ' "vectors": "AAAAAAAAAAAAAAAAAADwPwAAAAAAAABA"}',
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="embeddings.json.*more than once"):
            load_embeddings(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "embeddings.json"
        path.write_text('{"version": 99}', encoding="utf-8")
        with pytest.raises(DataError, match="version"):
            load_embeddings(path)
