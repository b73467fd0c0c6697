"""Tests for tokenization, dataset loaders, fold planning, and synthetic corpora."""

import json
import logging
import math
import re
from collections import Counter, defaultdict

import numpy as np
import pytest

from emocnn.corpus import (
    DataError,
    Document,
    LabeledDataset,
    imbalanced_synth_corpus,
    json_artifact,
    kfold_split,
    length_stats,
    load_dataset_json,
    load_imdb_csv,
    load_polarity_dir,
    save_dataset_json,
    shuffled_classes,
    synth_corpus,
    tokenize,
)


class NaiveBayesOracle:
    """Unigram multinomial Naive Bayes with Laplace smoothing.

    Deliberately independent of everything under src/ so it can act as a
    separability oracle for the synthetic corpus generator.
    """

    def __init__(self, documents):
        self.token_counts = {0: Counter(), 1: Counter()}
        self.class_counts = Counter()
        vocab = set()
        for doc in documents:
            self.class_counts[doc.label] += 1
            self.token_counts[doc.label].update(doc.tokens)
            vocab.update(doc.tokens)
        self.vocab_size = len(vocab)
        self.totals = {c: sum(t.values()) for c, t in self.token_counts.items()}

    def predict(self, tokens):
        scores = {}
        n = sum(self.class_counts.values())
        for c in (0, 1):
            score = math.log(self.class_counts[c] / n)
            for t in tokens:
                p = (self.token_counts[c][t] + 1) / (self.totals[c] + self.vocab_size + 1)
                score += math.log(p)
            scores[c] = score
        return max(scores, key=scores.get)


def test_tokenize_basic_punctuation():
    assert tokenize("Great movie!") == ["great", "movie"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_mixed_alphanumeric():
    assert tokenize("A-1 plot, 10/10.") == ["a", "1", "plot", "10", "10"]


def test_tokenize_idempotent_on_joined_output():
    texts = ["Hello, WORLD!!", "a-b_c d9", "...", "Don't stop 2nite"]
    for text in texts:
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


def test_tokenize_keeps_accented_letters_together():
    assert tokenize("Amélie's CAFÉ, naïve!") == ["amélie", "s", "café", "naïve"]


@pytest.fixture
def polarity_tree(tmp_path):
    for sub, label, count in (("pos", 1, 3), ("neg", 0, 2)):
        d = tmp_path / sub
        d.mkdir()
        for i in range(count):
            (d / f"cv{i:03d}.txt").write_text(f"review number {i} was {sub}", encoding="utf-8")
    return tmp_path


class TestPolarityLoader:
    def test_counts(self, polarity_tree):
        ds = load_polarity_dir(polarity_tree)
        assert ds.n == 5
        assert ds.class_counts == {1: 3, 0: 2}

    def test_document_order_is_label_then_filename(self, polarity_tree):
        ds = load_polarity_dir(polarity_tree)
        labels = [d.label for d in ds.documents]
        assert labels == [0, 0, 1, 1, 1]
        neg_ids = [d.source_id for d in ds.documents if d.label == 0]
        assert neg_ids == sorted(neg_ids)

    def test_deterministic_reload(self, polarity_tree):
        a = load_polarity_dir(polarity_tree)
        b = load_polarity_dir(polarity_tree)
        assert a == b

    def test_missing_subdirectory_named(self, tmp_path):
        (tmp_path / "pos").mkdir()
        with pytest.raises(DataError, match="neg"):
            load_polarity_dir(tmp_path)

    def test_empty_file_errors_with_path(self, polarity_tree):
        bad = polarity_tree / "pos" / "cv999.txt"
        bad.write_text("   \n", encoding="utf-8")
        with pytest.raises(DataError, match="cv999"):
            load_polarity_dir(polarity_tree)

    def test_tokenless_file_dropped_with_warning(self, polarity_tree, caplog):
        (polarity_tree / "pos" / "cv998.txt").write_text("!!! ???", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            ds = load_polarity_dir(polarity_tree)
        assert ds.n == 5
        assert any("cv998" in rec.message for rec in caplog.records)


def write_csv(path, rows, header="review,sentiment"):
    lines = [header] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestImdbCsvLoader:
    def test_label_mapping_and_counts(self, tmp_path):
        f = tmp_path / "reviews.csv"
        write_csv(
            f,
            [
                '"good, very good",positive',
                "terrible stuff,negative",
                "nice one,positive",
            ],
        )
        ds = load_imdb_csv(f)
        assert ds.class_counts == {1: 2, 0: 1}
        assert ds.documents[0].tokens == ("good", "very", "good")

    def test_per_class_caps_keep_first_rows(self, tmp_path):
        f = tmp_path / "reviews.csv"
        rows = []
        for i in range(10):
            rows.append(f"positive review {i},positive")
            rows.append(f"negative review {i},negative")
        write_csv(f, rows)
        ds = load_imdb_csv(f, limit_pos=2, limit_neg=4)
        assert ds.class_counts == {1: 2, 0: 4}
        kept_pos = [d.tokens[2] for d in ds.documents if d.label == 1]
        assert kept_pos == ["0", "1"]

    def test_tokenless_rows_do_not_count_against_the_cap(self, tmp_path):
        f = tmp_path / "reviews.csv"
        write_csv(
            f,
            ["!!!,positive", "first good,positive", "second good,positive", "bad,negative"],
        )
        ds = load_imdb_csv(f, limit_pos=2, limit_neg=10)
        assert ds.class_counts == {1: 2, 0: 1}
        assert [d.tokens for d in ds.documents if d.label == 1] == [
            ("first", "good"),
            ("second", "good"),
        ]

    def test_quoted_multiline_review(self, tmp_path):
        f = tmp_path / "reviews.csv"
        f.write_text(
            'review,sentiment\n"line one\nline two, still here",positive\nplain,negative\n',
            encoding="utf-8",
        )
        ds = load_imdb_csv(f)
        assert ds.n == 2
        assert ds.documents[0].tokens == ("line", "one", "line", "two", "still", "here")

    def test_header_without_sentiment_rejected(self, tmp_path):
        f = tmp_path / "reviews.csv"
        write_csv(f, ["nice,whatever"], header="review,label")
        with pytest.raises(DataError, match="sentiment"):
            load_imdb_csv(f)

    def test_unknown_sentiment_value_reported(self, tmp_path):
        f = tmp_path / "reviews.csv"
        write_csv(f, ["fine movie,meh"])
        with pytest.raises(DataError, match="meh"):
            load_imdb_csv(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_imdb_csv(tmp_path / "nope.csv")


class TestKfoldSplit:
    def test_equal_division(self):
        ds = synth_corpus(n_per_class=50, vocab_size=20, doc_len=5, signal_strength=1.0, seed=1)
        plan = kfold_split(ds, k_folds=5, seed=9)
        sizes = [len(plan.fold_indices(f)) for f in range(5)]
        assert sizes == [20, 20, 20, 20, 20]

    def test_deterministic(self):
        ds = synth_corpus(n_per_class=30, vocab_size=20, doc_len=5, signal_strength=1.0, seed=1)
        a = kfold_split(ds, 5, seed=42)
        b = kfold_split(ds, 5, seed=42)
        assert a == b

    def test_partition_and_balance_invariants(self):
        # Odd sizes and odd class split still partition with near-equal folds.
        docs = [
            Document(tokens=("w",), label=1 if i % 3 == 0 else 0, source_id=str(i))
            for i in range(103)
        ]
        ds = LabeledDataset.from_documents(docs)
        plan = kfold_split(ds, 4, seed=0)
        all_idx = sorted(i for f in range(4) for i in plan.fold_indices(f))
        assert all_idx == list(range(103))
        sizes = [len(plan.fold_indices(f)) for f in range(4)]
        assert max(sizes) - min(sizes) <= 1
        per_class = defaultdict(lambda: defaultdict(int))
        for i, f in enumerate(plan.fold_assignments):
            per_class[ds.documents[i].label][f] += 1
        for label, counts in per_class.items():
            values = [counts[f] for f in range(4)]
            assert max(values) - min(values) <= 1

    def test_stratified_counts_on_balanced_data(self):
        # Enumerate fold contents: every fold holds exactly 200 per class.
        ds = synth_corpus(n_per_class=1000, vocab_size=40, doc_len=3, signal_strength=1.0, seed=3)
        plan = kfold_split(ds, 5, seed=11)
        for f in range(5):
            labels = [ds.documents[i].label for i in plan.fold_indices(f)]
            assert Counter(labels) == {0: 200, 1: 200}

    def test_too_many_folds_rejected(self):
        ds = synth_corpus(n_per_class=2, vocab_size=8, doc_len=3, signal_strength=1.0, seed=1)
        with pytest.raises(ValueError):
            kfold_split(ds, 5, seed=0)
        with pytest.raises(ValueError):
            kfold_split(ds, 1, seed=0)


class TestSynthCorpus:
    def test_shape_and_counts(self):
        ds = synth_corpus(n_per_class=200, vocab_size=50, doc_len=30, signal_strength=1.0, seed=7)
        assert ds.n == 400
        assert ds.class_counts == {0: 200, 1: 200}
        assert all(len(d.tokens) == 30 for d in ds.documents)

    def test_deterministic(self):
        a = synth_corpus(100, 50, 30, 0.5, seed=7)
        b = synth_corpus(100, 50, 30, 0.5, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = synth_corpus(20, 50, 30, 0.5, seed=7)
        b = synth_corpus(20, 50, 30, 0.5, seed=8)
        assert a != b

    def test_signal_fraction_controls_keyword_share(self):
        ds = synth_corpus(50, 40, 20, signal_strength=0.5, seed=2)
        for doc in ds.documents:
            prefix = "pos" if doc.label == 1 else "neg"
            n_kw = sum(1 for t in doc.tokens if t.startswith(prefix))
            assert n_kw == 10

    def test_fully_separable_corpus_is_learnable_by_naive_bayes(self):
        ds = synth_corpus(n_per_class=200, vocab_size=50, doc_len=30, signal_strength=1.0, seed=7)
        by_class = {0: [], 1: []}
        for doc in ds.documents:
            by_class[doc.label].append(doc)
        train = by_class[0][:150] + by_class[1][:150]
        held_out = by_class[0][150:] + by_class[1][150:]
        oracle = NaiveBayesOracle(train)
        correct = sum(1 for d in held_out if oracle.predict(d.tokens) == d.label)
        assert correct == len(held_out)

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_corpus(10, 3, 5, 1.0, seed=0)
        with pytest.raises(ValueError):
            synth_corpus(10, 8, 5, 0.0, seed=0)


class TestImbalancedSynthCorpus:
    def test_two_to_one_counts(self):
        ds = imbalanced_synth_corpus(
            n_negative=200, n_positive=100, vocab_size=40, doc_len=20,
            signal_strength=0.7, seed=5,
        )
        assert ds.class_counts == {0: 200, 1: 100}

    def test_deterministic(self):
        kwargs = dict(n_negative=60, n_positive=30, vocab_size=40, doc_len=20,
                      signal_strength=0.7, seed=5)
        assert imbalanced_synth_corpus(**kwargs) == imbalanced_synth_corpus(**kwargs)

    @pytest.mark.parametrize("neg, pos", [(20, 10), (10, 20), (0, 7), (7, 0), (12, 12)])
    def test_each_document_is_the_balanced_corpus_document_of_its_source_id(self, neg, pos):
        ds = imbalanced_synth_corpus(n_negative=neg, n_positive=pos, vocab_size=16,
                                     doc_len=9, signal_strength=0.6, seed=3)
        balanced = {d.source_id: d for d in synth_corpus(max(neg, pos), 16, 9, 0.6, seed=3).documents}
        assert ds.class_counts == {label: m for label, m in ((0, neg), (1, pos)) if m}
        assert [d.source_id for d in ds.documents] == [
            *(f"synth-0-{i}" for i in range(neg)), *(f"synth-1-{i}" for i in range(pos))]
        assert all(d == balanced[d.source_id] for d in ds.documents)


class TestDatasetJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = synth_corpus(20, 16, 8, 0.8, seed=13)
        path = tmp_path / "dataset.json"
        save_dataset_json(ds, path)
        loaded = load_dataset_json(path)
        assert loaded == ds

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "dataset.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(DataError):
            load_dataset_json(path)

    @pytest.mark.parametrize("version", [None, 2, "1"])
    def test_another_version_is_refused_naming_the_file(self, tmp_path, version):
        path = tmp_path / "dataset.json"
        save_dataset_json(synth_corpus(2, 8, 3, 1.0, seed=1), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = version
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(
                f"{path}: unsupported prepared dataset version {version!r}, expected 1")):
            load_dataset_json(path)

    @pytest.mark.parametrize("field, value", [("tokens", [1, 2]), ("tokens", "ab"), ("tokens", []),
                                              ("label", 1.7), ("label", True), ("label", 2)])
    def test_mistyped_tokens_or_label_are_refused_naming_the_file(self, tmp_path, field, value):
        path = tmp_path / "dataset.json"
        save_dataset_json(synth_corpus(2, 8, 3, 1.0, seed=1), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["documents"][1][field] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: malformed prepared dataset")) as err:
            load_dataset_json(path)
        assert f"document 1: {field} must be" in str(err.value)


def test_json_artifact_checks_the_version_before_the_block_runs(tmp_path):
    path = tmp_path / "a.json"
    path.write_text('{"version": 3, "x": 1}', encoding="utf-8")
    with json_artifact(path, "thing", 3) as payload:
        assert payload == {"version": 3, "x": 1}
    entered = []
    with pytest.raises(DataError, match=re.escape(f"{path}: unsupported thing version 3")):
        with json_artifact(path, "thing", 4):
            entered.append(True)
    assert entered == []


def test_shuffled_classes_is_one_shuffle_per_class_in_label_order():
    ds = imbalanced_synth_corpus(n_negative=9, n_positive=5, vocab_size=8, doc_len=3,
                                 signal_strength=1.0, seed=2)
    rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    classes = shuffled_classes(ds, rng)
    assert [label for label, _ in classes] == [0, 1]
    for label, idx in classes:
        expected = np.flatnonzero(ds.labels() == label)
        reference.shuffle(expected)
        assert idx.tolist() == expected.tolist()
    assert rng.random() == reference.random()


def test_length_stats():
    docs = [
        Document(tokens=("a",), label=0, source_id="1"),
        Document(tokens=("a", "b", "c"), label=1, source_id="2"),
    ]
    stats = length_stats(LabeledDataset.from_documents(docs))
    assert stats == {"min_length": 1, "max_length": 3, "avg_length": 2.0}


def test_class_counts_consistency():
    ds = synth_corpus(30, 20, 6, 0.9, seed=21)
    recount = Counter(d.label for d in ds.documents)
    assert dict(recount) == ds.class_counts
