"""Bit-exactness of the per-document CBOW loop and of the one-exp sigmoid.

`train_cbow` batches its draws, contexts and objective terms per document.
These tests hold it to a copy of the plain loop it replaced: one
`np.subtract.at` step per position, scored through the two-mask sigmoid.
Tables and per-epoch objectives must be equal bit for bit.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emocnn.corpus import Document, LabeledDataset, synth_corpus
from emocnn.embedding import CbowConfig, _noise_table, build_vocab, train_cbow
from emocnn.functions import LOG_EPS, _stable_sigmoid


def two_mask_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def per_position_cbow(dataset, vocab, config):
    """The CBOW loop as one numpy step per position (the reference)."""
    dim = config.dim
    rng = np.random.default_rng(config.seed)
    vectors = rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(vocab), dim))
    out_weights = np.zeros((len(vocab), dim))
    cumulative = _noise_table(vocab)
    lr = config.learning_rate
    window = config.window
    docs_idx = [vocab.indices(doc.tokens) for doc in dataset.documents]
    objective = []
    labels = np.zeros(1 + config.negatives)
    labels[0] = 1.0
    for _ in range(config.epochs):
        total = 0.0
        pairs = 0
        for idx in docs_idx:
            length = len(idx)
            if length < 2:
                continue
            for pos in range(length):
                target = idx[pos]
                lo = max(0, pos - window)
                ctx = np.concatenate([idx[lo:pos], idx[pos + 1 : pos + 1 + window]])
                h = vectors[ctx].sum(axis=0)
                draws = np.searchsorted(cumulative, rng.random(config.negatives))
                candidates = np.concatenate([[target], draws[draws != target]])
                cand_labels = labels[: len(candidates)]
                w = out_weights[candidates]
                scores = two_mask_sigmoid(w @ h)
                total += -float(
                    np.log(max(scores[0], LOG_EPS))
                    + np.log(np.maximum(1.0 - scores[1:], LOG_EPS)).sum()
                )
                g = scores - cand_labels
                grad_h = g @ w
                np.subtract.at(out_weights, candidates, lr * np.outer(g, h))
                np.subtract.at(vectors, ctx, lr * grad_h)
                pairs += 1
        objective.append(total / pairs)
    return vectors, objective


def dataset_of(token_lists):
    return LabeledDataset.from_documents([
        Document(tokens=tuple(tokens), label=i % 2, source_id=str(i))
        for i, tokens in enumerate(token_lists)
    ])


def assert_same_as_per_position(dataset, config):
    vocab = build_vocab(dataset)
    table = train_cbow(dataset, vocab, config)
    vectors, objective = per_position_cbow(dataset, vocab, config)
    assert np.array_equal(table.vectors, vectors)
    assert table.train_objective == objective


def zipf_documents(lengths, ranks, seed):
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, ranks + 1)
    p /= p.sum()
    return [[f"w{k}" for k in rng.choice(ranks, size=n, p=p)] for n in lengths]


def test_quickstart_corpus():
    dataset = synth_corpus(n_per_class=200, vocab_size=50, doc_len=30,
                           signal_strength=1.0, seed=7)
    assert_same_as_per_position(dataset, CbowConfig(dim=16, epochs=3, seed=7))


def test_zipf_documents_at_paper_dim():
    dataset = dataset_of(zipf_documents([44, 180, 700, 3000], ranks=30_000, seed=3))
    assert_same_as_per_position(dataset, CbowConfig(dim=200, epochs=1, seed=1))


def test_duplicate_heavy_corpus():
    # Seven draws from three words always repeat one, and a context of six
    # words always does, so every row takes the word-by-word path, and
    # targets are drawn as negatives at every position.
    rng = np.random.default_rng(5)
    docs = [list(rng.choice(["a", "b", "c"], size=n)) for n in (1, 2, 4, 7, 30, 90)]
    assert_same_as_per_position(dataset_of(docs), CbowConfig(
        dim=8, window=3, negatives=7, epochs=2, seed=2))


@settings(max_examples=40, deadline=None)
@given(
    window=st.integers(1, 4),
    negatives=st.integers(1, 20),
    lengths=st.lists(st.integers(1, 14), min_size=1, max_size=4),
    words=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
@example(window=4, negatives=12, lengths=[1, 3, 9], words=2, seed=0)
@example(window=1, negatives=1, lengths=[1, 2], words=1, seed=1)
def test_property_equal_to_per_position_loop(window, negatives, lengths, words, seed):
    # Lengths below 2*window + 1 have no interior context row, length-1
    # documents are skipped, and a few words make repeats common; past 8
    # negatives numpy sums the noise terms pairwise.
    rng = np.random.default_rng(seed)
    docs = [[f"w{k}" for k in rng.integers(0, words, size=n)] for n in lengths + [2]]
    assert_same_as_per_position(dataset_of(docs), CbowConfig(
        dim=4, window=window, negatives=negatives, epochs=2, learning_rate=0.3, seed=seed))


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300, 1e300, -1e300,
           5e-324, -5e-324, 709.8, -745.2, 36.8, -36.8]


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(
        st.sampled_from(SPECIAL),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300),
    ),
    max_size=40,
))
def test_sigmoid_bit_equal_to_two_mask_form(values):
    x = np.array(values, dtype=np.float64)
    assert np.array_equal(_stable_sigmoid(x).view(np.uint64), two_mask_sigmoid(x).view(np.uint64))
