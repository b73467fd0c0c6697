"""Vocabulary indexing and CBOW word embeddings.

The vocabulary maps words to dense indices with ``<unk>`` reserved at
index 0 for out-of-vocabulary words. Embeddings are trained with the
continuous bag-of-words objective: the projection for a target position is
the *sum* of its context word vectors, scored against an output weight
table with negative sampling. Training is single-threaded and fully
deterministic for a fixed (corpus, config, seed); the finished table is
immutable and safe for concurrent reads.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .corpus import (DataError, LabeledDataset, UNK_TOKEN, decode_floats, encode_floats,
                     json_artifact, write_atomic)
from .functions import LOG_EPS, _stable_sigmoid
from .network import sentence_rows

EMBEDDING_SCHEMA_VERSION = 2
DEFAULT_MIN_COUNT = 1


@dataclass(frozen=True)
class Vocabulary:
    index_to_word: tuple[str, ...]
    word_to_index: dict[str, int]
    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.index_to_word or self.index_to_word[0] != UNK_TOKEN:
            raise ValueError(f"index 0 must be the {UNK_TOKEN} token")

    def __len__(self) -> int:
        return len(self.index_to_word)

    def indices(self, tokens) -> np.ndarray:
        """Dense index of each of `tokens` (a sized sequence), 0 if absent."""
        return np.fromiter(map(self.word_to_index.get, tokens, repeat(0)), np.int64, count=len(tokens))


@dataclass
class EmbeddingTable:
    """|V| x d matrix of word vectors; row i belongs to vocabulary index i."""

    vectors: np.ndarray
    train_objective: list[float] | None = None

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __post_init__(self):
        if self.vectors.ndim != 2:
            raise ValueError("embedding table must be a 2-D matrix")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("embedding table contains non-finite entries")


@dataclass(frozen=True)
class CbowConfig:
    window: int = 2
    dim: int = 200
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.05
    seed: int = 1

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        for name in ("dim", "negatives", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not (self.learning_rate > 0):
            raise ValueError("learning_rate must be positive")


def build_vocab(dataset: LabeledDataset, min_count: int = DEFAULT_MIN_COUNT) -> Vocabulary:
    """Index words with frequency >= min_count (at least 1), rarer ones map to ``<unk>``.

    Indices are assigned by descending count, ties broken lexicographically,
    starting at 1 (index 0 is reserved).
    """
    if dataset.n == 0:
        raise ValueError("cannot build a vocabulary from an empty dataset")
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    freq = Counter()
    for doc in dataset.documents:
        freq.update(doc.tokens)
    kept = sorted(
        (w for w, c in freq.items() if c >= min_count),
        key=lambda w: (-freq[w], w),
    )
    if not kept:
        raise ValueError(f"no word reaches min_count={min_count}; vocabulary would be empty")
    unk_count = sum(c for w, c in freq.items() if c < min_count)
    index_to_word = (UNK_TOKEN,) + tuple(kept)
    return Vocabulary(
        index_to_word=index_to_word,
        word_to_index={w: i for i, w in enumerate(index_to_word)},
        counts=(unk_count,) + tuple(freq[w] for w in kept),
    )


def init_random_embeddings(vocab: Vocabulary, dim: int, seed: int) -> EmbeddingTable:
    """Uniform random table on [-0.5/dim, 0.5/dim], deterministic per seed."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    vectors = rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(vocab), dim))
    return EmbeddingTable(vectors=vectors)


def _noise_table(vocab: Vocabulary) -> np.ndarray:
    """Cumulative unigram^0.75 distribution for negative sampling."""
    weights = np.asarray(vocab.counts, dtype=np.float64) ** 0.75
    if weights.sum() == 0:
        weights = np.ones(len(vocab))
    # The rounded cumsum can end below 1.0, and a draw past its end would index past |V|.
    return np.append(np.cumsum(weights / weights.sum())[:-1], 1.0)


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """Per row of a 2-D index matrix: whether it names no index twice."""
    return (np.diff(np.sort(rows, axis=1), axis=1) != 0).all(axis=1)


def train_cbow(dataset: LabeledDataset, vocab: Vocabulary, config: CbowConfig) -> EmbeddingTable:
    """Train CBOW vectors with negative sampling over the dataset.

    For every position the projection h is the sum of the up-to-2*window
    surrounding word vectors; h is scored against the target word and
    `negatives` noise words through a sigmoid, and both vector tables get
    plain SGD updates, position by position. Returns the input-vector table
    with the mean per-pair objective of each epoch recorded on it.

    Work is batched per document, yet bit-for-bit one `np.subtract.at` step
    per position: `rng.random(a + b)` equals `random(a)` then `random(b)`;
    a row of distinct words is gathered and written back once, any other
    row updated word by word in index order; h sums rows in order, the
    update stays lr * (g_i * h_j), and positions add to the total in order.
    """
    dim = config.dim
    rng = np.random.default_rng(config.seed)
    vectors = rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(vocab), dim))
    out_weights = np.zeros((len(vocab), dim))
    cumulative = _noise_table(vocab)
    lr = config.learning_rate
    window, negatives = config.window, config.negatives

    docs_idx = [vocab.indices(doc.tokens) for doc in dataset.documents]
    if all(len(idx) < 2 for idx in docs_idx):
        raise ValueError("no context pairs: every document is shorter than 2 tokens")

    objective: list[float] = []
    labels = np.r_[1.0, np.zeros(negatives)]
    offsets = np.r_[0:window, window + 1 : 2 * window + 1]
    for _ in range(config.epochs):
        total = 0.0
        pairs = 0
        for idx in docs_idx:
            length = len(idx)
            if length < 2:
                continue
            draws = np.searchsorted(cumulative, rng.random(length * negatives))
            candidates = np.column_stack([idx, draws.reshape(length, negatives)])
            # Context rows with -1 past the ends: two -1s read as a repeat, one hides none.
            padded = np.pad(idx, window, constant_values=-1)[np.arange(length)[:, None] + offsets]
            edges = ((padded[:, 0] < 0) | (padded[:, -1] < 0)).tolist()
            contexts = [row[row >= 0] if edge else row for row, edge in zip(padded, edges)]
            scores_by_pos = np.zeros((length, 1 + negatives))  # unused slots add log(1) = 0
            rebuilt = []  # (pos, candidate count) of rows not known to be distinct
            flags = zip(_distinct_rows(candidates).tolist(), _distinct_rows(padded).tolist())
            for pos, (ctx, cand, (cand_ok, ctx_ok)) in enumerate(zip(contexts, candidates, flags)):
                if not cand_ok:
                    cand = np.concatenate([cand[:1], cand[1:][cand[1:] != cand[0]]])
                    rebuilt.append((pos, len(cand)))
                ctx_rows = vectors[ctx]
                h = np.add.reduce(ctx_rows, 0)
                w = out_weights[cand]
                scores = _stable_sigmoid(w @ h)
                scores_by_pos[pos, : len(scores)] = scores
                g = scores - labels[: len(scores)]
                step = lr * (g @ w)
                update = lr * np.multiply.outer(g, h)
                if cand_ok:
                    out_weights[cand] = w - update
                else:
                    for row, u in zip(cand.tolist(), update):
                        out_weights[row] -= u
                if ctx_ok:
                    vectors[ctx] = ctx_rows - step
                else:
                    for row in ctx.tolist():
                        vectors[row] -= step
            target_terms = np.log(np.maximum(scores_by_pos[:, 0], LOG_EPS))
            noise_terms = np.log(np.maximum(1.0 - scores_by_pos[:, 1:], LOG_EPS)).sum(axis=1)
            for pos, n in rebuilt:  # past 8 terms numpy sums pairwise, so padding would regroup
                noise_terms[pos] = np.log(np.maximum(1.0 - scores_by_pos[pos, 1:n], LOG_EPS)).sum()
            for t, n in zip(target_terms.tolist(), noise_terms.tolist()):
                total += -(t + n)
            pairs += length
        if not np.all(np.isfinite(vectors)) or not np.all(np.isfinite(out_weights)):
            raise ValueError("embedding training produced non-finite values")
        objective.append(total / pairs)
    return EmbeddingTable(vectors=vectors, train_objective=objective)


def embed_lookup(
    vocab: Vocabulary,
    table: EmbeddingTable,
    tokens,
    min_rows: int = 1,
) -> np.ndarray:
    """Stack the word vectors of `tokens` into an L x d sentence matrix.

    Unknown words use row 0. When the sentence is shorter than `min_rows`
    (the widest convolution filter), zero rows are appended so every filter
    has at least one valid position.
    """
    tokens = list(tokens)
    if not tokens:
        raise ValueError("cannot embed an empty token list")
    return sentence_rows(table.vectors, vocab.indices(tokens), min_rows)


def embedding_digest(vocab: Vocabulary, table: EmbeddingTable) -> str:
    """Stable content hash of the words and vectors of an embedding pair.

    A model checkpoint records it, so that scoring with another table of
    the same dim is refused rather than quietly computed.
    """
    h = hashlib.sha256()
    h.update(json.dumps(list(vocab.index_to_word)).encode())
    h.update(np.ascontiguousarray(table.vectors, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def save_embeddings(path: str | Path, vocab: Vocabulary, table: EmbeddingTable) -> None:
    """Write the versioned embedding checkpoint."""
    if len(vocab) != table.vectors.shape[0]:
        raise ValueError("vocabulary and table row count disagree")
    payload = {
        "version": EMBEDDING_SCHEMA_VERSION,
        "dim": table.dim,
        "words": list(vocab.index_to_word),
        "vectors": encode_floats(table.vectors),
    }
    write_atomic(path, json.dumps(payload))


def load_embeddings(path: str | Path) -> tuple[Vocabulary, EmbeddingTable]:
    src = Path(path)
    with json_artifact(src, "embedding checkpoint", EMBEDDING_SCHEMA_VERSION) as payload:
        words, dim = payload["words"], payload["dim"]
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise DataError(f"{src}: words must be a list of strings")
        if not words or words[0] != UNK_TOKEN:
            raise DataError(f"{src}: words must start with {UNK_TOKEN}")
        if type(dim) is not int or dim < 1:
            raise DataError(f"{src}: dim must be a positive integer, not {dim!r}")
        vectors = decode_floats(payload["vectors"], len(words) * dim, src, "vectors")
        vectors = vectors.reshape(len(words), dim)
        if len(set(words)) != len(words):
            raise DataError(f"{src}: embedding checkpoint lists a word more than once")
        vocab = Vocabulary(
            index_to_word=tuple(words),
            word_to_index={w: i for i, w in enumerate(words)},
            counts=tuple(0 for _ in words),
        )
    return vocab, EmbeddingTable(vectors=vectors)
