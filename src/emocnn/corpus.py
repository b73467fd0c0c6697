"""Dataset loading, tokenization, fold planning, and synthetic corpora.

Two on-disk layouts are supported:

  * polarity directory: ``<root>/pos/*.txt`` and ``<root>/neg/*.txt``,
    one UTF-8 review per file;
  * review CSV: header ``review,sentiment`` (RFC-4180 quoting), sentiment
    in {positive, negative}.

Labels are binary throughout: 1 = positive, 0 = negative. Everything here
is deterministic given its inputs and seed; loaded values are immutable
by convention and safe to share across threads.
"""

from __future__ import annotations

import base64
import csv
import json
import logging
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

UNK_TOKEN = "<unk>"


class DataError(Exception):
    """A dataset could not be loaded or fails its format contract."""


@contextmanager
def json_artifact(path: str | Path, what: str, version: int):
    """Yield the JSON object in the file at `path`, or raise `DataError` naming it.

    A missing file, bad JSON, a non-object, a `version` field other than
    `version`, and a `KeyError`, `TypeError`, `AttributeError` (a missing or
    mistyped field) or `ValueError` (a refused value) inside the block fail.
    """
    src = Path(path)
    if not src.is_file():
        raise DataError(f"{what} not found: {src}")
    try:
        payload = json.loads(src.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot parse {what} {src}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{src}: {what} must hold a JSON object, not {type(payload).__name__}")
    if payload.get("version") != version:
        raise DataError(f"{src}: unsupported {what} version {payload.get('version')!r}, "
                        f"expected {version}")
    try:
        yield payload
    except (KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{src}: malformed {what}, missing or mistyped field: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{src}: invalid {what}: {exc}") from exc


def write_atomic(path: str | Path, text: str) -> None:
    """Write `text` (UTF-8, untranslated newlines) via a temp file and `os.replace`.

    A process killed mid-write leaves the old file or the new one, never a
    truncated one. No fsync: the fault guarded against is a killed process.
    """
    dest = Path(path)
    tmp = dest.with_name(f".{dest.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, dest)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def encode_floats(array: np.ndarray) -> str:
    """Base64 text of `array`'s values as little-endian float64 bytes, in C order."""
    return base64.b64encode(np.ascontiguousarray(array, dtype="<f8")).decode("ascii")


def decode_floats(text: object, count: int, src: str | Path, what: str) -> np.ndarray:
    """The `count` floats that `encode_floats` wrote as `text`, as an owned, writable array.

    A non-string, any non-base64 character, a byte count other than
    8 * `count` or a non-finite value raises `DataError` naming `src` and
    the field `what`.
    """
    if not isinstance(text, str):
        raise DataError(f"{src}: {what} must be a base64 string, not {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise DataError(f"{src}: {what} is not valid base64: {exc}") from exc
    if len(raw) != 8 * count:
        raise DataError(f"{src}: {what}: expected {count} entries ({8 * count} bytes), "
                        f"found {len(raw)} bytes")
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise DataError(f"{src}: {what} holds a non-finite value")
    return values


@dataclass(frozen=True)
class Document:
    """One tokenized review with its binary label."""

    tokens: tuple[str, ...]
    label: int
    source_id: str = ""

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise ValueError(f"document {self.source_id!r} has no tokens")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


@dataclass(frozen=True)
class LabeledDataset:
    documents: tuple[Document, ...]
    class_counts: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_documents(cls, documents) -> "LabeledDataset":
        docs = tuple(documents)
        counts: dict[int, int] = {}
        for doc in docs:
            counts[doc.label] = counts.get(doc.label, 0) + 1
        return cls(documents=docs, class_counts=counts)

    @property
    def n(self) -> int:
        return len(self.documents)

    @property
    def k(self) -> int:
        return len(self.class_counts)

    def labels(self) -> np.ndarray:
        return np.array([d.label for d in self.documents], dtype=np.int64)

    def subset(self, indices) -> "LabeledDataset":
        return LabeledDataset.from_documents(self.documents[i] for i in indices)


@dataclass(frozen=True)
class FoldPlan:
    """Disjoint fold assignment per document of a dataset."""

    fold_assignments: tuple[int, ...]
    k_folds: int
    seed: int

    def fold_indices(self, fold: int) -> list[int]:
        """Indices held out by `fold`."""
        return [i for i, f in enumerate(self.fold_assignments) if f == fold]

    def rest_indices(self, fold: int) -> list[int]:
        """Indices of every other fold (the training remainder)."""
        return [i for i, f in enumerate(self.fold_assignments) if f != fold]


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters.

    >>> tokenize("A-1 plot, 10/10.")
    ['a', '1', 'plot', '10', '10']
    """
    return _TOKEN_RE.findall(text.lower())


def _document_from_text(text: str, label: int, source_id: str) -> Document | None:
    tokens = tokenize(text)
    if not tokens:
        logger.warning("dropping %s: no tokens after tokenization", source_id)
        return None
    return Document(tokens=tuple(tokens), label=label, source_id=source_id)


def load_polarity_dir(path: str | Path) -> LabeledDataset:
    """Load a pos/neg directory tree of one-review-per-file texts.

    Documents are ordered by (label, filename) so repeated loads of the
    same tree produce identical datasets.
    """
    root = Path(path)
    if not root.is_dir():
        raise DataError(f"dataset root is not a directory: {root}")
    for sub in ("pos", "neg"):
        if not (root / sub).is_dir():
            raise DataError(f"missing subdirectory {sub!r} under {root}")

    documents: list[Document] = []
    for label, sub in ((0, "neg"), (1, "pos")):
        for file in sorted((root / sub).iterdir()):
            if not file.is_file():
                continue
            try:
                text = file.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise DataError(f"cannot read review file {file}: {exc}") from exc
            if not text.strip():
                raise DataError(f"empty review file: {file}")
            doc = _document_from_text(text, label, source_id=str(file))
            if doc is not None:
                documents.append(doc)
    if not documents:
        raise DataError(f"no review files found under {root}")
    return LabeledDataset.from_documents(documents)


_SENTIMENT_LABELS = {"positive": 1, "negative": 0}


def load_imdb_csv(
    path: str | Path,
    limit_pos: int | None = None,
    limit_neg: int | None = None,
) -> LabeledDataset:
    """Load a ``review,sentiment`` CSV, optionally capping rows per class.

    With a cap, the first `limit_pos` positive (`limit_neg` negative) usable
    rows in file order are kept (rows dropped for having no tokens do not
    count against the cap) and the class's later rows are skipped; a class
    without a cap is kept whole. This is how fixed-size balanced or
    imbalanced subsets are carved out of a larger review dump.
    """
    src = Path(path)
    caps = {label: cap for label, cap in ((1, limit_pos), (0, limit_neg)) if cap is not None}
    if caps and min(caps.values()) < 0:
        raise ValueError(f"class caps must be >= 0, got {min(caps.values())}")
    if not src.is_file():
        raise DataError(f"CSV file not found: {src}")
    documents: list[Document] = []
    taken = {0: 0, 1: 0}
    with src.open(encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"review", "sentiment"} <= set(reader.fieldnames):
            raise DataError(
                f"{src}: header must contain 'review' and 'sentiment', got {reader.fieldnames}"
            )
        for row_num, row in enumerate(reader, start=2):
            review = row.get("review")
            sentiment = row.get("sentiment")
            if review is None or sentiment is None:
                raise DataError(f"{src}: malformed row {row_num}")
            sentiment = sentiment.strip().lower()
            if sentiment not in _SENTIMENT_LABELS:
                raise DataError(f"{src}: unknown sentiment {sentiment!r} at row {row_num}")
            label = _SENTIMENT_LABELS[sentiment]
            if taken[label] >= caps.get(label, float("inf")):
                continue
            doc = _document_from_text(review, label, source_id=f"{src.name}:{row_num}")
            if doc is not None:
                documents.append(doc)
                taken[label] += 1
    if not documents:
        raise DataError(f"no usable rows in {src}")
    return LabeledDataset.from_documents(documents)


def shuffled_classes(dataset: LabeledDataset, rng) -> list[tuple[int, np.ndarray]]:
    """(label, that class's document indices in a shuffle by `rng`), labels ascending.

    The one per-class shuffle behind folds, train/validation/test splits and
    evaluation strata: `rng` shuffles each class once, in label order.
    """
    labels = dataset.labels()
    classes = [(label, np.flatnonzero(labels == label)) for label in sorted(dataset.class_counts)]
    for _, idx in classes:
        rng.shuffle(idx)
    return classes


def kfold_split(dataset: LabeledDataset, k_folds: int, seed: int) -> FoldPlan:
    """Stratified fold assignment: per-class seeded shuffle, then round-robin.

    The round-robin counter runs on across classes, so overall fold sizes
    differ by at most one as well as per-class counts.
    """
    if k_folds < 2:
        raise ValueError(f"k_folds must be >= 2, got {k_folds}")
    if k_folds > dataset.n:
        raise ValueError(f"k_folds={k_folds} exceeds dataset size n={dataset.n}")
    classes = shuffled_classes(dataset, np.random.default_rng(seed))
    assignments = np.empty(dataset.n, dtype=np.int64)
    assignments[np.concatenate([idx for _, idx in classes])] = np.arange(dataset.n) % k_folds
    return FoldPlan(
        fold_assignments=tuple(int(a) for a in assignments),
        k_folds=k_folds,
        seed=seed,
    )


def synth_corpus(
    n_per_class: int,
    vocab_size: int,
    doc_len: int,
    signal_strength: float,
    seed: int,
) -> LabeledDataset:
    """Generate a deterministic two-class corpus for desk-scale experiments.

    Each document draws round(signal_strength * doc_len) tokens from its
    class's keyword pool and the rest from a pool shared by both classes;
    at signal_strength = 1.0 the classes share no tokens at all. The word
    inventory splits vocab_size into two keyword pools (a quarter each)
    and a common remainder.
    """
    if n_per_class <= 0 or vocab_size < 4 or doc_len <= 0:
        raise ValueError("n_per_class and doc_len must be positive, vocab_size >= 4")
    if not (0.0 < signal_strength <= 1.0):
        raise ValueError(f"signal_strength must be in (0, 1], got {signal_strength}")

    n_keywords = max(1, vocab_size // 4)
    pools = {
        0: [f"neg{i}" for i in range(n_keywords)],
        1: [f"pos{i}" for i in range(n_keywords)],
    }
    shared = [f"com{i}" for i in range(vocab_size - 2 * n_keywords)]

    rng = np.random.default_rng(seed)
    n_signal = int(round(signal_strength * doc_len))
    documents = []
    for label in (0, 1):
        pool = pools[label]
        for i in range(n_per_class):
            words = [pool[j] for j in rng.integers(0, len(pool), size=n_signal)]
            words += [shared[j] for j in rng.integers(0, len(shared), size=doc_len - n_signal)]
            order = rng.permutation(doc_len)
            tokens = tuple(words[j] for j in order)
            documents.append(Document(tokens=tokens, label=label, source_id=f"synth-{label}-{i}"))
    return LabeledDataset.from_documents(documents)


def imbalanced_synth_corpus(
    n_negative: int,
    n_positive: int,
    vocab_size: int,
    doc_len: int,
    signal_strength: float,
    seed: int,
) -> LabeledDataset:
    """`synth_corpus` variant with uneven class sizes (e.g. a 2:1 skew): the
    first documents of each class of the balanced corpus of the larger size."""
    n = max(n_negative, n_positive)
    balanced = synth_corpus(n_per_class=n, vocab_size=vocab_size, doc_len=doc_len,
                            signal_strength=signal_strength, seed=seed)
    return balanced.subset([*range(n_negative), *range(n, n + n_positive)])


def save_dataset_json(dataset: LabeledDataset, path: str | Path) -> None:
    """Write the cached tokenized form consumed by downstream commands."""
    payload = {
        "version": 1,
        "n": dataset.n,
        "class_counts": {str(c): m for c, m in sorted(dataset.class_counts.items())},
        "documents": [
            {"tokens": list(d.tokens), "label": d.label, "source_id": d.source_id}
            for d in dataset.documents
        ],
    }
    write_atomic(path, json.dumps(payload))


def load_dataset_json(path: str | Path) -> LabeledDataset:
    src = Path(path)
    with json_artifact(src, "prepared dataset", 1) as payload:
        docs = []
        for d in payload["documents"]:
            tokens, label = d["tokens"], d["label"]
            if not isinstance(tokens, list) or not tokens or not all(isinstance(t, str) for t in tokens):
                raise TypeError(f"document {len(docs)}: tokens must be a non-empty list of strings")
            if type(label) is not int or label not in (0, 1):  # refuses bools and floats such as 1.7
                raise TypeError(f"document {len(docs)}: label must be the integer 0 or 1, got {label!r}")
            docs.append(Document(tokens=tuple(tokens), label=label, source_id=d.get("source_id", "")))
        dataset = LabeledDataset.from_documents(docs)
        recorded = {int(c): m for c, m in payload["class_counts"].items()}
    if recorded != dataset.class_counts:
        raise DataError(f"{src}: recorded class counts disagree with documents")
    return dataset


def length_stats(dataset: LabeledDataset) -> dict:
    """Min / max / mean token lengths, the usual dataset summary columns."""
    lengths = np.array([len(d.tokens) for d in dataset.documents])
    return {
        "min_length": int(lengths.min()),
        "max_length": int(lengths.max()),
        "avg_length": float(lengths.mean()),
    }
