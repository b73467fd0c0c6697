"""Seeded input generators for the paper-shape workloads.

The polarity corpus is not in the repository, so the documents are made
from the few figures the benchmark is specified with, and nothing else:

- lengths run from a few dozen to a few thousand tokens with a mean of
  about 700. They are log-uniform on [MIN_LEN, MAX_LEN]: MAX_LEN = 3000 is
  "a few thousand", and MIN_LEN = 44 is the lower end that then gives a
  mean of 700 ((MAX - MIN) / ln(MAX / MIN)). The log-uniform family is an
  assumption with no further parameter.
- words follow Zipf's law (frequency proportional to 1 / rank) over a
  vocabulary of VOCAB_RANKS words, "tens of thousands" like a polarity
  vocabulary. Words carry no class signal: the paper-shape workloads
  measure work, not learning.
- classes are skewed 2:1 (negative:positive), so the weighted loss gets
  non-unit weights.

Lengths sit at fixed quantiles in a fixed order, so every seed gives the
same length mix and the same amount of convolution work; the seed only
picks the words.
"""

from __future__ import annotations

import numpy as np

from emocnn.corpus import Document

MIN_LEN = 44
MAX_LEN = 3000
VOCAB_RANKS = 30000
# Positions of lengths and labels are fixed, independent of the workload
# seed, so train()'s seeded validation split always holds the same lengths.
LAYOUT_SEED = 20220308
# Seed of the document sets whose words set a workload's amount of work
# (a checkpointed vocabulary, a CBOW slice), so that work is the same for
# every workload seed.
FIXED_WORDS_SEED = 1


def length_schedule(n: int) -> np.ndarray:
    """n document lengths at the (i + 0.5) / n quantiles of the log-uniform, in a fixed shuffled order."""
    u = (np.arange(n) + 0.5) / n
    lengths = np.rint(MIN_LEN * (MAX_LEN / MIN_LEN) ** u).astype(int)
    return np.random.default_rng(LAYOUT_SEED + n).permutation(lengths)


def skewed_labels(n: int) -> list[int]:
    """Every third document is positive: a 2:1 negative:positive skew."""
    return [1 if i % 3 == 2 else 0 for i in range(n)]


class PaperCorpus:
    """Token generator shared by every document set drawn for one seed."""

    def __init__(self, seed: int):
        weights = 1.0 / np.arange(1, VOCAB_RANKS + 1, dtype=np.float64)
        self._cdf = np.cumsum(weights / weights.sum())
        self._words = [f"w{i}" for i in range(VOCAB_RANKS)]
        self._rng = np.random.default_rng(seed)

    def document(self, length: int, label: int, source_id: str) -> Document:
        ranks = np.minimum(np.searchsorted(self._cdf, self._rng.random(length)), VOCAB_RANKS - 1)
        return Document(tokens=tuple(self._words[r] for r in ranks), label=label, source_id=source_id)

    def documents(self, n: int, prefix: str) -> list[Document]:
        """n documents with the fixed length schedule and 2:1 label skew."""
        return [
            self.document(int(length), label, f"{prefix}-{i}")
            for i, (length, label) in enumerate(zip(length_schedule(n), skewed_labels(n)))
        ]
