"""Sentence-matrix CNN: convolution, max-over-time pooling, dropout, softmax.

The forward pass slides each w x d filter over the L x d sentence matrix,
pools the maximum of each activated feature map, optionally applies
inverted dropout to the pooled vector, and maps it through a single
affine layer to class probabilities. A filter bank's convolution is w
shifted BLAS matrix products on row slices of the sentence, with no im2col
copy (`_conv_pre_activations`). In banks large enough to pay, pooling
comes before the activation where `Activation.pools_first` says that is
exact, and only the maps whose top lies on or left of the boundary are
activated. `backward` gives exact analytic gradients of the weighted
cross-entropy through each map's argmax position and the dropout mask,
added in place into a batch gradient; `sgd_step` returns fresh parameters.
`forward` and `backward` take one document, for the gradient check and as
the reference of the batch passes. Documents are packed end to end by
`_packs`, so that each bank runs one convolution per pack: `train_step` is
the training pass over one batch, and `score` the one evaluation-mode pass,
whose row of one sentence matrix is `predict`.

`ModelParams` holds every parameter in one flat float64 vector and each
block is a view into it, so copy, the SGD step and the checkpoint are each
one expression on that vector.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .corpus import DataError, decode_floats, encode_floats, json_artifact, write_atomic
from .functions import Activation, activation_apply, activation_grad, softmax

MODEL_SCHEMA_VERSION = 3
LOSS_CONVENTION = "sum-over-batch"


@dataclass(frozen=True)
class NetworkConfig:
    filter_widths: tuple[int, ...]
    maps_per_width: int
    embedding_dim: int
    num_classes: int = 2
    dropout_rate: float = 0.4
    activation: Activation = field(default_factory=lambda: Activation("mlrelu-continuous"))
    seed: int = 0

    def __post_init__(self):
        widths = tuple(self.filter_widths)
        object.__setattr__(self, "filter_widths", widths)
        if not widths or any(type(w) is not int or w < 1 for w in widths) or len(set(widths)) != len(widths):
            raise ValueError(f"filter widths must be positive, distinct ints, not {widths!r}")
        for name, least in (("maps_per_width", 1), ("embedding_dim", 1), ("num_classes", 2), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:  # refuses bools and floats such as 4.7
                raise ValueError(f"{name} must be an int >= {least}, not {value!r}")
        if isinstance(self.dropout_rate, bool) or not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must lie in [0, 1)")

    @property
    def total_maps(self) -> int:
        return len(self.filter_widths) * self.maps_per_width

    @property
    def max_width(self) -> int:
        return max(self.filter_widths)


def _block_shapes(config: NetworkConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter block, in storage order."""
    shapes = []
    for w in config.filter_widths:
        shapes.append((f"filters_w{w}", (config.maps_per_width, w, config.embedding_dim)))
        shapes.append((f"filter_bias_w{w}", (config.maps_per_width,)))
    shapes.append(("fc_weights", (config.num_classes, config.total_maps)))
    shapes.append(("fc_bias", (config.num_classes,)))
    return shapes


def _param_count(config: NetworkConfig) -> int:
    return sum(math.prod(shape) for _, shape in _block_shapes(config))


@dataclass
class ModelParams:
    """Filter banks plus the fully connected output layer, in one vector.

    `vector` (1-D float64) holds every parameter. `filters[w]` (maps, width,
    dim) and `filter_biases[w]` (maps,) per width, then `fc_weights`
    (classes, total maps) and `fc_bias` (classes,) are views into it, in
    `named_blocks` order. Write into a block, never rebind one: a rebound
    block comes loose from `vector`. Also the container for gradients.
    """

    config: NetworkConfig
    vector: np.ndarray

    def __post_init__(self):
        shapes = _block_shapes(self.config)
        sizes = [math.prod(shape) for _, shape in shapes]
        if self.vector.shape != (sum(sizes),):
            raise ValueError(f"parameter vector must have {sum(sizes)} entries, "
                             f"got shape {self.vector.shape}")
        parts = np.split(self.vector, np.cumsum(sizes)[:-1])
        self._blocks = {name: part.reshape(shape) for (name, shape), part in zip(shapes, parts)}
        self.filters = {w: self._blocks[f"filters_w{w}"] for w in self.config.filter_widths}
        self.filter_biases = {w: self._blocks[f"filter_bias_w{w}"] for w in self.config.filter_widths}
        self.fc_weights = self._blocks["fc_weights"]
        self.fc_bias = self._blocks["fc_bias"]

    def named_blocks(self):
        """(name, array) pairs in storage order."""
        return self._blocks.items()

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.vector.copy())

    def zeros_like(self) -> "ModelParams":
        return ModelParams(self.config, np.zeros_like(self.vector))


@dataclass
class ForwardTrace:
    sentence: np.ndarray
    pre_activations: dict[int, np.ndarray]  # width -> (maps, positions)
    argmax: dict[int, np.ndarray]           # width -> (maps,)
    pooled: np.ndarray                      # (total maps,)
    dropout_mask: np.ndarray | None         # scaled keep mask, None in eval mode
    dropped: np.ndarray
    probs: np.ndarray


def init_params(config: NetworkConfig) -> ModelParams:
    """Uniform fan-based init for all weights, zero biases, seeded."""
    rng = np.random.default_rng(config.seed)
    params = ModelParams(config, np.zeros(_param_count(config)))
    for w, filters in params.filters.items():
        bound = np.sqrt(6.0 / (w * config.embedding_dim + 1))
        filters[...] = rng.uniform(-bound, bound, size=filters.shape)
    bound = np.sqrt(6.0 / (config.total_maps + config.num_classes))
    params.fc_weights[...] = rng.uniform(-bound, bound, size=params.fc_weights.shape)
    return params


def _conv_pre_activations(filters: np.ndarray, biases: np.ndarray, sentence: np.ndarray) -> np.ndarray:
    """Pre-activations of a whole filter bank: (maps, P) with P = L - w + 1.

    Computed as w shifted matrix products, one per filter row k:
    pre = sum_k F[:, k, :] @ S[k : k + P].T + b. Each product runs in BLAS
    on a contiguous row slice of the sentence, so nothing is copied. A flat
    im2col matrix (P x w*d) would copy every row w times, and that copy
    alone costs more than these products.
    """
    w = filters.shape[1]
    positions = sentence.shape[0] - w + 1
    if positions < 1:
        raise ValueError(
            f"sentence has {sentence.shape[0]} rows but the filter needs {w}"
        )
    pre = filters[:, 0, :] @ sentence[:positions].T
    for k in range(1, w):
        pre += filters[:, k, :] @ sentence[k : k + positions].T
    pre += biases[:, None]
    return pre


# Smaller banks are activated whole: there the extra numpy calls of pooling
# first cost more than they save (crossover 4k-8k entries on one core).
_POOL_FIRST_MIN_ENTRIES = 4096
# Rows of one packed sentence matrix in `score` and `train_step`. At desk
# shape (200 docs of 30 tokens, d=16, 3 x 100 maps, one core) 256 and 512
# rows scored equally fast; 128 rows ran 1.2x slower and 1,024 rows 1.3x
# slower, their products touching fresh pages (3,300 page faults per call,
# none at 256).
_PACK_ROWS = 256


def _max_pool(act: Activation, pre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first argmax, maximum) of each activated map, pooling first where exact."""
    if not act.pools_first or pre.size < _POOL_FIRST_MIN_ENTRIES:
        fmap = activation_apply(act, pre)  # raises on non-finite entries
        best = fmap.argmax(axis=1)
        return best, fmap[np.arange(best.size), best]
    if not np.isfinite(pre).all():
        raise ValueError("pre-activations contain non-finite values")
    best = pre.argmax(axis=1)
    top = pre[np.arange(best.size), best]
    left = np.flatnonzero(top <= act.boundary)
    if left.size:
        fmap = activation_apply(act, pre[left])
        best[left] = left_best = fmap.argmax(axis=1)
        top[left] = fmap[np.arange(left.size), left_best]
    return best, top


def dropout_mask(rng: np.random.Generator, size: int | tuple[int, ...], p: float) -> np.ndarray:
    """Inverted dropout mask of shape `size`: entries are 0 or 1/(1-p), E[mask] = 1.
    An (n, k) mask holds the same draws as n masks of size k drawn in turn."""
    keep = rng.random(size) >= p
    return keep / (1.0 - p)


def _add_window_grads(filters: np.ndarray, biases: np.ndarray, sentence: np.ndarray,
                      best: np.ndarray, dx: np.ndarray) -> None:
    """Add each document's bank gradient into `filters` and `biases`, in order.

    `best` and `dx` are (documents, maps): each map's argmax window start in
    `sentence` and the gradient at its pre-activation. The windows of all
    documents are gathered and scaled at once, but each document adds dx
    times its windows to `filters` and dx to `biases` in turn, so a batch
    sums in the order of a loop of `backward` calls.
    """
    w = filters.shape[1]
    windows = sentence[best[..., None] + np.arange(w)]  # (docs, maps, w, dim), a fresh copy
    np.multiply(dx[..., None, None], windows, out=windows)
    for doc_windows, doc_dx in zip(windows, dx):
        filters += doc_windows
        biases += doc_dx


def forward(
    params: ModelParams,
    sentence: np.ndarray,
    rng: np.random.Generator | None = None,
) -> ForwardTrace:
    """Run the network on one sentence matrix.

    Each map pools its activated maximum at the first position holding it
    (`_max_pool`); a non-finite pre-activation raises `ValueError`. Passing
    `rng` selects training mode: the pooled vector gets an inverted dropout
    mask (keep probability 1 - p, kept units scaled by 1/(1 - p)). Without
    `rng` the pass is evaluation mode, no mask and no scaling.
    """
    config = params.config
    if sentence.ndim != 2 or sentence.shape[1] != config.embedding_dim:
        raise ValueError(
            f"sentence must be L x {config.embedding_dim}, got {sentence.shape}"
        )
    pre_acts: dict[int, np.ndarray] = {}
    argmax: dict[int, np.ndarray] = {}
    pooled_parts = []
    for w in config.filter_widths:
        pre = _conv_pre_activations(params.filters[w], params.filter_biases[w], sentence)
        argmax[w], top = _max_pool(config.activation, pre)
        pre_acts[w] = pre
        pooled_parts.append(top)
    pooled = np.concatenate(pooled_parts)

    mask = None
    if rng is not None and config.dropout_rate > 0.0:
        mask = dropout_mask(rng, pooled.shape[0], config.dropout_rate)
    dropped = pooled if mask is None else pooled * mask

    logits = params.fc_weights @ dropped + params.fc_bias
    probs = softmax(logits)
    return ForwardTrace(
        sentence=sentence,
        pre_activations=pre_acts,
        argmax=argmax,
        pooled=pooled,
        dropout_mask=mask,
        dropped=dropped,
        probs=probs,
    )


def backward(
    params: ModelParams,
    trace: ForwardTrace,
    target: int,
    sample_weight: float = 1.0,
    out: ModelParams | None = None,
) -> ModelParams:
    """Analytic gradients of the weighted cross-entropy for one sample.

    The pooled gradient is routed only through each map's argmax position
    (max pooling) and through the dropout mask recorded in the trace.
    Gradients scale linearly in `sample_weight`. They are added in place
    into the blocks of `out`, which is returned, or else into fresh zeros.
    """
    config = params.config
    dlogits = trace.probs.copy()
    dlogits[target] -= 1.0
    dlogits *= sample_weight

    grads = params.zeros_like() if out is None else out
    grads.fc_weights += np.outer(dlogits, trace.dropped)
    grads.fc_bias += dlogits

    ddropped = params.fc_weights.T @ dlogits
    dpooled = ddropped if trace.dropout_mask is None else ddropped * trace.dropout_mask

    m = config.maps_per_width
    for i, w in enumerate(config.filter_widths):
        best = trace.argmax[w]
        pre_at_best = trace.pre_activations[w][np.arange(m), best]
        dx = dpooled[i * m : (i + 1) * m] * activation_grad(config.activation, pre_at_best)
        _add_window_grads(grads.filters[w], grads.filter_biases[w], trace.sentence,
                          best[None], dx[None])
    return grads


def train_step(
    params: ModelParams,
    table: np.ndarray,
    index_arrays,
    targets,
    sample_weights,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ModelParams]:
    """One training batch: (probabilities (n, classes), summed gradients).

    The batch's documents, given as word indices into `table`, are packed
    as in `score` (`_packs`), and each bank runs one `_conv_pre_activations`
    per pack. Each document pools the first argmax of its activated map over
    its own window starts only (`_max_pool`); a pack of one document pools
    its map as `forward` does, uncopied. One (n, total maps) `dropout_mask`
    draw from `rng` gives each document the mask that a training-mode
    `forward` would draw for it in turn. The fc layer and the pooled
    gradient are one product each over the batch. The gradients of the
    weighted cross-entropy are then added per document, in batch order, as
    `backward` adds one. The packs are built again for that half, so only
    one pack's sentence matrix and pre-activations are held at a time.
    """
    config, act, m = params.config, params.config.activation, params.config.maps_per_width
    n = len(index_arrays)
    pooled = np.empty((n, config.total_maps))
    best = np.empty((n, config.total_maps), dtype=np.intp)
    pre_at_best = np.empty((n, config.total_maps))
    for first, last, starts, sentence in _packs(table, index_arrays, config.max_width):
        for i, w in enumerate(config.filter_widths):
            pre = _conv_pre_activations(params.filters[w], params.filter_biases[w], sentence)
            if last - first > 1:
                # Rows (map, document) over the document's own window starts; a
                # shorter document repeats its last start, which moves neither
                # its maximum nor its first argmax.
                counts = np.diff(starts) - w + 1
                offsets = np.minimum(np.arange(counts.max()), counts[:, None] - 1)
                pre = pre[:, starts[:-1, None] + offsets].reshape(-1, offsets.shape[1])
            doc_best, top = _max_pool(act, pre)
            block = (slice(first, last), slice(i * m, (i + 1) * m))
            best[block] = doc_best.reshape(m, -1).T
            pooled[block] = top.reshape(m, -1).T
            pre_at_best[block] = pre[np.arange(doc_best.size), doc_best].reshape(m, -1).T

    mask = None
    if config.dropout_rate > 0.0:
        mask = dropout_mask(rng, pooled.shape, config.dropout_rate)
    dropped = pooled if mask is None else pooled * mask
    probs = softmax(dropped @ params.fc_weights.T + params.fc_bias)

    dlogits = probs.copy()
    dlogits[np.arange(n), targets] -= 1.0
    dlogits *= np.asarray(sample_weights, dtype=np.float64)[:, None]
    dpooled = dlogits @ params.fc_weights
    if mask is not None:
        dpooled *= mask
    dx = dpooled * activation_grad(act, pre_at_best)

    grads = params.zeros_like()
    for doc_dlogits, doc_dropped in zip(dlogits, dropped):
        grads.fc_weights += np.outer(doc_dlogits, doc_dropped)
        grads.fc_bias += doc_dlogits
    for first, last, starts, sentence in _packs(table, index_arrays, config.max_width):
        for i, w in enumerate(config.filter_widths):
            block = (slice(first, last), slice(i * m, (i + 1) * m))
            _add_window_grads(grads.filters[w], grads.filter_biases[w], sentence,
                              starts[:-1, None] + best[block], dx[block])
    return probs, grads


def sgd_step(params: ModelParams, grads: ModelParams, learning_rate: float) -> ModelParams:
    """One plain gradient descent update; returns new parameters."""
    for name, grad in grads.named_blocks():
        if not np.isfinite(grad).all():
            raise ValueError(f"non-finite gradient in parameter block {name!r}")
    return ModelParams(params.config, params.vector - learning_rate * grads.vector)


def sentence_rows(vectors: np.ndarray, indices: np.ndarray, min_rows: int) -> np.ndarray:
    """The sentence matrix of word `indices`: their rows of `vectors`, then zero
    rows up to `min_rows` (`max_width`, so that every filter has a window)."""
    matrix = vectors[indices]
    if len(indices) < min_rows:
        matrix = np.concatenate([matrix, np.zeros((min_rows - len(indices), vectors.shape[1]))])
    return matrix


def _packs(table: np.ndarray, index_arrays, min_rows: int):
    """The packs of `score` and `train_step`: consecutive documents end to end.

    Yields (first, last, starts, sentence) per pack: documents `first:last`,
    the row where each of them starts in `sentence` followed by its row
    count, and the sentence matrix, the documents' `sentence_rows` end to
    end, of at most `_PACK_ROWS` rows. A longer document forms a pack alone.
    A pack of one document is not copied again, and the index range of every
    row of `table`, `range(len(table))` as `predict` passes it, uses `table`
    itself once it has `min_rows` rows.
    """
    rows = [max(len(ids), min_rows) for ids in index_arrays]
    first = 0
    while first < len(rows):
        last, total = first + 1, rows[first]
        while last < len(rows) and total + rows[last] <= _PACK_ROWS:
            total, last = total + rows[last], last + 1
        starts = np.cumsum([0, *rows[first:last]])
        ids = index_arrays[first]
        if (last - first == 1 and isinstance(ids, range) and ids == range(len(table))
                and len(table) >= min_rows):
            sentence = table
        else:
            packed = [sentence_rows(table, ids, min_rows) for ids in index_arrays[first:last]]
            sentence = packed[0] if len(packed) == 1 else np.concatenate(packed)
        yield first, last, starts, sentence
        first = last


def predict(params: ModelParams, sentence: np.ndarray) -> tuple[int, np.ndarray]:
    """Evaluation-mode class decision and probabilities of one L x d sentence
    matrix: its `score` row, so a matrix shorter than `max_width` is zero-padded.
    Ties go to the smaller class index."""
    probs = score(params, sentence, [range(len(sentence))])[0]
    return int(np.argmax(probs)), probs


def score(params: ModelParams, table: np.ndarray, index_arrays) -> np.ndarray:
    """Evaluation-mode probabilities (n, classes) of documents given as word indices.

    `table` holds one word vector per row. Documents are packed by `_packs`
    into sentence matrices of up to `_PACK_ROWS` rows. Each bank is one
    `_conv_pre_activations` per pack, and `np.maximum.reduceat` pools each
    document over its own window starts, before activating where
    `Activation.pools_first`. A table of the wrong width or a non-finite
    pre-activation raises `ValueError`, as in `forward`.
    """
    config, act, m = params.config, params.config.activation, params.config.maps_per_width
    if table.ndim != 2 or table.shape[1] != config.embedding_dim:
        raise ValueError(f"word vectors must be n x {config.embedding_dim}, got {table.shape}")
    pool_first = act.pools_first
    pooled = np.empty((len(index_arrays), config.total_maps))
    for first, last, starts, sentence in _packs(table, index_arrays, config.max_width):
        for i, w in enumerate(config.filter_widths):
            pre = _conv_pre_activations(params.filters[w], params.filter_biases[w], sentence)
            if pool_first and not np.isfinite(pre).all():
                raise ValueError("pre-activations contain non-finite values")
            # Each document's first window start, then its first window that
            # crosses into the next document; only the former spans are kept.
            bounds = np.stack([starts[:-1], starts[1:] - w + 1], axis=1).ravel()[:-1]
            fmap = pre if pool_first else activation_apply(act, pre)
            top = np.maximum.reduceat(fmap, bounds, axis=1)[:, ::2]
            pooled[first:last, i * m : (i + 1) * m] = (activation_apply(act, top) if pool_first else top).T
    return softmax(pooled @ params.fc_weights.T + params.fc_bias)


def params_digest(params: ModelParams) -> str:
    """Stable content hash of all parameter blocks (reproducibility checks)."""
    h = hashlib.sha256()
    for name, block in params.named_blocks():
        h.update(name.encode())
        h.update(np.ascontiguousarray(block).tobytes())
    return h.hexdigest()[:16]


def save_model(path: str | Path, params: ModelParams, embedding_ref: str = "") -> None:
    """Write the versioned model checkpoint.

    `embedding_ref` is the `embedding.embedding_digest` of the table the
    model was trained with; empty when unknown.
    """
    payload = {
        "version": MODEL_SCHEMA_VERSION,
        "config": asdict(params.config),
        "params": encode_floats(params.vector),
        "embedding_ref": embedding_ref,
        "loss_convention": LOSS_CONVENTION,
    }
    write_atomic(path, json.dumps(payload))


def load_model(path: str | Path, embedding_ref: str | None = None) -> ModelParams:
    """Read a model checkpoint.

    With `embedding_ref`, a checkpoint that records another embedding
    digest is refused: the model would score a table it never saw.
    """
    src = Path(path)
    with json_artifact(src, "model checkpoint", MODEL_SCHEMA_VERSION) as payload:
        stored_ref = payload.get("embedding_ref", "")
        if embedding_ref is not None and stored_ref and stored_ref != embedding_ref:
            raise DataError(
                f"{src}: model was trained with embeddings {stored_ref!r}, "
                f"but the given table has digest {embedding_ref!r}"
            )
        config, act = payload["config"], payload["config"]["activation"]
        for cls, stored in ((NetworkConfig, config), (Activation, act)):
            names = sorted(f.name for f in fields(cls))
            if sorted(stored) != names:
                raise DataError(f"{src}: {cls.__name__} fields must be {names}, got {sorted(stored)}")
        config = NetworkConfig(**{**config, "activation": Activation(**act)})
        return ModelParams(config, decode_floats(payload["params"], _param_count(config), src, "params"))
