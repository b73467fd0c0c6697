"""Sentence-matrix CNN: convolution, max-over-time pooling, dropout, softmax.

The forward pass slides each w x d filter over the L x d sentence matrix,
applies the configured activation to every pre-activation, pools the
maximum of each feature map, optionally applies inverted dropout to the
pooled vector, and maps it through a single affine layer to class
probabilities. The convolution of a filter bank is a sum of w shifted
matrix products, one BLAS call per filter row on a row slice of the
sentence, with no im2col copy (see `_conv_pre_activations`). `backward`
produces exact analytic gradients of the weighted cross-entropy: the
pooled gradient flows only through each map's argmax position and through
the dropout mask. All functions are pure; `sgd_step` returns fresh
parameters.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import DataError, json_artifact, write_atomic
from .functions import Activation, activation_apply, activation_grad, softmax

MODEL_SCHEMA_VERSION = 1
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
        if not widths or any(w < 1 for w in widths) or len(set(widths)) != len(widths):
            raise ValueError("filter widths must be positive and distinct")
        if self.maps_per_width < 1:
            raise ValueError("maps_per_width must be >= 1")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must lie in [0, 1)")

    @property
    def total_maps(self) -> int:
        return len(self.filter_widths) * self.maps_per_width

    @property
    def max_width(self) -> int:
        return max(self.filter_widths)


@dataclass
class ModelParams:
    """Filter banks plus the fully connected output layer.

    Also used as the container for gradients, which share its shapes.
    """

    config: NetworkConfig
    filters: dict[int, np.ndarray]        # width -> (maps, width, dim)
    filter_biases: dict[int, np.ndarray]  # width -> (maps,)
    fc_weights: np.ndarray                # (classes, total maps)
    fc_bias: np.ndarray                   # (classes,)

    def named_blocks(self):
        """(name, array) pairs in a fixed order."""
        for w in self.config.filter_widths:
            yield f"filters_w{w}", self.filters[w]
            yield f"filter_bias_w{w}", self.filter_biases[w]
        yield "fc_weights", self.fc_weights
        yield "fc_bias", self.fc_bias

    def copy(self) -> "ModelParams":
        return ModelParams(
            config=self.config,
            filters={w: a.copy() for w, a in self.filters.items()},
            filter_biases={w: a.copy() for w, a in self.filter_biases.items()},
            fc_weights=self.fc_weights.copy(),
            fc_bias=self.fc_bias.copy(),
        )

    def zeros_like(self) -> "ModelParams":
        return ModelParams(
            config=self.config,
            filters={w: np.zeros_like(a) for w, a in self.filters.items()},
            filter_biases={w: np.zeros_like(a) for w, a in self.filter_biases.items()},
            fc_weights=np.zeros_like(self.fc_weights),
            fc_bias=np.zeros_like(self.fc_bias),
        )

    def add_scaled(self, other: "ModelParams", scale: float = 1.0) -> None:
        """In-place accumulate `scale * other` (gradient accumulation)."""
        for w in self.config.filter_widths:
            self.filters[w] += scale * other.filters[w]
            self.filter_biases[w] += scale * other.filter_biases[w]
        self.fc_weights += scale * other.fc_weights
        self.fc_bias += scale * other.fc_bias


@dataclass
class ForwardTrace:
    sentence: np.ndarray
    pre_activations: dict[int, np.ndarray]  # width -> (maps, positions)
    activations: dict[int, np.ndarray]
    argmax: dict[int, np.ndarray]           # width -> (maps,)
    pooled: np.ndarray                      # (total maps,)
    dropout_mask: np.ndarray | None         # scaled keep mask, None in eval mode
    dropped: np.ndarray
    logits: np.ndarray
    probs: np.ndarray


def init_params(config: NetworkConfig) -> ModelParams:
    """Uniform fan-based init for all weights, zero biases, seeded."""
    rng = np.random.default_rng(config.seed)
    d = config.embedding_dim
    filters = {}
    filter_biases = {}
    for w in config.filter_widths:
        bound = np.sqrt(6.0 / (w * d + 1))
        filters[w] = rng.uniform(-bound, bound, size=(config.maps_per_width, w, d))
        filter_biases[w] = np.zeros(config.maps_per_width)
    m = config.total_maps
    bound = np.sqrt(6.0 / (m + config.num_classes))
    fc_weights = rng.uniform(-bound, bound, size=(config.num_classes, m))
    fc_bias = np.zeros(config.num_classes)
    return ModelParams(
        config=config,
        filters=filters,
        filter_biases=filter_biases,
        fc_weights=fc_weights,
        fc_bias=fc_bias,
    )


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


def dropout_mask(rng: np.random.Generator, size: int, p: float) -> np.ndarray:
    """Inverted dropout mask: entries are 0 or 1/(1-p), E[mask] = 1."""
    keep = rng.random(size) >= p
    return keep / (1.0 - p)


def forward(
    params: ModelParams,
    sentence: np.ndarray,
    rng: np.random.Generator | None = None,
) -> ForwardTrace:
    """Run the network on one sentence matrix.

    Passing `rng` selects training mode: the pooled vector gets an inverted
    dropout mask (keep probability 1 - p, kept units scaled by 1/(1 - p)).
    Without `rng` the pass is evaluation mode, no mask and no scaling.
    """
    config = params.config
    if sentence.ndim != 2 or sentence.shape[1] != config.embedding_dim:
        raise ValueError(
            f"sentence must be L x {config.embedding_dim}, got {sentence.shape}"
        )
    act = config.activation
    pre_acts: dict[int, np.ndarray] = {}
    acts: dict[int, np.ndarray] = {}
    argmax: dict[int, np.ndarray] = {}
    pooled_parts = []
    for w in config.filter_widths:
        pre = _conv_pre_activations(params.filters[w], params.filter_biases[w], sentence)
        fmap = activation_apply(act, pre)
        best = fmap.argmax(axis=1)
        pre_acts[w] = pre
        acts[w] = fmap
        argmax[w] = best
        pooled_parts.append(fmap[np.arange(fmap.shape[0]), best])
    pooled = np.concatenate(pooled_parts)

    p = config.dropout_rate
    if rng is not None and p > 0.0:
        mask = dropout_mask(rng, pooled.shape[0], p)
        dropped = pooled * mask
    else:
        mask = None
        dropped = pooled

    logits = params.fc_weights @ dropped + params.fc_bias
    probs = softmax(logits)
    return ForwardTrace(
        sentence=sentence,
        pre_activations=pre_acts,
        activations=acts,
        argmax=argmax,
        pooled=pooled,
        dropout_mask=mask,
        dropped=dropped,
        logits=logits,
        probs=probs,
    )


def backward(
    params: ModelParams,
    trace: ForwardTrace,
    target: int,
    sample_weight: float = 1.0,
) -> ModelParams:
    """Analytic gradients of the weighted cross-entropy for one sample.

    The pooled gradient is routed only through each map's argmax position
    (max pooling) and through the dropout mask recorded in the trace.
    Gradients scale linearly in `sample_weight`.
    """
    config = params.config
    dlogits = trace.probs.copy()
    dlogits[target] -= 1.0
    dlogits *= sample_weight

    grads = params.zeros_like()
    grads.fc_weights = np.outer(dlogits, trace.dropped)
    grads.fc_bias = dlogits

    ddropped = params.fc_weights.T @ dlogits
    dpooled = ddropped if trace.dropout_mask is None else ddropped * trace.dropout_mask

    offset = 0
    act = config.activation
    for w in config.filter_widths:
        m = config.maps_per_width
        seg = dpooled[offset : offset + m]
        offset += m
        best = trace.argmax[w]
        pre_at_best = trace.pre_activations[w][np.arange(m), best]
        dx = seg * activation_grad(act, pre_at_best)
        windows = sliding_window_view(trace.sentence, (w, trace.sentence.shape[1]))[:, 0]
        grads.filters[w] = dx[:, None, None] * windows[best]
        grads.filter_biases[w] = dx
    return grads


def sgd_step(params: ModelParams, grads: ModelParams, learning_rate: float) -> ModelParams:
    """One plain gradient descent update; returns new parameters."""
    updated = params.copy()
    for (name, block), (_, grad) in zip(updated.named_blocks(), grads.named_blocks()):
        if not np.all(np.isfinite(grad)):
            raise ValueError(f"non-finite gradient in parameter block {name!r}")
        block -= learning_rate * grad
    return updated


def predict(params: ModelParams, sentence: np.ndarray) -> tuple[int, np.ndarray]:
    """Evaluation-mode class decision; ties go to the smaller class index."""
    trace = forward(params, sentence)
    return int(np.argmax(trace.probs)), trace.probs


def params_digest(params: ModelParams) -> str:
    """Stable content hash of all parameter blocks (reproducibility checks)."""
    h = hashlib.sha256()
    for name, block in params.named_blocks():
        h.update(name.encode())
        h.update(np.ascontiguousarray(block).tobytes())
    return h.hexdigest()[:16]


def config_to_dict(config: NetworkConfig) -> dict:
    return {
        "filter_widths": list(config.filter_widths),
        "maps_per_width": config.maps_per_width,
        "embedding_dim": config.embedding_dim,
        "num_classes": config.num_classes,
        "dropout_rate": config.dropout_rate,
        "activation": {"kind": config.activation.kind, "a": config.activation.a},
        "seed": config.seed,
    }


def config_from_dict(payload: dict) -> NetworkConfig:
    act = payload["activation"]
    return NetworkConfig(
        filter_widths=tuple(payload["filter_widths"]),
        maps_per_width=int(payload["maps_per_width"]),
        embedding_dim=int(payload["embedding_dim"]),
        num_classes=int(payload["num_classes"]),
        dropout_rate=float(payload["dropout_rate"]),
        activation=Activation(act["kind"], float(act["a"])),
        seed=int(payload["seed"]),
    )


def save_model(path: str | Path, params: ModelParams, embedding_ref: str = "") -> None:
    """Write the versioned model checkpoint.

    `embedding_ref` is the `embedding.embedding_digest` of the table the
    model was trained with; empty when unknown.
    """
    config = params.config
    filters = []
    for w in config.filter_widths:
        for j in range(config.maps_per_width):
            filters.append(
                {
                    "width": w,
                    "weights": [float(v) for v in params.filters[w][j].ravel()],
                    "bias": float(params.filter_biases[w][j]),
                }
            )
    payload = {
        "version": MODEL_SCHEMA_VERSION,
        "config": config_to_dict(config),
        "filters": filters,
        "fc_weights": [float(v) for v in params.fc_weights.ravel()],
        "fc_bias": [float(v) for v in params.fc_bias.ravel()],
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
    with json_artifact(src, "model checkpoint") as payload:
        if payload.get("version") != MODEL_SCHEMA_VERSION:
            raise DataError(f"{src}: unsupported model checkpoint version")
        stored_ref = payload.get("embedding_ref", "")
        if embedding_ref is not None and stored_ref and stored_ref != embedding_ref:
            raise DataError(
                f"{src}: model was trained with embeddings {stored_ref!r}, "
                f"but the given table has digest {embedding_ref!r}"
            )
        config = config_from_dict(payload["config"])
        d = config.embedding_dim
        entries = payload["filters"]
        if len(entries) != config.total_maps:
            raise DataError(
                f"{src}: expected {config.total_maps} filters, found {len(entries)}"
            )
        filters = {w: np.empty((config.maps_per_width, w, d)) for w in config.filter_widths}
        biases = {w: np.empty(config.maps_per_width) for w in config.filter_widths}
        counters = {w: 0 for w in config.filter_widths}
        for entry in entries:
            w = int(entry["width"])
            if w not in filters:
                raise DataError(f"{src}: filter width {w} not in config")
            j = counters[w]
            if j >= config.maps_per_width:
                raise DataError(f"{src}: too many filters of width {w}")
            weights = np.asarray(entry["weights"], dtype=np.float64)
            if weights.size != w * d:
                raise DataError(f"{src}: filter of width {w} has {weights.size} weights, expected {w * d}")
            filters[w][j] = weights.reshape(w, d)
            biases[w][j] = float(entry["bias"])
            counters[w] += 1
        fc_weights = np.asarray(payload["fc_weights"], dtype=np.float64)
        if fc_weights.size != config.num_classes * config.total_maps:
            raise DataError(f"{src}: fully connected weight shape mismatch")
        fc_bias = np.asarray(payload["fc_bias"], dtype=np.float64)
        if fc_bias.size != config.num_classes:
            raise DataError(f"{src}: fully connected bias shape mismatch")
    return ModelParams(
        config=config,
        filters=filters,
        filter_biases=biases,
        fc_weights=fc_weights.reshape(config.num_classes, config.total_maps),
        fc_bias=fc_bias,
    )
