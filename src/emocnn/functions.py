"""Scalar nonlinearities, softmax, and the (optionally class-weighted) cross-entropy.

Five activation kinds are supported, each `Activation(kind, a)`: `sigmoid`,
1 / (1 + e^-x), and four piecewise kinds that are x right of a boundary (0
for `lrelu`, -a otherwise) and follow their left branch in `_PIECEWISE`
elsewhere. `mlrelu-literal` (-a * x) has a negative left-branch slope and a
jump at x = -a; `mlrelu-continuous` keeps slope a on the left and is
continuous at the inflection point, and training defaults to it. All
functions accept scalars or numpy arrays. `weights_from_counts` gives the
class weights W(c) = n / (k * count(c)) as a label -> weight dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

LOG_EPS = 1e-12

# Each piecewise kind, for parameter a: (boundary, left branch at x, its slope).
_PIECEWISE = {
    "lrelu":             lambda a: (0.0, lambda x: 0.01 * x, 0.01),
    "drelu":             lambda a: (-a, lambda x: -a, 0.0),
    "mlrelu-literal":    lambda a: (-a, lambda x: -a * x, -a),
    "mlrelu-continuous": lambda a: (-a, lambda x: a * (x + a) - a, a),
}
ACTIVATION_KINDS = ("sigmoid", *_PIECEWISE)


@dataclass(frozen=True)
class Activation:
    """An activation kind plus its inflection/slope parameter a (where used)."""

    kind: str
    a: float = 0.03

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation kind: {self.kind!r}")
        if isinstance(self.a, bool) or not (self.a > 0):
            raise ValueError(f"activation parameter a must be > 0, got {self.a}")

    @property
    def boundary(self) -> float | None:
        """Input value where the branch switches, or None for sigmoid."""
        return None if self.kind == "sigmoid" else _PIECEWISE[self.kind](self.a)[0]

    @property
    def pools_first(self) -> bool:
        """Whether pooling before activating is exact: true where the left branch
        never decreases and meets the identity at the boundary (`lrelu`,
        `drelu`, `mlrelu-continuous`), false for `sigmoid` and `mlrelu-literal`."""
        if self.kind == "sigmoid":
            return False
        boundary, left, slope = _PIECEWISE[self.kind](self.a)
        return slope >= 0 and left(boundary) == boundary


def _check_finite(x: np.ndarray, what: str) -> None:
    if not np.isfinite(x).all():
        raise ValueError(f"{what} contains non-finite values")


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp() only sees -|x| (a NaN keeps its sign), so it never overflows;
    # e / (1 + e) is 1 / (1 + e^-x) rewritten for x < 0.
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def activation_apply(act: Activation, x):
    """Evaluate the activation at x (scalar or array)."""
    arr = np.asarray(x, dtype=np.float64)
    _check_finite(arr, "activation input")
    if act.kind == "sigmoid":
        out = _stable_sigmoid(arr)
    else:
        boundary, left, _ = _PIECEWISE[act.kind](act.a)
        out = np.where(arr > boundary, arr, left(arr))
    return float(out) if arr.ndim == 0 else out


def activation_grad(act: Activation, x):
    """Derivative of the activation at x.

    At `Activation.boundary` itself the right-branch derivative (slope 1) is
    used so results are deterministic.
    """
    arr = np.asarray(x, dtype=np.float64)
    _check_finite(arr, "activation input")
    if act.kind == "sigmoid":
        s = _stable_sigmoid(arr)
        out = s * (1.0 - s)
    else:
        boundary, _, slope = _PIECEWISE[act.kind](act.a)
        out = np.where(arr >= boundary, 1.0, slope)
    return float(out) if arr.ndim == 0 else out


def softmax(logits) -> np.ndarray:
    """Numerically stabilized softmax over the last axis: one distribution per row."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.shape[-1:] == (0,):
        raise ValueError("softmax of an empty vector")
    _check_finite(arr, "logits")
    ex = np.exp(arr - arr.max(axis=-1, keepdims=True))
    return ex / ex.sum(axis=-1, keepdims=True)


def weights_from_counts(class_counts: Mapping[int, int]) -> dict[int, float]:
    """Per-class loss weights W(c) = n / (k * count(c)), label -> weight.

    Classes with no samples are dropped, so every weight is positive. Summed
    over every sample of the dataset the weights recover n exactly, so
    balanced data degenerates to the unweighted loss.
    """
    counts = {c: int(m) for c, m in class_counts.items() if m > 0}
    k = len(counts)
    if k == 0:
        raise ValueError("cannot compute class weights: no classes present")
    n = sum(counts.values())
    return {c: n / (k * m) for c, m in counts.items()}


def cross_entropy(probs, target: int, weight: float = 1.0) -> float:
    """Weighted cross-entropy of one sample: -weight * log(probs[target]).

    weight = 1 gives the plain cross-entropy. probs[target] is clamped at
    1e-12 so saturated predictions stay finite. Batch losses are the sum of
    per-sample values (the matching gradient convention is sum-over-batch).
    """
    arr = np.asarray(probs, dtype=np.float64)
    if not (0 <= target < arr.size):
        raise ValueError(f"target {target} out of range for {arr.size} classes")
    if not (weight > 0):
        raise ValueError(f"sample weight must be positive, got {weight}")
    return float(-weight * np.log(max(arr[target], LOG_EPS)))
