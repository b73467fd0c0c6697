"""Scalar nonlinearities, softmax, and the (optionally class-weighted) cross-entropy.

Five activation kinds are supported:

    sigmoid             1 / (1 + e^-x)
    lrelu               x if x > 0      else 0.01 * x
    drelu               x if x > -a     else -a
    mlrelu-literal      x if x > -a     else -a * x
    mlrelu-continuous   x if x > -a     else a * (x + a) - a

`mlrelu-literal` has a negative left-branch slope and a jump at x = -a;
`mlrelu-continuous` keeps slope a on the left and is continuous at the
inflection point. Both are selectable as `Activation(kind, a)`; training
defaults to the continuous form. All functions accept scalars or numpy
arrays. `weights_from_counts` gives the class weights W(c) = n / (k * count(c))
as a label -> weight dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

LOG_EPS = 1e-12

ACTIVATION_KINDS = (
    "sigmoid",
    "lrelu",
    "drelu",
    "mlrelu-literal",
    "mlrelu-continuous",
)


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
        if self.kind == "sigmoid":
            return None
        if self.kind == "lrelu":
            return 0.0
        return -self.a


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
    a = act.a
    if act.kind == "sigmoid":
        out = _stable_sigmoid(arr)
    elif act.kind == "lrelu":
        out = np.where(arr > 0.0, arr, 0.01 * arr)
    elif act.kind == "drelu":
        out = np.where(arr > -a, arr, -a)
    elif act.kind == "mlrelu-literal":
        out = np.where(arr > -a, arr, -a * arr)
    else:  # mlrelu-continuous
        out = np.where(arr > -a, arr, a * (arr + a) - a)
    return float(out) if arr.ndim == 0 else out


def activation_grad(act: Activation, x):
    """Derivative of the activation at x.

    At the exact branch boundary (x = 0 for lrelu, x = -a otherwise) the
    right-branch derivative (slope 1) is used so results are deterministic.
    """
    arr = np.asarray(x, dtype=np.float64)
    _check_finite(arr, "activation input")
    a = act.a
    if act.kind == "sigmoid":
        s = _stable_sigmoid(arr)
        out = s * (1.0 - s)
    elif act.kind == "lrelu":
        out = np.where(arr >= 0.0, 1.0, 0.01)
    elif act.kind == "drelu":
        out = np.where(arr >= -a, 1.0, 0.0)
    elif act.kind == "mlrelu-literal":
        out = np.where(arr >= -a, 1.0, -a)
    else:  # mlrelu-continuous
        out = np.where(arr >= -a, 1.0, a)
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
