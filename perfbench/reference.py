"""Computations made outside the program, used to check its outputs.

Nothing here calls emocnn's numerical code: the forward pass is written
again from the method's definition (Kim 2014 sentence CNN with the
modified leaky ReLU), once with explicit loops over windows and once as a
matrix product over stacked windows.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    """A benchmark correctness check did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def activation(kind: str, a: float, x: np.ndarray) -> np.ndarray:
    """The continuous modified leaky ReLU of `elreluwl`, the only model checked."""
    if kind == "mlrelu-continuous":
        return np.where(x > -a, x, a * (x + a) - a)
    raise ValueError(f"no reference for activation {kind!r}")


def pad_rows(sentence: np.ndarray, rows: int) -> np.ndarray:
    if sentence.shape[0] >= rows:
        return sentence
    return np.vstack([sentence, np.zeros((rows - sentence.shape[0], sentence.shape[1]))])


def sentence(vectors: np.ndarray, word_to_index: dict, tokens, max_width: int) -> np.ndarray:
    """Sentence matrix: one row per token, unknown words on row 0, zero-padded."""
    rows = vectors[[word_to_index.get(t, 0) for t in tokens]]
    return pad_rows(rows, max_width)


def _head(params, pooled: np.ndarray) -> np.ndarray:
    logits = params.fc_weights @ pooled + params.fc_bias
    ex = np.exp(logits - logits.max())
    return ex / ex.sum()


def naive_forward(params, sent: np.ndarray):
    """Eval-mode forward with an explicit loop over every window position.

    Returns (pre-activations per width, pooled vector, class probabilities).
    """
    cfg = params.config
    act = cfg.activation
    pre = {}
    pooled = []
    for w in cfg.filter_widths:
        filt, bias = params.filters[w], params.filter_biases[w]
        positions = sent.shape[0] - w + 1
        out = np.empty((filt.shape[0], positions))
        for p in range(positions):
            out[:, p] = np.sum(filt * sent[p : p + w], axis=(1, 2)) + bias
        pre[w] = out
        pooled.append(activation(act.kind, act.a, out).max(axis=1))
    pooled = np.concatenate(pooled)
    return pre, pooled, _head(params, pooled)


def probs(params, sent: np.ndarray) -> np.ndarray:
    """Eval-mode class probabilities via one matrix product per filter width."""
    cfg = params.config
    act = cfg.activation
    pooled = []
    for w in cfg.filter_widths:
        filt = params.filters[w]
        positions = sent.shape[0] - w + 1
        stacked = np.stack([sent[k : k + positions] for k in range(w)], axis=1)
        pre = stacked.reshape(positions, -1) @ filt.reshape(filt.shape[0], -1).T
        pre += params.filter_biases[w]
        pooled.append(activation(act.kind, act.a, pre).max(axis=0))
    return _head(params, np.concatenate(pooled))


def decision(p: np.ndarray) -> int:
    return int(np.argmax(p))


def near_tie(p: np.ndarray, margin: float = 1e-9) -> bool:
    top = np.sort(p)[-2:]
    return bool(top[1] - top[0] < margin)


def split_sizes(class_counts: dict, fraction: float) -> dict:
    """Training-split size per class under the stratified hold-out rule.

    Each class keeps int(fraction * count) documents back for validation,
    at least one and at most count - 1.
    """
    return {
        c: m - min(max(1, int(fraction * m)), m - 1) for c, m in class_counts.items()
    }


def class_weights(split: dict) -> dict:
    """W(c) = n / (k * count(c)) over the training split."""
    n = sum(split.values())
    k = len(split)
    return {c: n / (k * m) for c, m in split.items()}


def finite_difference_check(params, sent, target, weight, mask_seed, forward, backward,
                            samples, rng, h=1e-5, tol=1e-4):
    """Central differences against `backward` on `samples` sampled entries.

    Entries whose perturbation moves a pooled argmax or crosses the
    activation's branch point at a pooled position are redrawn: the loss
    has a kink there and neither one-sided derivative is the answer.
    Returns the worst relative error |a - n| / max(|a| + |n|, 1e-6).
    """

    def run(p):
        return forward(p, sent, rng=np.random.default_rng(mask_seed))

    def loss(trace):
        return -weight * np.log(max(trace.probs[target], 1e-12))

    def kinks(trace):
        boundary = -params.config.activation.a
        out = []
        for w in params.config.filter_widths:
            best = trace.argmax[w]
            at_best = trace.pre_activations[w][np.arange(best.size), best]
            out.append((tuple(best), tuple(at_best >= boundary)))
        return out

    base = run(params)
    grads = backward(params, base, target, weight)
    blocks = [(f"filters_w{w}", w) for w in params.config.filter_widths]
    blocks += [(f"filter_bias_w{w}", w) for w in params.config.filter_widths]
    blocks += [("fc_weights", None), ("fc_bias", None)]

    def array(p, name, w):
        if name.startswith("filters_w"):
            return p.filters[w]
        if name.startswith("filter_bias_w"):
            return p.filter_biases[w]
        return getattr(p, name)

    worst = 0.0
    checked = 0
    tries = 0
    while checked < samples:
        tries += 1
        check(tries <= samples * 20, "finite differences: too many entries sit on a kink")
        name, w = blocks[int(rng.integers(len(blocks)))]
        shape = array(params, name, w).shape
        idx = tuple(int(rng.integers(s)) for s in shape)
        values = []
        smooth = True
        for step in (h, -h):
            probe = params.copy()
            array(probe, name, w)[idx] += step
            trace = run(probe)
            smooth = smooth and kinks(trace) == kinks(base)
            values.append(loss(trace))
        if not smooth:
            continue
        numeric = (values[0] - values[1]) / (2 * h)
        analytic = float(array(grads, name, w)[idx])
        err = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-6)
        worst = max(worst, err)
        checked += 1
    check(worst <= tol, f"finite differences: worst relative error {worst:.3e} > {tol}")
    return worst
