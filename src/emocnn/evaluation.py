"""Metrics, inference timing, the gradient-check harness, and report files.

`evaluate` and the stratified rows score a document set in one packed
`network.score` call; `measure_inference_time` times `predict`, a `score` row.

Three artifacts are written by `emit_report` into the output directory:

  * ``metrics.csv``  - one row per (run, epoch) of training history;
  * ``summary.csv``  - one row per run (folds and aggregates included);
  * ``report.md``    - human-readable tables over the same numbers.

Each CLI command writes its JSON report (``to_dict()``) next to them.

Each report type (the results here and the training reports) supplies its
rows through a `report_rows()` method. CSV output is RFC-4180, UTF-8, '.'
decimal separator, floats printed with 12 significant digits so parsing the
file recovers the numbers to ~1e-12 relative. Emission is byte-stable:
identical reports give identical files.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import LabeledDataset, shuffled_classes, write_atomic
from .embedding import EmbeddingTable, Vocabulary, embed_lookup
from .functions import activation_apply, cross_entropy
from .network import (
    ModelParams,
    NetworkConfig,
    backward,
    forward,
    init_params,
    predict,
    score,
)


@dataclass
class EvalResult:
    """Accuracy and confusion counts over one evaluated document set."""

    accuracy: float
    per_class_accuracy: dict[int, float]
    confusion: dict[str, int]  # TP / TN / FP / FN with label 1 as positive
    n_evaluated: int

    @property
    def macro_accuracy(self) -> float:
        """Unweighted mean of per-class accuracies."""
        return float(np.mean(list(self.per_class_accuracy.values())))

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class_accuracy": {str(c): v for c, v in self.per_class_accuracy.items()},
            "macro_accuracy": self.macro_accuracy,
            "confusion": dict(self.confusion),
            "n_evaluated": self.n_evaluated,
        }

    def summary_row(self, run_id: str = "eval") -> dict:
        """The summary.csv row of this result."""
        return {
            "run_id": run_id,
            "accuracy": self.accuracy,
            "macro_accuracy": self.macro_accuracy,
            "acc_class_0": self.per_class_accuracy.get(0),
            "acc_class_1": self.per_class_accuracy.get(1),
            "n": self.n_evaluated,
        }

    def report_rows(self) -> tuple[list[dict], list[dict], list[str]]:
        """(metric rows, summary rows, markdown lines) for `emit_report`."""
        md = [
            "## Evaluation\n",
            f"- accuracy: {_fmt(self.accuracy)}",
            f"- macro accuracy: {_fmt(self.macro_accuracy)}",
            f"- confusion: {self.confusion}",
            "",
        ]
        return [], [self.summary_row()], md


@dataclass
class StratumEval:
    """Evaluation of one per-class sample stratum."""

    class_label: int
    stratum: int
    result: EvalResult
    mean_true_class_prob: float
    doc_indices: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {
            "class_label": self.class_label,
            "stratum": self.stratum,
            "mean_true_class_prob": self.mean_true_class_prob,
            "doc_indices": list(self.doc_indices),
            **self.result.to_dict(),
        }

    def report_rows(self) -> tuple[list[dict], list[dict], list[str]]:
        """(metric rows, summary rows, markdown lines) for `emit_report`."""
        row = self.result.summary_row(f"class{self.class_label}-stratum{self.stratum}")
        row["mean_true_class_prob"] = self.mean_true_class_prob
        return [], [row], []


@dataclass
class TimingStats:
    """Per-sample inference wall-clock statistics in milliseconds."""

    median_ms: float
    mean_ms: float
    min_ms: float
    max_ms: float
    n_measurements: int
    warmup: int

    def to_dict(self) -> dict:
        return asdict(self)

    def report_rows(self) -> tuple[list[dict], list[dict], list[str]]:
        """(metric rows, summary rows, markdown lines) for `emit_report`."""
        md = [
            "## Inference timing (hardware-dependent)\n",
            f"- per-sample ms: median {_fmt(self.median_ms)}, mean {_fmt(self.mean_ms)}, "
            f"min {_fmt(self.min_ms)}, max {_fmt(self.max_ms)} "
            f"over {self.n_measurements} calls ({self.warmup} warmup discarded)",
            "",
        ]
        return [], [], md


@dataclass
class GradCheckReport:
    """Worst relative error per parameter block, analytic vs central differences."""

    max_rel_error: dict[str, float]
    flagged_blocks: list[str]
    trials: int
    skipped_fixtures: int
    h: float
    tol: float
    label: str = ""

    @property
    def worst(self) -> float:
        return max(self.max_rel_error.values())

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "max_rel_error": dict(self.max_rel_error),
            "flagged_blocks": list(self.flagged_blocks),
            "trials": self.trials,
            "skipped_fixtures": self.skipped_fixtures,
            "h": self.h,
            "tol": self.tol,
        }

    def report_rows(self) -> tuple[list[dict], list[dict], list[str]]:
        """(metric rows, summary rows, markdown lines) for `emit_report`."""
        tag = f"gradcheck-{self.label}" if self.label else "gradcheck"
        md = [
            f"## Gradient check{f' ({self.label})' if self.label else ''}\n",
            "| parameter block | max relative error |",
            "| --- | --- |",
        ]
        for name in sorted(self.max_rel_error):
            md.append(f"| {name} | {_fmt(self.max_rel_error[name])} |")
        md.append("")
        status = "FLAGGED: " + ", ".join(self.flagged_blocks) if self.flagged_blocks else "all blocks pass"
        md.append(f"{self.trials} trials, h={_fmt(self.h)}, tol={_fmt(self.tol)}: {status}\n")
        summary_rows = [
            {
                "run_id": f"{tag}-{name}",
                "max_rel_error": self.max_rel_error[name],
                "flagged": name in self.flagged_blocks,
                "n": self.trials,
            }
            for name in sorted(self.max_rel_error)
        ]
        return [], summary_rows, md


def score_dataset(params: ModelParams, embeddings: tuple[Vocabulary, EmbeddingTable],
                  dataset: LabeledDataset) -> np.ndarray:
    """(n, classes) evaluation-mode probabilities of every document, one `score` call."""
    vocab, table = embeddings
    return score(params, table.vectors, [vocab.indices(doc.tokens) for doc in dataset.documents])


def eval_result(dataset: LabeledDataset, probs: np.ndarray) -> EvalResult:
    """Tally the confusion matrix of the class decisions (ties to the smaller index) of `probs`."""
    if dataset.n == 0:
        raise ValueError("cannot evaluate an empty dataset")
    confusion = {"TP": 0, "TN": 0, "FP": 0, "FN": 0}
    for doc, cls in zip(dataset.documents, np.argmax(probs, axis=1)):
        if doc.label == 1:
            confusion["TP" if cls == 1 else "FN"] += 1
        else:
            confusion["TN" if cls == 0 else "FP"] += 1
    accuracy = (confusion["TP"] + confusion["TN"]) / dataset.n
    per_class = {}
    if confusion["TP"] + confusion["FN"] > 0:
        per_class[1] = confusion["TP"] / (confusion["TP"] + confusion["FN"])
    if confusion["TN"] + confusion["FP"] > 0:
        per_class[0] = confusion["TN"] / (confusion["TN"] + confusion["FP"])
    return EvalResult(accuracy, per_class, confusion, n_evaluated=dataset.n)


def evaluate(params: ModelParams, embeddings: tuple[Vocabulary, EmbeddingTable],
             dataset: LabeledDataset) -> EvalResult:
    """Score every document in one pass and tally the confusion matrix."""
    return eval_result(dataset, score_dataset(params, embeddings, dataset))


def draw_strata(dataset: LabeledDataset, strata: int, per_stratum: int, seed: int) -> list[tuple]:
    """(class label, stratum number, document indices) of `strata` groups per class.

    Groups are drawn without replacement inside each class, so every
    document is in at most one. Bad counts, or a class too small for them,
    raise `ValueError`.
    """
    if strata < 0 or per_stratum < 1:
        raise ValueError(f"need strata >= 0 and per_stratum >= 1, got {strata} and {per_stratum}")
    draws = []
    for label, idx in shuffled_classes(dataset, np.random.default_rng(seed)):
        needed = strata * per_stratum
        if len(idx) < needed:
            raise ValueError(
                f"class {label} has {len(idx)} documents, "
                f"but {strata} strata of {per_stratum} need {needed}"
            )
        draws += [(int(label), s + 1, idx[s * per_stratum : (s + 1) * per_stratum])
                  for s in range(strata)]
    return draws


def strata_rows(dataset: LabeledDataset, draws, probs: np.ndarray) -> list[StratumEval]:
    """Each drawn group's accuracy and mean true-class probability; `probs[i]` is doc i's."""
    return [
        StratumEval(label, stratum, eval_result(dataset.subset(group), probs[group]),
                    float(np.mean(probs[group, label])), tuple(int(i) for i in group))
        for label, stratum, group in draws
    ]


def stratified_sample_eval(params: ModelParams, embeddings: tuple[Vocabulary, EmbeddingTable],
                           dataset: LabeledDataset, strata: int, per_stratum: int,
                           seed: int) -> list[StratumEval]:
    """Evaluate the `draw_strata` groups; all sampled documents go through one `score` call."""
    draws = draw_strata(dataset, strata, per_stratum, seed)
    sampled = [i for _, _, group in draws for i in group]
    probs = np.zeros((dataset.n, params.config.num_classes))
    probs[sampled] = score_dataset(params, embeddings, dataset.subset(sampled))
    return strata_rows(dataset, draws, probs)


def measure_inference_time(
    params: ModelParams,
    embeddings: tuple[Vocabulary, EmbeddingTable],
    samples,
    warmup: int = 3,
    repeats: int = 1,
) -> TimingStats:
    """Time `predict` per sample with a monotonic clock.

    `warmup` initial calls are discarded; the remaining repeats x len(samples)
    measurements feed the statistics. Results depend on the local hardware
    and are only meaningful as paired relative comparisons.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample to time")
    if repeats < 1 or warmup < 0:
        raise ValueError(f"need repeats >= 1 and warmup >= 0, got {repeats} and {warmup}")
    vocab, table = embeddings
    max_width = params.config.max_width
    matrices = [embed_lookup(vocab, table, doc.tokens, min_rows=max_width) for doc in samples]
    for i in range(warmup):
        predict(params, matrices[i % len(matrices)])
    times = []
    for _ in range(repeats):
        for matrix in matrices:
            start = time.perf_counter()
            predict(params, matrix)
            times.append((time.perf_counter() - start) * 1000.0)
    arr = np.asarray(times)
    return TimingStats(
        median_ms=float(np.median(arr)),
        mean_ms=float(arr.mean()),
        min_ms=float(arr.min()),
        max_ms=float(arr.max()),
        n_measurements=len(times),
        warmup=warmup,
    )


def _numeric_gradients(params, sentence, target, weight, h, mask_seed):
    def loss_at(p):
        rng = np.random.default_rng(mask_seed) if mask_seed is not None else None
        return cross_entropy(forward(p, sentence, rng=rng).probs, target, weight)

    probe = params.copy()
    numeric = params.zeros_like()
    for i, value in enumerate(params.vector):
        probe.vector[i] = value + h
        plus = loss_at(probe)
        probe.vector[i] = value - h
        minus = loss_at(probe)
        probe.vector[i] = value
        numeric.vector[i] = (plus - minus) / (2 * h)
    return numeric


def _fixture_is_smooth(trace, activation, margin=1e-4):
    # Skip fixtures with a pre-activation near the activation's branch
    # boundary or a near-tie at the top of any feature map: central
    # differences straddle a kink there and disagree with either one-sided
    # derivative.
    boundary = activation.boundary
    for w, pre in trace.pre_activations.items():
        if boundary is not None and np.any(np.abs(pre - boundary) < margin):
            return False
        fmap = activation_apply(activation, pre)
        if fmap.shape[1] >= 2:
            top2 = np.sort(fmap, axis=1)[:, -2:]
            if np.any(top2[:, 1] - top2[:, 0] < margin):
                return False
    return True


def gradient_check(
    config: NetworkConfig,
    trials: int,
    h: float = 1e-5,
    tol: float = 1e-4,
    seed: int = 0,
    grad_transform: Callable[[ModelParams], ModelParams] | None = None,
    label: str = "",
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Random tiny fixtures (parameters, sentence, target, sample weight,
    dropout mask) are drawn per trial; fixtures adjacent to non-smooth
    points are skipped and redrawn. Relative error per entry is
    |a - n| / max(|a| + |n|, 1e-6); a block whose worst entry exceeds
    `tol` is flagged. `grad_transform`, when given, is applied to the
    analytic gradients first - a fault-injection hook for sensitivity
    tests of this harness.
    """
    if trials < 1 or h <= 0:
        raise ValueError("trials must be >= 1 and h > 0")
    rng = np.random.default_rng(seed)
    max_err: dict[str, float] = {}
    completed = 0
    skipped = 0
    attempts_left = trials * 50
    while completed < trials and attempts_left > 0:
        attempts_left -= 1
        trial_config = replace(config, seed=int(rng.integers(1 << 30)))
        params = init_params(trial_config)
        length = int(rng.integers(config.max_width, config.max_width + 4))
        sentence = rng.normal(size=(length, config.embedding_dim))
        mask_seed = int(rng.integers(1 << 30)) if config.dropout_rate > 0 else None
        mask_rng = np.random.default_rng(mask_seed) if mask_seed is not None else None
        trace = forward(params, sentence, rng=mask_rng)
        if not _fixture_is_smooth(trace, config.activation):
            skipped += 1
            continue
        target = int(rng.integers(config.num_classes))
        weight = float(rng.uniform(0.5, 2.0))
        analytic = backward(params, trace, target, weight)
        if grad_transform is not None:
            analytic = grad_transform(analytic)
        numeric = _numeric_gradients(params, sentence, target, weight, h, mask_seed)
        for (name, a), (_, n) in zip(analytic.named_blocks(), numeric.named_blocks()):
            err = float(np.max(np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), 1e-6)))
            max_err[name] = max(max_err.get(name, 0.0), err)
        completed += 1
    if completed < trials:
        raise RuntimeError("could not draw enough smooth gradient-check fixtures")
    flagged = sorted(name for name, err in max_err.items() if err > tol)
    return GradCheckReport(
        max_rel_error=max_err,
        flagged_blocks=flagged,
        trials=trials,
        skipped_fixtures=skipped,
        h=h,
        tol=tol,
        label=label,
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

METRICS_COLUMNS = ["run_id", "preset", "dataset", "epoch", "train_loss", "train_acc", "val_acc", "ms"]
SUMMARY_COLUMNS = [
    "run_id",
    "preset",
    "dataset",
    "accuracy",
    "accuracy_std",
    "convergence_epoch",
    "convergence_epoch_std",
    "macro_accuracy",
    "acc_class_0",
    "acc_class_1",
    "mean_true_class_prob",
    "max_rel_error",
    "flagged",
    "n",
]


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def strip_timing(payload):
    """Recursively drop wall-clock fields from a report payload.

    Timing is the one part of a report that cannot be bit-reproducible, so
    determinism comparisons run on the stripped form.
    """
    timing_keys = {"ms", "wall_ms", "median_ms", "mean_ms", "min_ms", "max_ms"}
    if isinstance(payload, dict):
        return {k: strip_timing(v) for k, v in payload.items() if k not in timing_keys}
    if isinstance(payload, list):
        return [strip_timing(v) for v in payload]
    return payload


def emit_report(reports, out_dir: str | Path) -> list[Path]:
    """Write metrics.csv, summary.csv, and report.md for the given reports.

    `reports` may be a single report object or a list mixing report types;
    each contributes its `report_rows()`. An empty list, or an object
    without that method, is rejected before anything touches the disk.
    """
    if reports is None:
        raise ValueError("no reports to emit")
    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    if len(reports) == 0:
        raise ValueError("no reports to emit")
    metric_rows: list[dict] = []
    summary_rows: list[dict] = []
    md_lines: list[str] = ["# Results\n"]
    for report in reports:
        if not hasattr(report, "report_rows"):
            raise TypeError(f"emit_report cannot handle {type(report).__name__}")
        m, s, md = report.report_rows()
        metric_rows.extend(m)
        summary_rows.extend(s)
        md_lines.extend(md)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.csv"
    write_atomic(metrics_path, _csv_text(METRICS_COLUMNS, metric_rows))
    summary_path = out / "summary.csv"
    write_atomic(summary_path, _csv_text(SUMMARY_COLUMNS, summary_rows))
    md_path = out / "report.md"
    write_atomic(md_path, "\n".join(md_lines) + "\n")
    return [metrics_path, summary_path, md_path]


def _csv_text(columns: list[str], rows: list[dict]) -> str:
    """RFC-4180 text of a header plus one line per row (CRLF line ends)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])
    return buffer.getvalue()
