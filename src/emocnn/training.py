"""Training loops: single runs, k-fold cross-validation, paired comparisons.

One driver covers both systems under study; they differ only in
configuration. Two presets encode them:

  * ``baseline-sota``: sigmoid activation, unweighted loss, filter widths
    2/3/4 with 2 maps each;
  * ``elreluwl``: continuous modified leaky ReLU (a = 0.03), class-weighted
    loss, filter widths 3/4/5 with 100 maps each.

Batch gradients are *summed* over the batch (one SGD step per batch); the
default learning rates assume that convention. Each batch is one packed
`network.train_step`. Per-epoch wall-clock times
are recorded but excluded from determinism comparisons - everything else
in a report is bit-reproducible for fixed seeds on one machine.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .corpus import LabeledDataset, kfold_split, shuffled_classes
from .embedding import EmbeddingTable, Vocabulary
from .evaluation import EvalResult, _fmt, eval_result, evaluate
from .functions import Activation, cross_entropy, weights_from_counts
from .network import (
    ModelParams,
    NetworkConfig,
    init_params,
    params_digest,
    score,
    sgd_step,
    train_step,
)

LOSS_MODES = ("unweighted", "weighted")
REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    network: NetworkConfig
    loss_mode: str = "weighted"
    learning_rate: float = 0.2
    batch_size: int = 100
    max_epochs: int = 30
    convergence_epsilon: float = 0.001
    convergence_patience: int = 3
    validation_fraction: float = 0.2

    def __post_init__(self):
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.convergence_patience < 1:
            raise ValueError("batch_size, max_epochs, and patience must be >= 1")
        if self.convergence_epsilon < 0:
            raise ValueError("convergence_epsilon must be >= 0")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must lie in (0, 1)")
        if not (self.learning_rate > 0):
            raise ValueError("learning_rate must be positive")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float
    ms: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainReport:
    """History and outcome of one training run.

    `train_loss` is the mean per-sample weighted cross-entropy of the epoch
    (the gradient convention stays sum-over-batch). Returned parameters are
    from the epoch with the best validation accuracy, whose digest is
    recorded here.
    """

    seed: int
    epochs: list[EpochStats]
    convergence_epoch: int
    best_validation_accuracy: float
    params_ref: str
    class_weights: dict[int, float]
    run_id: str = ""
    preset: str = ""
    dataset_name: str = ""

    def to_dict(self) -> dict:
        return {
            "version": REPORT_SCHEMA_VERSION,
            "run_id": self.run_id,
            "preset": self.preset,
            "dataset": self.dataset_name,
            "seed": self.seed,
            "epochs": [e.to_dict() for e in self.epochs],
            "convergence_epoch": self.convergence_epoch,
            "best_validation_accuracy": self.best_validation_accuracy,
            "params_ref": self.params_ref,
            "class_weights": {str(c): w for c, w in sorted(self.class_weights.items())},
        }

    def metric_rows(self):
        """One metrics.csv row per epoch."""
        for stats in self.epochs:
            yield {"run_id": self.run_id, "preset": self.preset, "dataset": self.dataset_name,
                   **stats.to_dict()}

    def summary_row(self, result: EvalResult | None = None) -> dict:
        """The summary.csv row of this run, scored on `result` when given."""
        if result:
            row = result.summary_row(self.run_id)
        else:
            row = {"run_id": self.run_id, "accuracy": self.best_validation_accuracy,
                   "n": len(self.epochs)}
        row.update(preset=self.preset, dataset=self.dataset_name,
                   convergence_epoch=self.convergence_epoch)
        return row

    def report_rows(self) -> tuple[list[dict], list[dict], list[str]]:
        """(metric rows, summary rows, markdown lines) for `emit_report`."""
        md = [
            f"## Training run `{self.run_id or 'train'}`\n",
            f"- preset: `{self.preset}`  dataset: `{self.dataset_name}`",
            f"- best validation accuracy: {_fmt(self.best_validation_accuracy)}",
            f"- convergence epoch: {self.convergence_epoch}",
            "",
        ]
        return list(self.metric_rows()), [self.summary_row()], md


@dataclass
class CvReport:
    k_folds: int
    seed: int
    fold_reports: list[TrainReport]
    fold_evals: list[EvalResult]
    aggregate: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "version": REPORT_SCHEMA_VERSION,
            "k_folds": self.k_folds,
            "seed": self.seed,
            "folds": [r.to_dict() for r in self.fold_reports],
            "fold_evals": [e.to_dict() for e in self.fold_evals],
            "aggregate": dict(self.aggregate),
        }

    def report_rows(self) -> tuple[list[dict], list[dict], list[str]]:
        """(metric rows, summary rows, markdown lines) for `emit_report`."""
        metric_rows: list[dict] = []
        summary_rows: list[dict] = []
        md = [
            f"## {self.k_folds}-fold cross-validation\n",
            "| fold | test accuracy | macro accuracy | convergence epoch |",
            "| --- | --- | --- | --- |",
        ]
        for fold_report, fold_eval in zip(self.fold_reports, self.fold_evals):
            metric_rows.extend(fold_report.metric_rows())
            summary_rows.append(fold_report.summary_row(fold_eval))
            md.append(
                f"| {fold_report.run_id} | {_fmt(fold_eval.accuracy)} "
                f"| {_fmt(fold_eval.macro_accuracy)} | {fold_report.convergence_epoch} |"
            )
        agg = self.aggregate
        summary_rows.append(
            {
                "run_id": "aggregate",
                "preset": self.fold_reports[0].preset,
                "dataset": self.fold_reports[0].dataset_name,
                "accuracy": agg["accuracy_mean"],
                "accuracy_std": agg["accuracy_std"],
                "convergence_epoch": agg["convergence_epoch_mean"],
                "convergence_epoch_std": agg["convergence_epoch_std"],
                "macro_accuracy": agg["macro_accuracy_mean"],
                "n": self.k_folds,
            }
        )
        md.append(
            f"\nMean accuracy {_fmt(agg['accuracy_mean'])} "
            f"(std {_fmt(agg['accuracy_std'])}), "
            f"mean convergence epoch {_fmt(agg['convergence_epoch_mean'])} "
            f"(std {_fmt(agg['convergence_epoch_std'])}).\n"
        )
        return metric_rows, summary_rows, md


@dataclass
class ArmResult:
    """One side of a paired comparison for one seed."""

    label: str
    report: TrainReport
    result: EvalResult
    wall_ms: float

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "report": self.report.to_dict(),
            "eval": self.result.to_dict(),
            "wall_ms": self.wall_ms,
        }


@dataclass
class ComparisonRow:
    seed: int
    baseline: ArmResult
    proposed: ArmResult

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "baseline": self.baseline.to_dict(),
            "proposed": self.proposed.to_dict(),
        }


@dataclass
class ComparisonReport:
    seeds: list[int]
    rows: list[ComparisonRow]
    win_counts: dict[str, int]
    baseline_label: str = "baseline"
    proposed_label: str = "proposed"

    def to_dict(self) -> dict:
        return {
            "version": REPORT_SCHEMA_VERSION,
            "seeds": list(self.seeds),
            "baseline_label": self.baseline_label,
            "proposed_label": self.proposed_label,
            "rows": [r.to_dict() for r in self.rows],
            "win_counts": dict(self.win_counts),
        }

    def report_rows(self) -> tuple[list[dict], list[dict], list[str]]:
        """(metric rows, summary rows, markdown lines) for `emit_report`."""
        metric_rows: list[dict] = []
        summary_rows: list[dict] = []
        base, prop = f"baseline ({self.baseline_label})", f"proposed ({self.proposed_label})"
        md = [
            "## Paired comparison\n",
            f"| seed | {base} accuracy | {base} epochs | {prop} accuracy | {prop} epochs |",
            "| --- | --- | --- | --- | --- |",
        ]
        for row in self.rows:
            for arm in (row.baseline, row.proposed):
                metric_rows.extend(arm.report.metric_rows())
                summary_rows.append(arm.report.summary_row(arm.result))
            md.append(
                f"| {row.seed} | {_fmt(row.baseline.result.accuracy)} "
                f"| {row.baseline.report.convergence_epoch} "
                f"| {_fmt(row.proposed.result.accuracy)} "
                f"| {row.proposed.report.convergence_epoch} |"
            )
        md.append("")
        for name, value in sorted(self.win_counts.items()):
            md.append(f"- {name}: {value}")
        md.append("")
        return metric_rows, summary_rows, md


def early_stop(history, epsilon: float, patience: int) -> tuple[int, bool]:
    """(best-validation epoch, whether the rule triggered) under the
    epsilon/patience early-stop rule.

    Training counts as converged once `patience` consecutive epochs fail to
    beat the running best by more than `epsilon`; the epoch is the (1-based)
    one holding the running best at that point, or over the full history
    if the rule never triggers.
    """
    history = list(history)
    if not history:
        raise ValueError("history must be non-empty")
    best = -np.inf
    best_epoch = 0
    misses = 0
    for epoch, acc in enumerate(history, start=1):
        if acc > best + epsilon:
            misses = 0
        else:
            misses += 1
        if acc > best:
            best = acc
            best_epoch = epoch
        if misses >= patience:
            return best_epoch, True
    return best_epoch, False


def _stratified_split(dataset: LabeledDataset, fraction: float, rng) -> tuple[list[int], list[int]]:
    """Per class, carve off `fraction` of documents (at least one per side)."""
    held: list[int] = []
    rest: list[int] = []
    for label, idx in shuffled_classes(dataset, rng):
        if len(idx) < 2:
            raise ValueError(f"class {label} has too few documents to split")
        n_held = min(max(1, int(fraction * len(idx))), len(idx) - 1)
        held.extend(int(i) for i in idx[:n_held])
        rest.extend(int(i) for i in idx[n_held:])
    return sorted(rest), sorted(held)


def train(
    dataset: LabeledDataset,
    embeddings: tuple[Vocabulary, EmbeddingTable],
    config: TrainConfig,
    run_id: str = "",
    preset: str = "",
    dataset_name: str = "",
) -> tuple[ModelParams, TrainReport]:
    """Train one model; return the best-validation-epoch parameters.

    A stratified validation split is carved from the given data first;
    class weights (weighted mode) come from the remaining training split
    only. Each epoch runs a seeded shuffle and summed-gradient batches,
    then scores the validation split in one `score` pass. Training stops at
    `max_epochs` or once the convergence rule triggers. Documents are
    indexed once per call, and each batch is one packed `train_step`.
    `config.network.seed` seeds the split, shuffles, dropout and init.
    """
    if dataset.k < 2:
        raise ValueError("training needs at least two classes in the dataset")
    vocab, table = embeddings
    net = config.network
    if net.embedding_dim != table.dim:
        raise ValueError(
            f"network expects embedding_dim={net.embedding_dim}, table has {table.dim}"
        )
    rng = np.random.default_rng(net.seed)
    train_idx, val_idx = _stratified_split(dataset, config.validation_fraction, rng)
    train_docs = [dataset.documents[i] for i in train_idx]
    val_set = dataset.subset(val_idx)
    train_ids = [vocab.indices(doc.tokens) for doc in train_docs]
    val_ids = [vocab.indices(doc.tokens) for doc in val_set.documents]

    if config.loss_mode == "weighted":
        weights = weights_from_counts(LabeledDataset.from_documents(train_docs).class_counts)
    else:
        weights = {c: 1.0 for c in dataset.class_counts}

    params = init_params(net)
    best_params = params
    best_epoch = 0
    history: list[EpochStats] = []

    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(len(train_docs))
        epoch_loss = 0.0
        correct = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            labels = [train_docs[i].label for i in batch]
            probs, batch_grads = train_step(params, table.vectors, [train_ids[i] for i in batch],
                                            labels, [weights[c] for c in labels], rng)
            for doc_probs, label in zip(probs, labels):
                loss = cross_entropy(doc_probs, label, weights[label])
                if not np.isfinite(loss):
                    raise ValueError(
                        f"non-finite loss at epoch {epoch}, "
                        f"batch {start // config.batch_size}"
                    )
                epoch_loss += loss
                correct += int(np.argmax(doc_probs)) == label
            params = sgd_step(params, batch_grads, config.learning_rate)

        val_acc = eval_result(val_set, score(params, table.vectors, val_ids)).accuracy
        elapsed_ms = (time.perf_counter() - started) * 1000.0

        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=epoch_loss / len(train_docs),
                train_acc=correct / len(train_docs),
                val_acc=val_acc,
                ms=elapsed_ms,
            )
        )
        best_epoch, stop = early_stop(
            [e.val_acc for e in history], config.convergence_epsilon, config.convergence_patience
        )
        if best_epoch == epoch:
            best_params = params
        if stop:
            break

    report = TrainReport(
        seed=net.seed,
        epochs=history,
        convergence_epoch=best_epoch,
        best_validation_accuracy=float(max(e.val_acc for e in history)),
        params_ref=params_digest(best_params),
        class_weights=dict(weights),
        run_id=run_id,
        preset=preset,
        dataset_name=dataset_name,
    )
    return best_params, report


def _fold_seeds(seed: int, k_folds: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k_folds)]


def _pin_seed(config: TrainConfig, seed: int) -> TrainConfig:
    """`config` with its run seed, `config.network.seed`, set to `seed`."""
    return replace(config, network=replace(config.network, seed=seed))


def run_fold_cv(
    dataset: LabeledDataset,
    embeddings: tuple[Vocabulary, EmbeddingTable],
    config: TrainConfig,
    k_folds: int,
    seed: int,
    preset: str = "",
    dataset_name: str = "",
) -> CvReport:
    """Stratified k-fold cross-validation of one configuration.

    Each fold trains on the remainder (with its own internal validation
    split) and is scored on the held-out fold. Aggregates report the mean
    and sample standard deviation over folds.
    """
    plan = kfold_split(dataset, k_folds, seed)
    fold_reports: list[TrainReport] = []
    fold_evals: list[EvalResult] = []
    for fold, fold_seed in enumerate(_fold_seeds(seed, k_folds)):
        train_ds = dataset.subset(plan.rest_indices(fold))
        test_ds = dataset.subset(plan.fold_indices(fold))
        params, report = train(
            train_ds,
            embeddings,
            _pin_seed(config, fold_seed),
            run_id=f"fold{fold}",
            preset=preset,
            dataset_name=dataset_name,
        )
        fold_reports.append(report)
        fold_evals.append(evaluate(params, embeddings, test_ds))

    accuracies = np.array([e.accuracy for e in fold_evals])
    macro = np.array([e.macro_accuracy for e in fold_evals])
    epochs = np.array([r.convergence_epoch for r in fold_reports], dtype=np.float64)
    aggregate = {
        "accuracy_mean": float(accuracies.mean()),
        "accuracy_std": float(accuracies.std(ddof=1)) if k_folds > 1 else 0.0,
        "macro_accuracy_mean": float(macro.mean()),
        "convergence_epoch_mean": float(epochs.mean()),
        "convergence_epoch_std": float(epochs.std(ddof=1)) if k_folds > 1 else 0.0,
    }
    return CvReport(
        k_folds=k_folds,
        seed=seed,
        fold_reports=fold_reports,
        fold_evals=fold_evals,
        aggregate=aggregate,
    )


def compare_runs(
    dataset: LabeledDataset,
    embeddings: tuple[Vocabulary, EmbeddingTable],
    baseline: TrainConfig,
    proposed: TrainConfig,
    seeds,
    baseline_label: str = "baseline",
    proposed_label: str = "proposed",
    dataset_name: str = "",
    test_fraction: float = 0.2,
) -> ComparisonReport:
    """Train both configurations on identical splits for each seed.

    Per seed, a stratified test portion is held out, both arms train on the
    remainder with all seeds pinned to the run seed, and test accuracy,
    per-class accuracy, convergence epoch, and wall time are recorded as a
    paired row. Win counts summarize the pairing.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed to compare")
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rows: list[ComparisonRow] = []
    for seed in seeds:
        split_rng = np.random.default_rng(seed)
        train_idx, test_idx = _stratified_split(dataset, test_fraction, split_rng)
        train_ds = dataset.subset(train_idx)
        test_ds = dataset.subset(test_idx)
        arms = []  # by position: the two labels may be equal
        for label, config, arm in ((baseline_label, baseline, "baseline"),
                                   (proposed_label, proposed, "proposed")):
            tag = label if baseline_label != proposed_label else f"{label}-{arm}"
            started = time.perf_counter()
            params, report = train(
                train_ds,
                embeddings,
                _pin_seed(config, seed),
                run_id=f"{tag}-seed{seed}",
                preset=label,
                dataset_name=dataset_name,
            )
            wall_ms = (time.perf_counter() - started) * 1000.0
            arms.append(ArmResult(
                label=label,
                report=report,
                result=evaluate(params, embeddings, test_ds),
                wall_ms=wall_ms,
            ))
        rows.append(ComparisonRow(seed, *arms))

    win_counts = {
        "accuracy_proposed_wins": sum(
            1 for r in rows if r.proposed.result.accuracy > r.baseline.result.accuracy
        ),
        "accuracy_baseline_wins": sum(
            1 for r in rows if r.baseline.result.accuracy > r.proposed.result.accuracy
        ),
        "accuracy_ties": sum(
            1 for r in rows if r.baseline.result.accuracy == r.proposed.result.accuracy
        ),
        "convergence_proposed_not_slower": sum(
            1
            for r in rows
            if r.proposed.report.convergence_epoch <= r.baseline.report.convergence_epoch
        ),
    }
    return ComparisonReport(
        seeds=seeds,
        rows=rows,
        win_counts=win_counts,
        baseline_label=baseline_label,
        proposed_label=proposed_label,
    )


PRESETS = {
    "baseline-sota": {
        "activation": Activation("sigmoid"),
        "loss_mode": "unweighted",
        "filter_widths": (2, 3, 4),
        "maps_per_width": 2,
    },
    "elreluwl": {
        "activation": Activation("mlrelu-continuous", 0.03),
        "loss_mode": "weighted",
        "filter_widths": (3, 4, 5),
        "maps_per_width": 100,
    },
}


def preset_config(name: str, embedding_dim: int, seed: int = 0, **overrides) -> TrainConfig:
    """Materialize a named preset into a TrainConfig.

    `seed` is the network's seed, the one seed of the run (see `train`). Keyword
    overrides may be a preset field (`activation`, `loss_mode`,
    `filter_widths`, `maps_per_width`), `dropout_rate`, or any other
    `TrainConfig` field (`learning_rate`, `batch_size`, `max_epochs`,
    `convergence_epsilon`, `convergence_patience`, `validation_fraction`);
    any other key is a ValueError. Settings not given keep the defaults of
    `TrainConfig` and `NetworkConfig`.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    network_keys = ("activation", "filter_widths", "maps_per_width", "dropout_rate")
    allowed = {f.name for f in fields(TrainConfig)} - {"network"}
    unknown = set(overrides) - allowed - set(network_keys)
    if unknown:
        raise ValueError(f"unknown preset overrides: {sorted(unknown)}")
    settings = {**PRESETS[name], **overrides}
    network = NetworkConfig(
        embedding_dim=embedding_dim,
        seed=seed,
        **{key: settings.pop(key) for key in network_keys if key in settings},
    )
    return TrainConfig(network=network, **settings)
