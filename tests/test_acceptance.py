"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Everything is seeded; the runs here are deterministic on a given
machine. Wall-clock fields are excluded from the bit-reproducibility
checks (criterion 8) since timing can never reproduce exactly.
"""

import csv
import json
import os
import time

import numpy as np
import pytest

from emocnn.cli import main
from emocnn.corpus import imbalanced_synth_corpus, load_polarity_dir, synth_corpus
from emocnn.embedding import CbowConfig, build_vocab, train_cbow
from emocnn.evaluation import (
    METRICS_COLUMNS,
    SUMMARY_COLUMNS,
    evaluate,
    gradient_check,
    strip_timing,
)
from emocnn.functions import (
    ACTIVATION_KINDS,
    Activation,
    activation_grad,
    weights_from_counts,
)
from emocnn.network import NetworkConfig
from emocnn.training import (
    TrainConfig,
    compare_runs,
    preset_config,
    train,
    _stratified_split,
)


def _report(criterion: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion} [{status}] {description}{suffix}")
    assert passed, f"criterion {criterion}: {description}{suffix}"


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    flagged = []
    for kind in ACTIVATION_KINDS:
        config = NetworkConfig(
            filter_widths=(2, 3), maps_per_width=2, embedding_dim=3,
            dropout_rate=0.4, activation=Activation(kind), seed=0,
        )
        report = gradient_check(config, trials=100, h=1e-5, tol=1e-4, seed=42, label=kind)
        worst = max(worst, report.worst)
        flagged.extend(f"{kind}:{b}" for b in report.flagged_blocks)
    elapsed = time.perf_counter() - started
    _report(
        1,
        "analytic gradients match central differences (100 trials, all kinds)",
        not flagged and worst <= 1e-4 and elapsed < 120,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_weight_algebra():
    rng = np.random.default_rng(42)
    max_gap = 0.0
    for _ in range(1000):
        counts = {0: int(rng.integers(1, 2000)), 1: int(rng.integers(1, 2000))}
        weights = weights_from_counts(counts)
        total = sum(weights[c] * m for c, m in counts.items())
        max_gap = max(max_gap, abs(total - sum(counts.values())))
    skewed = weights_from_counts({1: 1000, 0: 2000})
    balanced = weights_from_counts({0: 1000, 1: 1000})
    _report(
        2,
        "weight-sum identity and exact weights for known class counts",
        max_gap < 1e-9
        and skewed[1] == 1.5
        and skewed[0] == 0.75
        and balanced[0] == 1.0
        and balanced[1] == 1.0,
        f"max |sum - n| = {max_gap:.2e}",
    )


def test_criterion_3_balanced_reduction():
    dataset = synth_corpus(n_per_class=40, vocab_size=24, doc_len=10,
                           signal_strength=1.0, seed=11)
    vocab = build_vocab(dataset, min_count=1)
    table = train_cbow(dataset, vocab, CbowConfig(window=2, dim=8, negatives=3,
                                                  epochs=1, seed=11))
    network = NetworkConfig(filter_widths=(2, 3), maps_per_width=4, embedding_dim=8,
                            dropout_rate=0.2, activation=Activation("mlrelu-continuous"), seed=5)
    base = dict(network=network, learning_rate=0.05, batch_size=8, max_epochs=4)
    _, weighted = train(dataset, (vocab, table), TrainConfig(loss_mode="weighted", **base))
    _, unweighted = train(dataset, (vocab, table), TrainConfig(loss_mode="unweighted", **base))
    gaps = [
        abs(a.train_loss - b.train_loss)
        for a, b in zip(weighted.epochs, unweighted.epochs)
    ]
    _report(
        3,
        "weighted and unweighted training coincide on balanced data",
        len(gaps) == len(weighted.epochs) == len(unweighted.epochs)
        and max(gaps) < 1e-12,
        f"max per-epoch loss gap {max(gaps):.2e}",
    )


def test_criterion_4_no_saturation():
    rng = np.random.default_rng(42)
    x = rng.uniform(-50.0, 50.0, size=1_000_000)
    ok = True
    for act in (Activation("mlrelu-continuous", 0.03), Activation("mlrelu-literal", 0.03)):
        grads = np.abs(activation_grad(act, x))
        ok = ok and bool(np.all((grads == 0.03) | (grads == 1.0))) and not np.any(grads == 0.0)
    tails = rng.uniform(10.0, 50.0, size=100_000) * rng.choice([-1.0, 1.0], size=100_000)
    sigmoid_tail = np.abs(activation_grad(Activation("sigmoid"), tails))
    contrast = bool(np.all(sigmoid_tail < 1e-4))
    _report(
        4,
        "modified activations never saturate; sigmoid tails do",
        ok and contrast,
        f"sigmoid tail max grad {sigmoid_tail.max():.2e}",
    )


def test_criterion_5_imbalance_remediation():
    # Early-training regime on a fully separable 2:1 corpus: with a fixed
    # two-epoch budget the unweighted model is still majority-dominated
    # while class weighting equalizes the per-class gradient mass.
    dataset = imbalanced_synth_corpus(n_negative=200, n_positive=100, vocab_size=100,
                                      doc_len=8, signal_strength=0.7, seed=7)
    vocab = build_vocab(dataset, min_count=1)
    table = train_cbow(dataset, vocab, CbowConfig(window=2, dim=10, negatives=5,
                                                  epochs=3, seed=7))
    wins = 0
    pairs = []
    for seed in (1, 2, 3, 4, 5):
        rng = np.random.default_rng(seed)
        train_idx, test_idx = _stratified_split(dataset, 0.25, rng)
        train_ds, test_ds = dataset.subset(train_idx), dataset.subset(test_idx)
        minority = {}
        for mode in ("weighted", "unweighted"):
            network = NetworkConfig(filter_widths=(2, 3), maps_per_width=2,
                                    embedding_dim=10, dropout_rate=0.4,
                                    activation=Activation("mlrelu-continuous"), seed=seed)
            config = TrainConfig(network=network, loss_mode=mode, learning_rate=0.005,
                                 batch_size=10, max_epochs=2)
            params, _ = train(train_ds, (vocab, table), config)
            minority[mode] = evaluate(params, (vocab, table), test_ds).per_class_accuracy[1]
        wins += minority["weighted"] > minority["unweighted"]
        pairs.append((round(minority["weighted"], 2), round(minority["unweighted"], 2)))
    _report(
        5,
        "class weighting lifts minority accuracy on a 2:1 corpus in >= 4/5 seeds",
        wins >= 4,
        f"wins {wins}/5, (weighted, unweighted) per seed: {pairs}",
    )


def test_criterion_6_convergence_speed_trend():
    dataset = synth_corpus(n_per_class=200, vocab_size=50, doc_len=30,
                           signal_strength=0.8, seed=7)
    vocab = build_vocab(dataset, min_count=1)
    table = train_cbow(dataset, vocab, CbowConfig(window=2, dim=16, negatives=5,
                                                  epochs=3, seed=7))
    shared = dict(learning_rate=0.05, batch_size=20, max_epochs=25, convergence_patience=3)
    baseline = preset_config("baseline-sota", embedding_dim=16, **shared)
    proposed = preset_config("elreluwl", embedding_dim=16, **shared)
    report = compare_runs(dataset, (vocab, table), baseline, proposed,
                          seeds=[1, 2, 3, 4, 5],
                          baseline_label="baseline-sota", proposed_label="elreluwl")
    wins = report.win_counts["convergence_proposed_not_slower"]
    epochs = [
        (r.proposed.report.convergence_epoch, r.baseline.report.convergence_epoch)
        for r in report.rows
    ]
    _report(
        6,
        "elreluwl preset converges no slower than baseline-sota in >= 4/5 seeds",
        wins >= 4,
        f"wins {wins}/5, (proposed, baseline) epochs: {epochs}",
    )


def test_criterion_7_separable_corpus_sanity():
    started = time.perf_counter()
    dataset = synth_corpus(n_per_class=200, vocab_size=50, doc_len=30,
                           signal_strength=1.0, seed=7)
    vocab = build_vocab(dataset, min_count=1)
    table = train_cbow(dataset, vocab, CbowConfig(window=2, dim=16, negatives=5,
                                                  epochs=3, seed=7))
    config = preset_config("elreluwl", embedding_dim=16, seed=1, max_epochs=20)
    _, report = train(dataset, (vocab, table), config)
    elapsed = time.perf_counter() - started
    _report(
        7,
        "elreluwl preset reaches 95% validation accuracy on a separable corpus",
        report.best_validation_accuracy >= 0.95
        and len(report.epochs) <= 20
        and elapsed < 300,
        f"best {report.best_validation_accuracy:.3f} in {len(report.epochs)} epochs, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_end_to_end_pipeline(tmp_path):
    started = time.perf_counter()
    data_dir = tmp_path / "data"
    emb_dir = tmp_path / "emb"
    run = dict(
        train=tmp_path / "train",
        eval=tmp_path / "eval",
        cv=tmp_path / "cv",
        compare=tmp_path / "compare",
    )
    fast = ["--lr", "0.05", "--batch", "10", "--max-epochs", "6", "--dropout", "0.2"]

    assert main(["prepare", "--format", "synth",
                 "--spec", "n=100,vocab=30,len=12,signal=1.0,seed=5",
                 "--out", str(data_dir)]) == 0
    data = str(data_dir / "dataset.json")
    assert main(["embed", "--data", data, "--dim", "8", "--epochs", "2",
                 "--seed", "5", "--out", str(emb_dir)]) == 0
    emb = str(emb_dir / "embeddings.json")
    assert main(["train", "--data", data, "--embeddings", emb,
                 "--preset", "elreluwl", *fast, "--out", str(run["train"])]) == 0
    assert main(["eval", "--model", str(run["train"] / "model.json"),
                 "--data", data, "--embeddings", emb,
                 "--strata", "2", "--per-stratum", "10",
                 "--out", str(run["eval"])]) == 0
    assert main(["cv", "--data", data, "--embeddings", emb,
                 "--preset", "elreluwl", *fast, "--folds", "3", "--seed", "3",
                 "--out", str(run["cv"])]) == 0
    assert main(["compare", "--data", data, "--embeddings", emb,
                 "--seeds", "1,2", *fast, "--out", str(run["compare"])]) == 0

    # Emitted files are schema-valid for every stage.
    schema_ok = True
    for out in run.values():
        with (out / "metrics.csv").open(newline="") as handle:
            metrics = list(csv.DictReader(handle))
        with (out / "summary.csv").open(newline="") as handle:
            summary = list(csv.DictReader(handle))
        schema_ok = schema_ok and (not metrics or list(metrics[0]) == METRICS_COLUMNS)
        schema_ok = schema_ok and list(summary[0]) == SUMMARY_COLUMNS
        schema_ok = schema_ok and (out / "report.md").read_text().startswith("# Results")
        schema_ok = schema_ok and (out / "manifest.json").is_file()

    # Replaying the training manifest reproduces outputs (timing aside,
    # which is physically unreproducible).
    replay = tmp_path / "replay"
    assert main(["rerun", str(run["train"] / "manifest.json"), "--out", str(replay)]) == 0
    model_identical = (
        (run["train"] / "model.json").read_bytes() == (replay / "model.json").read_bytes()
    )
    report_a = strip_timing(json.loads((run["train"] / "train_report.json").read_text()))
    report_b = strip_timing(json.loads((replay / "train_report.json").read_text()))

    def metrics_without_ms(path):
        with path.open(newline="") as handle:
            return [
                {k: v for k, v in row.items() if k != "ms"}
                for row in csv.DictReader(handle)
            ]

    csv_identical = metrics_without_ms(run["train"] / "metrics.csv") == metrics_without_ms(
        replay / "metrics.csv"
    )
    elapsed = time.perf_counter() - started
    _report(
        8,
        "prepare/embed/train/eval/cv/compare pipeline with reproducible replay",
        schema_ok and model_identical and report_a == report_b and csv_identical
        and elapsed < 600,
        f"{elapsed:.1f}s",
    )


@pytest.mark.skipif(
    "EMOCNN_POLARITY_DIR" not in os.environ,
    reason="hours-scale real-data reproduction; set EMOCNN_POLARITY_DIR to run",
)
def test_criterion_9_full_polarity_reproduction():
    # Full-size run over the public 2000-review polarity tree. Sensitive to
    # the tokenizer, so only the broad accuracy band is asserted.
    from emocnn.training import run_fold_cv

    dataset = load_polarity_dir(os.environ["EMOCNN_POLARITY_DIR"])
    vocab = build_vocab(dataset, min_count=5)
    table = train_cbow(dataset, vocab, CbowConfig(window=2, dim=200, negatives=5,
                                                  epochs=3, seed=7))
    config = preset_config("elreluwl", embedding_dim=200, max_epochs=30,
                           learning_rate=0.01, batch_size=50)
    report = run_fold_cv(dataset, (vocab, table), config, k_folds=5, seed=7)
    mean_acc = report.aggregate["accuracy_mean"]
    _report(
        9,
        "five-fold polarity accuracy lands in the 84-97% band",
        0.84 <= mean_acc <= 0.97,
        f"mean accuracy {mean_acc:.4f}",
    )
