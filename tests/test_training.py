"""Tests for the training loop, convergence rule, cross-validation, comparison."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from emocnn.corpus import imbalanced_synth_corpus, synth_corpus
from emocnn.embedding import build_vocab, init_random_embeddings, train_cbow, CbowConfig
from emocnn.evaluation import emit_report, strip_timing
from emocnn.functions import Activation
from emocnn.network import NetworkConfig, params_digest
from emocnn.training import (
    ComparisonReport,
    TrainConfig,
    compare_runs,
    early_stop,
    preset_config,
    run_fold_cv,
    train,
)


def small_config(dim=8, seed=0, **overrides):
    network = NetworkConfig(
        filter_widths=(2, 3),
        maps_per_width=4,
        embedding_dim=dim,
        dropout_rate=0.2,
        activation=Activation("mlrelu-continuous"),
        seed=seed,
    )
    base = dict(
        network=network,
        loss_mode="weighted",
        learning_rate=0.05,
        batch_size=16,
        max_epochs=8,
        convergence_epsilon=0.001,
        convergence_patience=3,
        validation_fraction=0.2,
    )
    base.update(overrides)
    return TrainConfig(**base)


def first_trigger(history, epsilon, patience):
    """First 1-based t at which each of the last `patience` epochs of
    history[:t] fails to beat the best before it by more than `epsilon`."""
    for t in range(patience, len(history) + 1):
        if all(history[i] <= max(history[:i], default=-np.inf) + epsilon
               for i in range(t - patience, t)):
            return t
    return None


@pytest.fixture(scope="module")
def small_corpus_and_embeddings():
    dataset = synth_corpus(n_per_class=40, vocab_size=24, doc_len=10,
                           signal_strength=1.0, seed=11)
    vocab = build_vocab(dataset, min_count=1)
    table = init_random_embeddings(vocab, dim=8, seed=5)
    return dataset, (vocab, table)


class TestConvergenceEpoch:
    def test_plateau_returns_best_epoch(self):
        assert early_stop([0.5, 0.7, 0.9, 0.9, 0.9], 0.001, 2)[0] == 3

    def test_monotone_history_never_converges_early(self):
        assert early_stop([0.5, 0.6, 0.7, 0.8, 0.9], 0.001, 2)[0] == 5

    def test_constant_history_returns_first_epoch(self):
        assert early_stop([0.8, 0.8, 0.8], 0.001, 2)[0] == 1

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            early_stop([], 0.001, 2)[0]


class TestTrain:
    def test_weighted_equals_unweighted_on_balanced_data(self, small_corpus_and_embeddings):
        dataset, embeddings = small_corpus_and_embeddings
        config = small_config(max_epochs=4)
        _, weighted = train(dataset, embeddings, config)
        _, unweighted = train(dataset, embeddings, replace(config, loss_mode="unweighted"))
        assert all(w == 1.0 for w in weighted.class_weights.values())
        for a, b in zip(weighted.epochs, unweighted.epochs):
            assert abs(a.train_loss - b.train_loss) < 1e-12
            assert a.val_acc == b.val_acc

    def test_learns_separable_corpus(self, small_corpus_and_embeddings):
        dataset, embeddings = small_corpus_and_embeddings
        config = small_config(max_epochs=20, batch_size=8, convergence_patience=5)
        _, report = train(dataset, embeddings, config)
        assert report.best_validation_accuracy >= 0.95

    def test_single_epoch_bounds(self, small_corpus_and_embeddings):
        dataset, embeddings = small_corpus_and_embeddings
        _, report = train(dataset, embeddings, small_config(max_epochs=1))
        assert len(report.epochs) == 1
        assert report.convergence_epoch == 1

    def test_single_class_dataset_rejected(self, small_corpus_and_embeddings):
        dataset, embeddings = small_corpus_and_embeddings
        only_pos = dataset.subset(
            [i for i, d in enumerate(dataset.documents) if d.label == 1]
        )
        with pytest.raises(ValueError):
            train(only_pos, embeddings, small_config())

    def test_deterministic_given_seed(self, small_corpus_and_embeddings):
        dataset, embeddings = small_corpus_and_embeddings
        config = small_config(max_epochs=3, seed=9)
        params1, report1 = train(dataset, embeddings, config)
        params2, report2 = train(dataset, embeddings, config)
        assert report1.seed == config.network.seed == 9  # the network seed is the run's one seed
        assert params_digest(params1) == params_digest(params2)
        assert json.dumps(strip_timing(report1.to_dict())) == json.dumps(
            strip_timing(report2.to_dict())
        )

    def test_returns_best_epoch_parameters(self, small_corpus_and_embeddings):
        dataset, embeddings = small_corpus_and_embeddings
        params, report = train(dataset, embeddings, small_config(max_epochs=6))
        assert report.params_ref == params_digest(params)
        assert report.best_validation_accuracy == max(e.val_acc for e in report.epochs)

    def test_class_weights_come_from_training_split_only(self):
        # 5/9 split with fraction 0.2 holds out one document per class, so
        # the training split is 4/8 and weights must be 12/8 and 12/16 --
        # not the 14/10 and 14/18 the full dataset would give.
        dataset = imbalanced_synth_corpus(
            n_negative=9, n_positive=5, vocab_size=16, doc_len=8,
            signal_strength=1.0, seed=2,
        )
        vocab = build_vocab(dataset, min_count=1)
        table = init_random_embeddings(vocab, dim=8, seed=5)
        _, report = train(dataset, (vocab, table), small_config(max_epochs=1, batch_size=4))
        assert report.class_weights[1] == 12 / (2 * 4)
        assert report.class_weights[0] == 12 / (2 * 8)

    def test_embedding_dim_mismatch_rejected(self, small_corpus_and_embeddings):
        dataset, (vocab, _) = small_corpus_and_embeddings
        wrong = init_random_embeddings(vocab, dim=5, seed=1)
        with pytest.raises(ValueError):
            train(dataset, (vocab, wrong), small_config(dim=8))

    def test_early_stop_soundness(self, small_corpus_and_embeddings):
        dataset, embeddings = small_corpus_and_embeddings
        config = small_config(max_epochs=30, convergence_patience=2)
        _, report = train(dataset, embeddings, config)
        best_epoch = int(np.argmax([e.val_acc for e in report.epochs])) + 1
        assert len(report.epochs) <= best_epoch + config.convergence_patience
        stop = first_trigger([e.val_acc for e in report.epochs],
                             config.convergence_epsilon, config.convergence_patience)
        assert len(report.epochs) == (stop or config.max_epochs)


class TestRunFoldCv:
    def test_fold_sizes_and_aggregate(self, small_corpus_and_embeddings):
        dataset, embeddings = small_corpus_and_embeddings
        report = run_fold_cv(
            dataset, embeddings, small_config(max_epochs=2), k_folds=4, seed=3
        )
        assert report.k_folds == 4
        assert all(e.n_evaluated == 20 for e in report.fold_evals)
        mean = np.mean([e.accuracy for e in report.fold_evals])
        assert abs(report.aggregate["accuracy_mean"] - mean) < 1e-12

    def test_deterministic(self, small_corpus_and_embeddings):
        dataset, embeddings = small_corpus_and_embeddings
        config = small_config(max_epochs=2)
        a = run_fold_cv(dataset, embeddings, config, k_folds=3, seed=3)
        b = run_fold_cv(dataset, embeddings, config, k_folds=3, seed=3)
        assert json.dumps(strip_timing(a.to_dict())) == json.dumps(
            strip_timing(b.to_dict())
        )


class TestCompareRuns:
    def test_identical_configs_tie_on_every_seed(self, small_corpus_and_embeddings):
        dataset, embeddings = small_corpus_and_embeddings
        config = small_config(max_epochs=2)
        report = compare_runs(dataset, embeddings, config, config, seeds=[1, 2])
        assert isinstance(report, ComparisonReport)
        for row in report.rows:
            assert row.baseline.result.accuracy == row.proposed.result.accuracy
            assert (
                row.baseline.report.convergence_epoch
                == row.proposed.report.convergence_epoch
            )
        assert report.win_counts["accuracy_ties"] == 2

    def test_empty_seed_list_rejected(self, small_corpus_and_embeddings):
        dataset, embeddings = small_corpus_and_embeddings
        config = small_config()
        with pytest.raises(ValueError):
            compare_runs(dataset, embeddings, config, config, seeds=[])

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.0, 1.5])
    def test_test_fraction_outside_the_open_unit_interval_rejected(
            self, small_corpus_and_embeddings, fraction):
        dataset, embeddings = small_corpus_and_embeddings
        config = small_config()
        with pytest.raises(ValueError, match="test_fraction must lie in"):
            compare_runs(dataset, embeddings, config, config, seeds=[1], test_fraction=fraction)

    def test_equal_labels_keep_both_arms(self, small_corpus_and_embeddings, tmp_path):
        dataset, embeddings = small_corpus_and_embeddings
        baseline = preset_config("baseline-sota", embedding_dim=8, max_epochs=2)
        proposed = preset_config("elreluwl", embedding_dim=8, maps_per_width=4, max_epochs=2)
        report = compare_runs(dataset, embeddings, baseline, proposed, seeds=[1],
                              baseline_label="x", proposed_label="x")
        (row,) = report.rows
        assert row.baseline is not row.proposed
        assert row.baseline.report.params_ref != row.proposed.report.params_ref
        emit_report(report, tmp_path)
        for name in ("summary.csv", "metrics.csv"):
            with open(tmp_path / name, newline="") as f:
                run_ids = {r["run_id"] for r in csv.DictReader(f)}
            assert run_ids == {"x-baseline-seed1", "x-proposed-seed1"}

    def test_equal_labels_get_distinct_report_headers(self):
        report = ComparisonReport(seeds=[1], rows=[], win_counts={},
                                  baseline_label="elreluwl", proposed_label="elreluwl")
        _, _, md = report.report_rows()
        header = next(line for line in md if line.startswith("| seed |"))
        columns = [c.strip() for c in header.strip("|").split("|")]
        assert columns == ["seed", "baseline (elreluwl) accuracy", "baseline (elreluwl) epochs",
                           "proposed (elreluwl) accuracy", "proposed (elreluwl) epochs"]
        assert len(set(columns)) == len(columns)


class TestPresets:
    def test_proposed_preset_composition(self):
        config = preset_config("elreluwl", embedding_dim=16)
        assert config.network.activation == Activation("mlrelu-continuous", 0.03)
        assert config.loss_mode == "weighted"
        assert config.network.filter_widths == (3, 4, 5)
        assert config.network.maps_per_width == 100
        assert config.learning_rate == 0.2
        assert config.batch_size == 100
        assert config.network.dropout_rate == 0.4

    def test_baseline_preset_composition(self):
        config = preset_config("baseline-sota", embedding_dim=16)
        assert config.network.activation == Activation("sigmoid")
        assert config.loss_mode == "unweighted"
        assert config.network.filter_widths == (2, 3, 4)
        assert config.network.maps_per_width == 2

    def test_overrides_replace_preset_fields(self):
        config = preset_config(
            "elreluwl", embedding_dim=16, activation=Activation("sigmoid")
        )
        assert config.network.activation.kind == "sigmoid"
        assert config.loss_mode == "weighted"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset_config("fancy", embedding_dim=16)

    def test_unknown_override_rejected(self):
        network = NetworkConfig(filter_widths=(2,), maps_per_width=1, embedding_dim=16)
        for bad in ({"momentum": 0.9}, {"network": network}, {"num_classes": 3}):
            with pytest.raises(ValueError, match="unknown preset overrides"):
                preset_config("elreluwl", embedding_dim=16, **bad)


class TestTrainConfigValidation:
    def test_bad_fields(self):
        network = NetworkConfig(filter_widths=(2,), maps_per_width=1, embedding_dim=4)
        with pytest.raises(ValueError):
            TrainConfig(network=network, loss_mode="focal")
        with pytest.raises(ValueError):
            TrainConfig(network=network, validation_fraction=1.0)
        with pytest.raises(ValueError):
            TrainConfig(network=network, batch_size=0)


def test_cbow_embeddings_feed_training_end_to_end():
    dataset = synth_corpus(n_per_class=30, vocab_size=24, doc_len=10,
                           signal_strength=1.0, seed=4)
    vocab = build_vocab(dataset, min_count=1)
    table = train_cbow(dataset, vocab, CbowConfig(window=2, dim=8, negatives=3,
                                                  epochs=2, seed=4))
    _, report = train(dataset, (vocab, table), small_config(max_epochs=10))
    assert report.best_validation_accuracy >= 0.9
