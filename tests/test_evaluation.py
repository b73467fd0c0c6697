"""Tests for metrics, stratified evaluation, timing, gradcheck, and emission."""

import csv

import numpy as np
import pytest

from emocnn.corpus import imbalanced_synth_corpus, synth_corpus
from emocnn import evaluation
from emocnn.embedding import build_vocab, embed_lookup, init_random_embeddings
from emocnn.evaluation import (
    METRICS_COLUMNS,
    SUMMARY_COLUMNS,
    emit_report,
    evaluate,
    gradient_check,
    measure_inference_time,
    stratified_sample_eval,
    strip_timing,
)
from emocnn.functions import Activation
from emocnn.network import NetworkConfig, init_params, predict, score
from emocnn.training import run_fold_cv, train, TrainConfig


def make_fixture(n_per_class=30, dim=6, seed=3):
    dataset = synth_corpus(n_per_class=n_per_class, vocab_size=20, doc_len=8,
                           signal_strength=1.0, seed=seed)
    vocab = build_vocab(dataset, min_count=1)
    table = init_random_embeddings(vocab, dim=dim, seed=seed)
    config = NetworkConfig(filter_widths=(2, 3), maps_per_width=2, embedding_dim=dim,
                           dropout_rate=0.0, activation=Activation("mlrelu-continuous"), seed=seed)
    return dataset, (vocab, table), init_params(config)


def constant_positive_params(params):
    """Force class-1 predictions by drowning the logits in bias."""
    forced = params.copy()
    forced.fc_weights[:] = 0.0
    forced.fc_bias[:] = [0.0, 100.0]
    return forced


class TestEvaluate:
    def test_accuracy_matches_confusion_arithmetic(self):
        dataset, embeddings, params = make_fixture()
        result = evaluate(params, embeddings, dataset)
        c = result.confusion
        assert result.accuracy == (c["TP"] + c["TN"]) / result.n_evaluated
        assert c["TP"] + c["TN"] + c["FP"] + c["FN"] == result.n_evaluated

    def test_per_class_weighted_by_frequency_equals_overall(self):
        dataset, embeddings, params = make_fixture()
        result = evaluate(params, embeddings, dataset)
        weighted = sum(
            result.per_class_accuracy[c] * dataset.class_counts[c]
            for c in dataset.class_counts
        ) / dataset.n
        assert abs(weighted - result.accuracy) < 1e-12

    def test_constant_positive_predictor_on_imbalanced_counts(self):
        dataset = imbalanced_synth_corpus(
            n_negative=20, n_positive=10, vocab_size=16, doc_len=6,
            signal_strength=1.0, seed=2,
        )
        vocab = build_vocab(dataset, min_count=1)
        table = init_random_embeddings(vocab, dim=6, seed=2)
        config = NetworkConfig(filter_widths=(2,), maps_per_width=1, embedding_dim=6,
                               dropout_rate=0.0, seed=0)
        params = constant_positive_params(init_params(config))
        result = evaluate(params, (vocab, table), dataset)
        assert result.accuracy == pytest.approx(10 / 30)
        assert result.per_class_accuracy == {1: 1.0, 0: 0.0}

    def test_all_correct_gives_unit_accuracies(self):
        dataset = synth_corpus(n_per_class=40, vocab_size=24, doc_len=10,
                               signal_strength=1.0, seed=11)
        vocab = build_vocab(dataset, min_count=1)
        embeddings = (vocab, init_random_embeddings(vocab, dim=8, seed=5))
        config = NetworkConfig(filter_widths=(2, 3), maps_per_width=4, embedding_dim=8,
                               dropout_rate=0.2, activation=Activation("mlrelu-continuous"), seed=2)
        train_config = TrainConfig(network=config, learning_rate=0.05, batch_size=8,
                                   max_epochs=30, convergence_patience=8)
        params, _ = train(dataset, embeddings, train_config)
        result = evaluate(params, embeddings, dataset)
        assert result.accuracy == 1.0, "separable fixture should be fully learnable"
        assert result.per_class_accuracy == {0: 1.0, 1: 1.0}
        assert result.macro_accuracy == 1.0

    def test_empty_dataset_rejected(self):
        dataset, embeddings, params = make_fixture()
        with pytest.raises(ValueError):
            evaluate(params, embeddings, dataset.subset([]))


class TestStratifiedSampleEval:
    def test_row_structure(self):
        dataset, embeddings, params = make_fixture(n_per_class=200)
        rows = stratified_sample_eval(params, embeddings, dataset,
                                      strata=10, per_stratum=20, seed=1)
        assert len(rows) == 20
        assert all(r.result.n_evaluated == 20 for r in rows)
        assert sorted({r.class_label for r in rows}) == [0, 1]

    def test_groups_are_disjoint(self):
        dataset, embeddings, params = make_fixture(n_per_class=60)
        rows = stratified_sample_eval(params, embeddings, dataset,
                                      strata=5, per_stratum=10, seed=1)
        seen = [i for r in rows for i in r.doc_indices]
        assert len(seen) == len(set(seen))

    def test_same_seed_same_membership(self):
        dataset, embeddings, params = make_fixture(n_per_class=60)
        a = stratified_sample_eval(params, embeddings, dataset, 5, 10, seed=9)
        b = stratified_sample_eval(params, embeddings, dataset, 5, 10, seed=9)
        assert [r.doc_indices for r in a] == [r.doc_indices for r in b]

    def test_insufficient_samples_names_class(self):
        dataset, embeddings, params = make_fixture(n_per_class=30)
        with pytest.raises(ValueError, match="class 0"):
            stratified_sample_eval(params, embeddings, dataset, 10, 20, seed=1)

    @pytest.mark.parametrize("strata, per_stratum", [(-1, 5), (1, 0), (1, -1)])
    def test_sizes_out_of_range_rejected(self, strata, per_stratum):
        dataset, embeddings, params = make_fixture(n_per_class=30)
        with pytest.raises(ValueError, match="need strata >= 0 and per_stratum >= 1"):
            stratified_sample_eval(params, embeddings, dataset, strata, per_stratum, seed=1)

    def test_zero_strata_scores_nothing(self):
        dataset, embeddings, params = make_fixture(n_per_class=30)
        assert stratified_sample_eval(params, embeddings, dataset, 0, 5, seed=1) == []

    def test_each_document_scored_once_in_one_call_and_same_rows(self, monkeypatch):
        dataset, embeddings, params = make_fixture(n_per_class=60)
        vocab, table = embeddings
        expected = []
        for row in stratified_sample_eval(params, embeddings, dataset, 3, 10, seed=4):
            subset = dataset.subset(row.doc_indices)
            probs = [
                predict(params, embed_lookup(vocab, table, doc.tokens, params.config.max_width))[1]
                for doc in subset.documents
            ]
            assert row.result.to_dict() == evaluate(params, embeddings, subset).to_dict()
            assert row.mean_true_class_prob == float(
                np.mean([p[doc.label] for p, doc in zip(probs, subset.documents)])
            )
            expected.append(row.to_dict())

        calls = []

        def recording_score(params, table, index_arrays):
            calls.append(list(index_arrays))
            return score(params, table, index_arrays)

        monkeypatch.setattr(evaluation, "score", recording_score)
        rows = stratified_sample_eval(params, embeddings, dataset, 3, 10, seed=4)
        sampled = [i for r in rows for i in r.doc_indices]
        assert len(sampled) == len(set(sampled)) == 2 * 3 * 10
        assert len(calls) == 1
        assert len(calls[0]) == len(sampled)
        for ids, i in zip(calls[0], sampled):
            assert np.array_equal(ids, vocab.indices(dataset.documents[i].tokens))
        assert [r.to_dict() for r in rows] == expected

    def test_mean_true_class_prob_in_unit_interval(self):
        dataset, embeddings, params = make_fixture(n_per_class=60)
        rows = stratified_sample_eval(params, embeddings, dataset, 3, 10, seed=4)
        assert all(0.0 < r.mean_true_class_prob < 1.0 for r in rows)


class TestMeasureInferenceTime:
    def test_order_statistics_and_counts(self):
        dataset, embeddings, params = make_fixture(n_per_class=5)
        stats = measure_inference_time(params, embeddings, dataset.documents,
                                       warmup=2, repeats=3)
        assert stats.min_ms <= stats.median_ms <= stats.max_ms
        assert stats.min_ms > 0
        assert stats.n_measurements == 3 * 10

    def test_validation(self):
        dataset, embeddings, params = make_fixture(n_per_class=5)
        with pytest.raises(ValueError):
            measure_inference_time(params, embeddings, [], warmup=0, repeats=1)
        with pytest.raises(ValueError):
            measure_inference_time(params, embeddings, dataset.documents, repeats=0)


class TestGradientCheck:
    tiny = NetworkConfig(filter_widths=(2,), maps_per_width=2, embedding_dim=3,
                         dropout_rate=0.4, activation=Activation("mlrelu-continuous"),
                         seed=0)

    def test_healthy_gradients_pass(self):
        report = gradient_check(self.tiny, trials=10, seed=42)
        assert report.flagged_blocks == []
        assert report.worst <= 1e-4

    def test_corrupted_gradient_is_flagged(self):
        def corrupt(grads):
            grads.fc_weights[0, 0] *= 1.01
            return grads

        report = gradient_check(self.tiny, trials=10, seed=42, grad_transform=corrupt)
        assert "fc_weights" in report.flagged_blocks

    def test_deterministic_given_seed(self):
        a = gradient_check(self.tiny, trials=5, seed=7)
        b = gradient_check(self.tiny, trials=5, seed=7)
        assert a.max_rel_error == b.max_rel_error
        assert a.skipped_fixtures == b.skipped_fixtures

    def test_covers_every_parameter_block(self):
        report = gradient_check(self.tiny, trials=3, seed=1)
        assert set(report.max_rel_error) == {
            "filters_w2", "filter_bias_w2", "fc_weights", "fc_bias"
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            gradient_check(self.tiny, trials=0)


class TestEmitReport:
    @pytest.fixture
    def cv_report(self):
        dataset, embeddings, _ = make_fixture(n_per_class=20)
        config = NetworkConfig(filter_widths=(2,), maps_per_width=2, embedding_dim=6,
                               dropout_rate=0.0, activation=Activation("mlrelu-continuous"), seed=0)
        train_config = TrainConfig(network=config, learning_rate=0.05, batch_size=8,
                                   max_epochs=2)
        return run_fold_cv(dataset, embeddings, train_config, k_folds=3, seed=5,
                           preset="unit", dataset_name="synth")

    def test_cv_summary_has_fold_rows_plus_aggregate(self, cv_report, tmp_path):
        emit_report(cv_report, tmp_path)
        with (tmp_path / "summary.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3 + 1
        assert rows[-1]["run_id"] == "aggregate"

    def test_metrics_round_trip_precision(self, cv_report, tmp_path):
        emit_report(cv_report, tmp_path)
        with (tmp_path / "metrics.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0].keys()) == METRICS_COLUMNS
        originals = {
            (r.run_id, e.epoch): e for r in cv_report.fold_reports for e in r.epochs
        }
        assert len(rows) == len(originals)
        for row in rows:
            stats = originals[(row["run_id"], int(row["epoch"]))]
            for column, value in (
                ("train_loss", stats.train_loss),
                ("train_acc", stats.train_acc),
                ("val_acc", stats.val_acc),
            ):
                assert abs(float(row[column]) - value) <= 1e-9 * max(1.0, abs(value))

    def test_emission_is_byte_stable(self, cv_report, tmp_path):
        emit_report(cv_report, tmp_path / "a")
        emit_report(cv_report, tmp_path / "b")
        for name in ("metrics.csv", "summary.csv", "report.md"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_empty_reports_rejected_and_nothing_written(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError):
            emit_report([], out)
        assert not out.exists()

    def test_stratified_rows_and_gradcheck_emission(self, tmp_path):
        dataset, embeddings, params = make_fixture(n_per_class=20)
        rows = stratified_sample_eval(params, embeddings, dataset, 2, 5, seed=1)
        gc = gradient_check(self.tiny_config(), trials=2, seed=0)
        files = emit_report(rows + [gc], tmp_path)
        assert sorted(f.name for f in files) == ["metrics.csv", "report.md", "summary.csv"]
        with (tmp_path / "summary.csv").open(newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert list(parsed[0].keys()) == SUMMARY_COLUMNS
        stratum_rows = [r for r in parsed if r["run_id"].startswith("class")]
        assert len(stratum_rows) == 4
        assert all(r["mean_true_class_prob"] != "" for r in stratum_rows)

    @staticmethod
    def tiny_config():
        return NetworkConfig(filter_widths=(2,), maps_per_width=1, embedding_dim=3,
                             dropout_rate=0.0, seed=0)


def test_strip_timing_removes_clock_fields():
    payload = {
        "epochs": [{"epoch": 1, "ms": 12.5, "val_acc": 0.8}],
        "nested": {"wall_ms": 3.0, "kept": 1},
        "median_ms": 9.0,
    }
    stripped = strip_timing(payload)
    assert stripped == {"epochs": [{"epoch": 1, "val_acc": 0.8}], "nested": {"kept": 1}}
