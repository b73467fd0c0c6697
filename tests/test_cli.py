"""End-to-end tests of the command-line pipeline (in-process, tiny fixtures)."""

import json

import pytest

from emocnn import evaluation, network
from emocnn.cli import main
from emocnn.corpus import load_dataset_json
from emocnn.embedding import embedding_digest, load_embeddings
from emocnn.evaluation import strip_timing
from emocnn.network import load_model


SYNTH_SPEC = "n=20,vocab=16,len=8,signal=1.0,seed=3"
FAST_TRAIN = ["--lr", "0.05", "--batch", "8", "--max-epochs", "2",
              "--widths", "2,3", "--maps", "2", "--dropout", "0.2"]


@pytest.fixture
def prepared(tmp_path):
    out = tmp_path / "data"
    assert main(["prepare", "--format", "synth", "--spec", SYNTH_SPEC,
                 "--out", str(out)]) == 0
    return out / "dataset.json"


@pytest.fixture
def embedded(tmp_path, prepared):
    out = tmp_path / "emb"
    assert main(["embed", "--data", str(prepared), "--dim", "6", "--epochs", "1",
                 "--seed", "2", "--out", str(out)]) == 0
    return out / "embeddings.json"


@pytest.fixture
def trained(tmp_path, prepared, embedded):
    out = tmp_path / "model"
    assert main(["train", "--data", str(prepared), "--embeddings", str(embedded),
                 "--preset", "elreluwl", *FAST_TRAIN, "--out", str(out)]) == 0
    return out


class TestPrepare:
    def test_synth_writes_dataset_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = main(["prepare", "--format", "synth", "--spec", SYNTH_SPEC,
                     "--out", str(out)])
        assert code == 0
        dataset = load_dataset_json(out / "dataset.json")
        assert dataset.n == 40
        assert (out / "manifest.json").is_file()
        printed = capsys.readouterr().out
        assert "samples: 40" in printed
        assert "average length" in printed

    def test_polarity_tree(self, tmp_path, capsys):
        root = tmp_path / "polarity"
        for sub, n in (("pos", 3), ("neg", 2)):
            (root / sub).mkdir(parents=True)
            for i in range(n):
                (root / sub / f"r{i}.txt").write_text(f"some {sub} review {i}")
        code = main(["prepare", "--format", "polarity", "--path", str(root),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "samples: 5" in capsys.readouterr().out

    def test_bad_path_exits_with_data_error(self, tmp_path, capsys):
        code = main(["prepare", "--format", "polarity", "--path",
                     str(tmp_path / "nope"), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["prepare", "--format", "synth", "--frobnicate"]) == 1

    @pytest.mark.parametrize("caps, counts", [
        (["--limit-pos", "1"], {0: 3, 1: 1}),
        (["--limit-neg", "0", "--limit-pos", "2"], {1: 2}),
        (["--limit-pos", "2", "--limit-neg", "1"], {0: 1, 1: 2}),
    ], ids=["pos-only", "neg-zero", "both"])
    def test_imdb_class_caps(self, tmp_path, caps, counts):
        csv_path = tmp_path / "reviews.csv"
        csv_path.write_text("review,sentiment\n" + "good film,positive\nbad film,negative\n" * 3)
        out = tmp_path / "data"
        assert main(["prepare", "--format", "imdb", "--path", str(csv_path), *caps,
                     "--out", str(out)]) == 0
        assert load_dataset_json(out / "dataset.json").class_counts == counts

    @pytest.mark.parametrize("caps", [["--limit-pos", "-3"], ["--limit-pos", "2", "--limit-neg", "-1"]])
    def test_a_negative_class_cap_is_a_data_error(self, tmp_path, capsys, caps):
        csv_path = tmp_path / "reviews.csv"
        csv_path.write_text("review,sentiment\ngood film,positive\nbad film,negative\n")
        out = tmp_path / "data"
        assert main(["prepare", "--format", "imdb", "--path", str(csv_path), *caps,
                     "--out", str(out)]) == 2
        assert "class caps must be >= 0" in capsys.readouterr().err
        assert not (out / "dataset.json").exists()

    @pytest.mark.parametrize("spec, problem", [
        ("nn=8,vocab=50", "'nn' is unknown"),
        ("n=8,n=3", "'n' is repeated"),
        ("n=8,neg=3", "not both"),
        ("vocab=50,pos=4,n=2", "not both"),
    ])
    def test_a_bad_spec_key_is_a_data_error(self, tmp_path, capsys, spec, problem):
        out = tmp_path / "data"
        assert main(["prepare", "--format", "synth", "--spec", spec, "--out", str(out)]) == 2
        assert problem in capsys.readouterr().err
        assert not (out / "dataset.json").exists()

    @pytest.mark.parametrize("fmt, flags, unread", [
        ("synth", ["--spec", "n=8", "--limit-pos", "2"], "--limit-pos"),
        ("synth", ["--path", "x.csv", "--limit-neg", "2"], "--path, --limit-neg"),
        ("polarity", ["--path", "root", "--spec", "n=8"], "--spec"),
        ("polarity", ["--path", "root", "--limit-pos", "1", "--limit-neg", "1"],
         "--limit-pos, --limit-neg"),
        ("imdb", ["--path", "reviews.csv", "--spec", "n=8"], "--spec"),
    ])
    def test_a_flag_the_format_never_reads_is_a_data_error(self, tmp_path, capsys, fmt, flags,
                                                          unread):
        csv_path = tmp_path / "reviews.csv"
        csv_path.write_text("review,sentiment\ngood film,positive\nbad film,negative\n")
        (tmp_path / "root" / "pos").mkdir(parents=True)
        (tmp_path / "root" / "neg").mkdir()
        (tmp_path / "root" / "pos" / "r.txt").write_text("a fine film")
        flags = [str(tmp_path / f) if f in ("x.csv", "root", "reviews.csv") else f for f in flags]
        out = tmp_path / "data"
        assert main(["prepare", "--format", fmt, *flags, "--out", str(out)]) == 2
        assert f"--format {fmt} does not read {unread}" in capsys.readouterr().err
        assert not (out / "dataset.json").exists()

    def test_imbalanced_spec(self, tmp_path):
        out = tmp_path / "data"
        code = main(["prepare", "--format", "synth",
                     "--spec", "neg=20,pos=10,vocab=16,len=6,signal=0.7,seed=1",
                     "--out", str(out)])
        assert code == 0
        dataset = load_dataset_json(out / "dataset.json")
        assert dataset.class_counts == {0: 20, 1: 10}


class TestEmbed:
    def test_cbow_checkpoint(self, tmp_path, prepared):
        out = tmp_path / "emb"
        code = main(["embed", "--data", str(prepared), "--dim", "6",
                     "--epochs", "1", "--out", str(out)])
        assert code == 0
        vocab, table = load_embeddings(out / "embeddings.json")
        assert table.dim == 6
        assert len(vocab) == table.vectors.shape[0]

    def test_random_fallback(self, tmp_path, prepared):
        out = tmp_path / "emb"
        code = main(["embed", "--data", str(prepared), "--dim", "4", "--random",
                     "--out", str(out)])
        assert code == 0
        _, table = load_embeddings(out / "embeddings.json")
        assert abs(table.vectors).max() <= 0.5 / 4

    def test_missing_dataset(self, tmp_path):
        assert main(["embed", "--data", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "emb")]) == 2

    @pytest.mark.parametrize("flags", [["--min-count", "0"], ["--random", "--min-count", "-3"]])
    def test_min_count_below_one_is_a_data_error(self, tmp_path, prepared, capsys, flags):
        out = tmp_path / "emb"
        assert main(["embed", "--data", str(prepared), "--dim", "4", *flags,
                     "--out", str(out)]) == 2
        assert "min_count must be >= 1" in capsys.readouterr().err
        assert not (out / "embeddings.json").exists()


class TestMalformedArtifacts:
    """A readable JSON artifact with a missing or mistyped field is a data error."""

    def test_model_without_config(self, tmp_path, prepared, embedded, trained, capsys):
        model = tmp_path / "model.json"
        payload = json.loads((trained / "model.json").read_text())
        del payload["config"]
        model.write_text(json.dumps(payload))
        code = main(["eval", "--model", str(model), "--data", str(prepared),
                     "--embeddings", str(embedded), "--out", str(tmp_path / "eval")])
        assert code == 2
        assert str(model) in capsys.readouterr().err

    def test_dataset_without_class_counts(self, tmp_path, prepared, embedded, capsys):
        data = tmp_path / "dataset.json"
        payload = json.loads(prepared.read_text())
        del payload["class_counts"]
        data.write_text(json.dumps(payload))
        code = main(["train", "--data", str(data), "--embeddings", str(embedded),
                     *FAST_TRAIN, "--out", str(tmp_path / "model")])
        assert code == 2
        assert str(data) in capsys.readouterr().err

    def test_embeddings_holding_a_list(self, tmp_path, prepared, capsys):
        emb = tmp_path / "embeddings.json"
        emb.write_text(json.dumps([1.0, 2.0]))
        code = main(["train", "--data", str(prepared), "--embeddings", str(emb),
                     *FAST_TRAIN, "--out", str(tmp_path / "model")])
        assert code == 2
        assert str(emb) in capsys.readouterr().err


class TestTrain:
    def test_writes_model_report_and_csv(self, trained):
        assert (trained / "model.json").is_file()
        assert (trained / "train_report.json").is_file()
        assert (trained / "metrics.csv").is_file()
        report = json.loads((trained / "train_report.json").read_text())
        assert report["preset"] == "elreluwl"
        assert len(report["epochs"]) <= 2

    def test_flag_overrides_preset_with_warning(self, tmp_path, prepared, embedded, capsys):
        out = tmp_path / "model2"
        code = main(["train", "--data", str(prepared), "--embeddings", str(embedded),
                     "--preset", "elreluwl", "--activation", "sigmoid",
                     *FAST_TRAIN, "--out", str(out)])
        assert code == 0
        assert "overrides preset" in capsys.readouterr().err
        model = load_model(out / "model.json")
        assert model.config.activation.kind == "sigmoid"

    def test_a_alone_overrides_the_preset_parameter(self, tmp_path, prepared, embedded, capsys):
        out = tmp_path / "model_a"
        code = main(["train", "--data", str(prepared), "--embeddings", str(embedded),
                     "--preset", "elreluwl", "--a", "0.1", *FAST_TRAIN, "--out", str(out)])
        assert code == 0
        assert "field activation" in capsys.readouterr().err
        model = load_model(out / "model.json")
        assert model.config.activation.kind == "mlrelu-continuous"
        assert model.config.activation.a == 0.1

    def test_loaded_model_matches_config(self, trained):
        model = load_model(trained / "model.json")
        assert model.config.filter_widths == (2, 3)
        assert model.config.activation.kind == "mlrelu-continuous"


class TestEvalCvCompare:
    def test_eval_outputs_and_assert_threshold(self, tmp_path, prepared, embedded, trained):
        out = tmp_path / "eval"
        code = main(["eval", "--model", str(trained / "model.json"),
                     "--data", str(prepared), "--embeddings", str(embedded),
                     "--strata", "2", "--per-stratum", "5", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "eval_report.json").read_text())
        assert set(payload) == {"eval", "strata", "timing"}
        assert len(payload["strata"]) == 4

        code = main(["eval", "--model", str(trained / "model.json"),
                     "--data", str(prepared), "--embeddings", str(embedded),
                     "--strata", "2", "--per-stratum", "5",
                     "--assert", "--min-accuracy", "1.1", "--out", str(out)])
        assert code == 3

    def test_eval_refuses_another_embedding_table(self, tmp_path, prepared, embedded,
                                                  trained, capsys):
        model = trained / "model.json"
        stored = json.loads(model.read_text())["embedding_ref"]
        assert stored == embedding_digest(*load_embeddings(embedded))

        wrong = tmp_path / "wrong"
        assert main(["embed", "--data", str(prepared), "--dim", "6", "--random",
                     "--seed", "9", "--out", str(wrong)]) == 0
        capsys.readouterr()
        code = main(["eval", "--model", str(model), "--data", str(prepared),
                     "--embeddings", str(wrong / "embeddings.json"),
                     "--strata", "2", "--per-stratum", "5", "--out", str(tmp_path / "bad")])
        assert code == 2
        assert stored in capsys.readouterr().err
        assert not (tmp_path / "bad" / "eval_report.json").exists()

        code = main(["eval", "--model", str(model), "--data", str(prepared),
                     "--embeddings", str(embedded),
                     "--strata", "2", "--per-stratum", "5", "--out", str(tmp_path / "good")])
        assert code == 0

    def test_eval_refuses_a_stratum_size_below_one(self, tmp_path, prepared, embedded,
                                                   trained, capsys, monkeypatch):
        scored = []  # documents per scoring call, through `predict` or `score`
        monkeypatch.setattr(evaluation, "predict",
                            lambda *args: scored.append(1) or network.predict(*args))
        monkeypatch.setattr(evaluation, "score",
                            lambda *args: scored.append(len(args[2])) or network.score(*args),
                            raising=False)
        out = tmp_path / "eval"
        code = main(["eval", "--model", str(trained / "model.json"),
                     "--data", str(prepared), "--embeddings", str(embedded),
                     "--strata", "1", "--per-stratum", "-1", "--out", str(out)])
        assert code == 2
        assert "per_stratum >= 1" in capsys.readouterr().err
        assert not (out / "eval_report.json").exists()
        assert sum(scored) == 0, "the strata are checked before any document is scored"

    @pytest.mark.parametrize("flags", [["--warmup", "-1"], ["--timing-samples", "-5"],
                                       ["--timing-samples", "0"], ["--repeats", "0"]])
    def test_eval_checks_its_timing_flags_before_scoring(self, tmp_path, prepared, embedded,
                                                         trained, capsys, monkeypatch, flags):
        scored = []
        monkeypatch.setattr(evaluation, "score",
                            lambda *args: scored.append(len(args[2])) or network.score(*args))
        out = tmp_path / "eval"
        code = main(["eval", "--model", str(trained / "model.json"), "--data", str(prepared),
                     "--embeddings", str(embedded), "--strata", "1", "--per-stratum", "5",
                     *flags, "--out", str(out)])
        assert code == 2
        assert "need --timing-samples >= 1, --warmup >= 0 and --repeats >= 1" in capsys.readouterr().err
        assert not (out / "eval_report.json").exists()
        assert scored == []

    def test_eval_scores_each_document_once(self, tmp_path, prepared, embedded, trained,
                                            monkeypatch):
        calls = []
        monkeypatch.setattr(evaluation, "score",
                            lambda *args: calls.append(len(args[2])) or network.score(*args))
        code = main(["eval", "--model", str(trained / "model.json"),
                     "--data", str(prepared), "--embeddings", str(embedded),
                     "--strata", "2", "--per-stratum", "5", "--out", str(tmp_path / "eval")])
        assert code == 0
        assert calls == [load_dataset_json(prepared).n]

    @pytest.mark.parametrize("fraction", ["0", "-0.5"])
    def test_compare_refuses_a_test_fraction_outside_0_1(self, tmp_path, prepared, embedded,
                                                         capsys, fraction):
        out = tmp_path / "cmp"
        code = main(["compare", "--data", str(prepared), "--embeddings", str(embedded),
                     "--seeds", "1", "--max-epochs", "1", "--test-fraction", fraction,
                     "--out", str(out)])
        assert code == 2
        assert "test_fraction must lie in (0, 1)" in capsys.readouterr().err
        assert not (out / "comparison.json").exists()

    @pytest.mark.parametrize("command, flags, report", [
        ("cv", [*FAST_TRAIN, "--folds", "2", "--min-accuracy", "1.1"], "cv_report.json"),
        ("compare", ["--seeds", "1", "--max-epochs", "1", "--min-convergence-wins", "2"],
         "comparison.json"),
    ])
    def test_a_missed_threshold_exits_3_after_writing(self, tmp_path, prepared, embedded,
                                                      capsys, command, flags, report):
        out = tmp_path / command
        code = main([command, "--data", str(prepared), "--embeddings", str(embedded), *flags,
                     "--assert", "--out", str(out)])
        assert code == 3
        assert "assertion failed" in capsys.readouterr().err
        assert (out / report).is_file() and (out / "summary.csv").is_file()

    def test_cv(self, tmp_path, prepared, embedded, capsys):
        out = tmp_path / "cv"
        code = main(["cv", "--data", str(prepared), "--embeddings", str(embedded),
                     "--preset", "elreluwl", *FAST_TRAIN, "--folds", "3",
                     "--seed", "42", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "cv_report.json").read_text())
        assert payload["k_folds"] == 3
        assert len(payload["folds"]) == 3
        assert "mean test accuracy" in capsys.readouterr().out

    def test_compare(self, tmp_path, prepared, embedded, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--data", str(prepared), "--embeddings", str(embedded),
                     "--seeds", "1,2", "--lr", "0.05", "--batch", "8",
                     "--max-epochs", "2", "--dropout", "0.2", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["seeds"] == [1, 2]
        assert payload["baseline_label"] == "baseline-sota"
        assert "convergence_proposed_not_slower" in capsys.readouterr().out


class TestGradcheck:
    def test_single_activation(self, tmp_path, capsys):
        out = tmp_path / "gc"
        code = main(["gradcheck", "--trials", "3", "--activation", "sigmoid",
                     "--assert", "--out", str(out)])
        assert code == 0
        assert "sigmoid" in capsys.readouterr().out
        payload = json.loads((out / "gradcheck_report.json").read_text())
        assert list(payload) == ["sigmoid"]
        assert payload["sigmoid"]["flagged_blocks"] == []

    def test_flagged_blocks_exit_3_under_assert(self, tmp_path, capsys):
        out = tmp_path / "gc"
        code = main(["gradcheck", "--trials", "2", "--activation", "sigmoid", "--tol", "0",
                     "--assert", "--out", str(out)])
        assert code == 3
        assert "flagged parameter blocks" in capsys.readouterr().err
        assert json.loads((out / "gradcheck_report.json").read_text())["sigmoid"]["flagged_blocks"]

    def test_all_activations(self, tmp_path):
        out = tmp_path / "gc"
        code = main(["gradcheck", "--trials", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "gradcheck_report.json").read_text())
        assert len(payload) == 5


class TestRerun:
    def test_rerun_reproduces_outputs(self, tmp_path, prepared, embedded):
        first = tmp_path / "model"
        assert main(["train", "--data", str(prepared), "--embeddings", str(embedded),
                     *FAST_TRAIN, "--out", str(first)]) == 0
        second = tmp_path / "replay"
        assert main(["rerun", str(first / "manifest.json"), "--out", str(second)]) == 0

        assert (first / "model.json").read_bytes() == (second / "model.json").read_bytes()
        a = strip_timing(json.loads((first / "train_report.json").read_text()))
        b = strip_timing(json.loads((second / "train_report.json").read_text()))
        assert a == b

    def test_missing_manifest(self, tmp_path):
        assert main(["rerun", str(tmp_path / "ghost.json")]) == 2

    @pytest.mark.parametrize("command, args, message", [
        (5, {}, "command must be one of"),
        ("rerun", {"manifest": "MANIFEST"}, "command must be one of"),
        ("prepare", {"format": "synth", "spec": {"n": 8}}, "args must be an object of strings"),
    ], ids=["command-not-a-string", "command-rerun", "args-value-an-object"])
    def test_a_malformed_manifest_is_a_data_error(self, tmp_path, capsys, command, args, message):
        manifest, out = tmp_path / "manifest.json", tmp_path / "out"
        args = {k: str(manifest) if v == "MANIFEST" else v for k, v in args.items()}
        manifest.write_text(json.dumps({"version": 1, "command": command,
                                        "args": {**args, "out": str(out)}}))
        assert main(["rerun", str(manifest)]) == 2
        assert f"{manifest}: {message}" in capsys.readouterr().err
        assert not out.exists()
