"""Tests for config-file flag expansion and manifest replay."""

import argparse
import json

import pytest

from emocnn.cli import (
    _RUN_COMMANDS,
    _flags,
    _load_config_file,
    build_parser,
    expand_config_flags,
    main,
    write_manifest,
)
from emocnn.corpus import DataError


def test_key_value_file_provides_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lr=0.05\nbatch=8\n# comment\nmax_epochs=2\n")
    argv = expand_config_flags(["train", "--config", str(cfg), "--lr", "0.01"])
    assert argv[0] == "train"
    assert argv.count("--lr") == 2
    # explicit flag comes later, so argparse keeps it
    assert argv.index("0.01") > argv.index("0.05")


def test_json_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lr": 0.05, "random": True}))
    argv = expand_config_flags(["embed", "--config", str(cfg)])
    assert "--random" in argv
    assert ["--lr", "0.05"] == argv[argv.index("--lr") : argv.index("--lr") + 2]


def test_missing_config_file_is_data_error(tmp_path):
    code = main(["train", "--config", str(tmp_path / "none.cfg"),
                 "--data", "x", "--embeddings", "y"])
    assert code == 2


def test_undecodable_config_file_is_data_error(tmp_path):
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"\xff\xfe\x00dim=4\n")
    assert main(["embed", "--data", "x", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 2
    assert not (tmp_path / "e").exists()


def test_malformed_line_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line without equals\n")
    with pytest.raises(DataError, match="key=value"):
        expand_config_flags(["train", "--config", str(cfg)])


def test_config_drives_a_real_run(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["prepare", "--format", "synth",
                 "--spec", "n=12,vocab=16,len=6,signal=1.0,seed=2",
                 "--out", str(data_dir)]) == 0
    cfg = tmp_path / "embed.cfg"
    cfg.write_text("dim=4\nepochs=1\nrandom=true\n")
    # argparse takes both spellings, so both must be expanded
    for name, flag in (("emb", ["--config", str(cfg)]), ("emb_eq", [f"--config={cfg}"])):
        out = tmp_path / name
        assert main(["embed", "--data", str(data_dir / "dataset.json"),
                     *flag, "--out", str(out)]) == 0
        payload = json.loads((out / "embeddings.json").read_text())
        assert payload["dim"] == 4


def test_abbreviated_config_flag_is_a_usage_error(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["prepare", "--format", "synth", "--spec", "n=6,vocab=8,len=4,seed=1",
                 "--out", str(data_dir)]) == 0
    cfg = tmp_path / "r.txt"
    cfg.write_text("dim=8\nrandom=true\n")
    for flag in (["--conf", str(cfg)], [f"--confi={cfg}"]):
        out = tmp_path / "emb"
        code = main(["embed", "--data", str(data_dir / "dataset.json"), *flag,
                     "--out", str(out)])
        assert code == 1
        assert not (out / "embeddings.json").exists()


def test_repeated_config_flag_is_data_error(tmp_path):
    first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
    first.write_text("dim=4\n")
    second.write_text("dim=8\n")
    for flags in (["--config", str(first), "--config", str(second)],
                  ["--config", str(first), f"--config={second}"]):
        with pytest.raises(DataError, match="only once"):
            expand_config_flags(["embed", *flags])
        assert main(["embed", "--data", "x", *flags]) == 2


def test_key_value_switches_are_read_as_bools(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("random=TRUE\nassert_=false\nout=runs/x\n")
    assert _load_config_file(str(cfg)) == {"random": True, "assert_": False, "out": "runs/x"}
    assert _flags(_load_config_file(str(cfg))) == ["--random", "--out", "runs/x"]


def test_json_null_leaves_the_default(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["prepare", "--format", "synth", "--spec", "n=12,vocab=16,len=6,seed=2",
                 "--out", str(data_dir)]) == 0
    tables = []
    for name, mapping in (("plain", {"dim": 4, "epochs": 1, "random": True}),
                          ("null", {"dim": 4, "epochs": 1, "random": True, "seed": None})):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(mapping))
        out = tmp_path / name
        assert main(["embed", "--data", str(data_dir / "dataset.json"), "--config", str(cfg),
                     "--out", str(out)]) == 0
        tables.append((out / "embeddings.json").read_bytes())
    assert tables[0] == tables[1]


def test_manifest_string_false_replays_as_a_value(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["prepare", "--format", "synth", "--spec", "n=6,vocab=8,len=4,seed=1",
                 "--out", "false"]) == 0
    first = (tmp_path / "false" / "dataset.json").read_bytes()
    (tmp_path / "false" / "dataset.json").unlink()
    assert main(["rerun", str(tmp_path / "false" / "manifest.json")]) == 0
    assert (tmp_path / "false" / "dataset.json").read_bytes() == first


ROUND_TRIP_ARGV = {
    "prepare": ["--format", "synth", "--spec", "n=6,seed=1", "--limit-neg", "3"],
    "embed": ["--data", "d.json", "--random", "--min-count", "2", "--lr", "0.01"],
    "train": ["--data", "d.json", "--embeddings", "e.json", "--preset", "baseline-sota",
              "--max-epochs", "4", "--val-fraction", "0.25", "--widths", "2,3"],
    "eval": ["--model", "m.json", "--data", "d.json", "--embeddings", "e.json", "--assert",
             "--min-accuracy", "0.9", "--per-stratum", "3"],
    "cv": ["--data", "d.json", "--embeddings", "e.json", "--assert", "--folds", "3",
           "--activation", "lrelu", "--epsilon", "1e-05"],
    "compare": ["--data", "d.json", "--embeddings", "e.json", "--assert",
                "--baseline-preset", "elreluwl", "--min-convergence-wins", "2"],
    "gradcheck": ["--assert", "--activation", "drelu", "--a", "0.5", "--h", "1e-06"],
}


@pytest.mark.parametrize("command", sorted(ROUND_TRIP_ARGV))
def test_manifest_round_trip(tmp_path, command):
    args = build_parser().parse_args([command, *ROUND_TRIP_ARGV[command], "--out", str(tmp_path)])
    recorded = json.loads(write_manifest(tmp_path, command, args).read_text())["args"]
    replayed = vars(build_parser().parse_args([command, *_flags(recorded)]))
    assert {key: replayed[key] for key in recorded} == recorded
    assert set(replayed) - set(recorded) == {"func", "command"}
    if command in ("train", "cv"):
        assert recorded["a"] is None
    if "--assert" in ROUND_TRIP_ARGV[command]:
        assert recorded["assert_"] is True
    if command == "embed":
        assert recorded["random"] is True


TRAIN_FLAGS = {"--dropout", "--lr", "--batch", "--max-epochs", "--epsilon", "--patience",
               "--val-fraction"}
PRESET_FLAGS = {"--preset", "--activation", "--a", "--loss", "--widths", "--maps", "--seed"}
SUBCOMMAND_FLAGS = {
    "prepare": {"--format", "--path", "--spec", "--limit-pos", "--limit-neg", "--config", "--out"},
    "embed": {"--data", "--dim", "--window", "--negatives", "--epochs", "--lr", "--min-count",
              "--seed", "--random", "--config", "--out"},
    "train": {"--data", "--embeddings", "--config", "--out"} | PRESET_FLAGS | TRAIN_FLAGS,
    "eval": {"--model", "--data", "--embeddings", "--strata", "--per-stratum", "--seed",
             "--warmup", "--repeats", "--timing-samples", "--config", "--assert",
             "--min-accuracy", "--out"},
    "cv": {"--data", "--embeddings", "--folds", "--assert", "--min-accuracy", "--config",
           "--out"} | PRESET_FLAGS | TRAIN_FLAGS,
    "compare": {"--data", "--embeddings", "--seeds", "--baseline-preset", "--proposed-preset",
                "--test-fraction", "--assert", "--min-convergence-wins", "--config",
                "--out"} | TRAIN_FLAGS,
    "gradcheck": {"--trials", "--h", "--tol", "--seed", "--activation", "--a", "--widths",
                  "--maps", "--dim", "--dropout", "--assert", "--config", "--out"},
    "rerun": {"--out"},
}


def test_each_subcommand_keeps_its_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SUBCOMMAND_FLAGS) == {*_RUN_COMMANDS, "rerun"}
    for name, subparser in sub.choices.items():
        flags = {o for a in subparser._actions for o in a.option_strings} - {"-h", "--help"}
        assert flags == SUBCOMMAND_FLAGS[name], name
    positionals = [a.dest for a in sub.choices["rerun"]._actions if not a.option_strings]
    assert positionals == ["manifest"]
