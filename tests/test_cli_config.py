"""Tests for config-file flag expansion."""

import json

import pytest

from emocnn.cli import expand_config_flags, main
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
