"""Command-line pipeline: prepare -> embed -> train -> eval / cv / compare.

Every run resolves its flags up front, writes a `manifest.json` next to its
outputs (`main` does this for every command but `rerun`), and only then
computes; `rerun <manifest>` replays a recorded run and reproduces its
outputs bit-for-bit on the same machine (wall-clock fields excepted, as
timing is never reproducible).

Exit codes: 0 success, 1 usage error, 2 data error, 3 assertion failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .corpus import (
    DataError,
    imbalanced_synth_corpus,
    json_artifact,
    length_stats,
    load_dataset_json,
    load_imdb_csv,
    load_polarity_dir,
    save_dataset_json,
    synth_corpus,
    write_atomic,
)
from .embedding import (
    DEFAULT_MIN_COUNT,
    CbowConfig,
    build_vocab,
    embedding_digest,
    init_random_embeddings,
    load_embeddings,
    save_embeddings,
    train_cbow,
)
from .evaluation import (
    draw_strata,
    emit_report,
    eval_result,
    gradient_check,
    measure_inference_time,
    score_dataset,
    strata_rows,
)
from .functions import ACTIVATION_KINDS, Activation
from .network import NetworkConfig, load_model, save_model
from .training import PRESETS, TrainConfig, compare_runs, preset_config, run_fold_cv, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ASSERT = 3
# The commands that write a manifest, and the flag values it records: what `rerun` replays.
_RUN_COMMANDS = ("prepare", "embed", "train", "eval", "cv", "compare", "gradcheck")
_MANIFEST_VALUE_TYPES = (str, int, float, bool, type(None))


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors and refuses
    abbreviated flags (`--conf` would bypass `expand_config_flags`)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def _flags(mapping: dict) -> list[str]:
    """Command-line flags for a key -> value mapping (config files, manifests).

    `None` and `False` are skipped, so the flag keeps its default; `True`
    gives a bare switch; any other value follows its flag as a string. The
    flag of key `max_epochs` is `--max-epochs`, of `assert_` `--assert`.
    """
    argv: list[str] = []
    for key, value in mapping.items():
        if value is None or value is False:
            continue
        flag = "--" + str(key).rstrip("_").replace("_", "-")
        argv.extend([flag] if value is True else [flag, str(value)])
    return argv


def write_manifest(out_dir: Path, command: str, args: argparse.Namespace) -> Path:
    """Record the fully resolved flags of this run for later replay."""
    payload = {
        "version": 1,
        "tool_version": __version__,
        "command": command,
        "args": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("func", "command") and isinstance(v, _MANIFEST_VALUE_TYPES)
        },
    }
    path = out_dir / "manifest.json"
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True))
    return path


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def _load_config_file(path: str) -> dict:
    """Read flag defaults from a JSON object or key=value lines.

    In key=value lines, `true` and `false` (any case) are switches.
    """
    src = Path(path)
    if not src.is_file():
        raise DataError(f"config file not found: {src}")
    text = src.read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        try:
            mapping = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"cannot parse config file {src}: {exc}") from exc
        if not isinstance(mapping, dict):
            raise DataError(f"config file {src} must hold a JSON object")
        return mapping
    mapping = {}
    for line_num, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataError(f"{src}:{line_num}: expected key=value, got {line!r}")
        value = value.strip()
        mapping[key.strip()] = {"true": True, "false": False}.get(value.lower(), value)
    return mapping


def expand_config_flags(argv: list[str]) -> list[str]:
    """Splice config-file entries in ahead of explicit flags (flags win).

    Both spellings, `--config path` and `--config=path`, are expanded.
    """
    argv = [part for token in argv
            for part in (token.split("=", 1) if token.startswith("--config=") else (token,))]
    if "--config" not in argv:
        return argv
    if argv.count("--config") > 1:
        raise DataError("--config may be given only once")
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise DataError("--config needs a file path")
    injected = _flags(_load_config_file(argv[idx + 1]))
    rest = argv[:idx] + argv[idx + 2 :]
    if not rest:
        raise DataError("--config cannot replace the subcommand itself")
    return [rest[0], *injected, *rest[1:]]


# ---------------------------------------------------------------------------
# Shared loading helpers
# ---------------------------------------------------------------------------


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise DataError(f"cannot parse {what} from {text!r}") from exc


# `prepare --spec` keys: (type, default). neg= and pos= replace n= for uneven classes.
_SYNTH_SPEC = {"n": (int, 200), "neg": (int, 200), "pos": (int, 100), "vocab": (int, 50),
               "len": (int, 30), "signal": (float, 1.0), "seed": (int, 7)}
# The `prepare` flags that each format never reads.
_UNREAD_PREPARE_FLAGS = {"polarity": ("spec", "limit_pos", "limit_neg"), "imdb": ("spec",),
                         "synth": ("path", "limit_pos", "limit_neg")}


def _parse_synth_spec(text: str) -> dict:
    """The typed key=value pairs given in `--spec`; an unknown or repeated key
    and n= given together with neg= or pos= are refused."""
    spec = {}
    for part in filter(None, text.split(",")):
        key, _, value = (half.strip() for half in part.partition("="))
        if not value:
            raise DataError(f"synthetic corpus spec needs key=value pairs, got {part!r}")
        if key not in _SYNTH_SPEC or key in spec:
            problem = "repeated" if key in spec else "unknown"
            raise DataError(f"synthetic corpus spec key {key!r} is {problem}; "
                            f"keys are {', '.join(_SYNTH_SPEC)}, each at most once")
        spec[key] = _SYNTH_SPEC[key][0](value)
    if "n" in spec and ("neg" in spec or "pos" in spec):
        raise DataError("synthetic corpus spec takes n= or neg=/pos=, not both")
    return spec


def _shared_train_settings(args) -> dict:
    """`preset_config` keywords from the training flags every training command takes."""
    return dict(
        dropout_rate=args.dropout,
        learning_rate=args.lr,
        batch_size=args.batch,
        max_epochs=args.max_epochs,
        convergence_epsilon=args.epsilon,
        convergence_patience=args.patience,
        validation_fraction=args.val_fraction,
    )


def _resolve_train_config(args, embedding_dim: int):
    """Materialize the preset, apply explicit flag overrides with a warning."""
    overrides = {}
    if args.activation is not None or args.a is not None:
        kind = args.activation or PRESETS[args.preset]["activation"].kind
        overrides["activation"] = Activation(kind) if args.a is None else Activation(kind, args.a)
    if args.loss is not None:
        overrides["loss_mode"] = args.loss
    if args.widths is not None:
        overrides["filter_widths"] = _parse_ints(args.widths, "filter widths")
    if args.maps is not None:
        overrides["maps_per_width"] = args.maps
    for name in overrides:
        _warn(f"flag overrides preset {args.preset!r} field {name}")
    return preset_config(
        args.preset, embedding_dim, seed=args.seed, **_shared_train_settings(args), **overrides
    )


def _write_results(args, reports, name: str, payload: dict, failure: str = "") -> int:
    """Write `emit_report`'s files for `reports` and the JSON report `name` into
    `--out`; under `--assert`, a non-empty `failure` prints and exits 3."""
    out = Path(args.out)
    emit_report(reports, out)
    write_atomic(out / name, json.dumps(payload, indent=2))
    if failure and args.assert_:
        print(f"assertion failed: {failure}", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_prepare(args) -> int:
    out = Path(args.out)
    unread = [name for name in _UNREAD_PREPARE_FLAGS[args.format] if getattr(args, name) is not None]
    if unread:
        flags = ", ".join("--" + name.replace("_", "-") for name in unread)
        raise DataError(f"--format {args.format} does not read {flags}")
    if args.format != "synth" and not args.path:
        raise DataError(f"--path is required for --format {args.format}")
    if args.format == "polarity":
        dataset = load_polarity_dir(args.path)
    elif args.format == "imdb":
        dataset = load_imdb_csv(args.path, limit_pos=args.limit_pos, limit_neg=args.limit_neg)
    else:  # synth
        given = _parse_synth_spec(args.spec or "")
        spec = {key: given.get(key, default) for key, (_, default) in _SYNTH_SPEC.items()}
        common = dict(vocab_size=spec["vocab"], doc_len=spec["len"],
                      signal_strength=spec["signal"], seed=spec["seed"])
        if "neg" in given or "pos" in given:
            dataset = imbalanced_synth_corpus(n_negative=spec["neg"], n_positive=spec["pos"], **common)
        else:
            dataset = synth_corpus(n_per_class=spec["n"], **common)

    save_dataset_json(dataset, out / "dataset.json")
    stats = length_stats(dataset)
    print(f"samples: {dataset.n}")
    for label in sorted(dataset.class_counts):
        name = "positive" if label == 1 else "negative"
        print(f"  {name}: {dataset.class_counts[label]}")
    print(f"max length (words): {stats['max_length']}")
    print(f"min length (words): {stats['min_length']}")
    print(f"average length (words): {stats['avg_length']:.1f}")
    print(f"wrote {out / 'dataset.json'}")
    return EXIT_OK


def cmd_embed(args) -> int:
    out = Path(args.out)
    dataset = load_dataset_json(args.data)
    vocab = build_vocab(dataset, min_count=args.min_count)
    if args.random:
        table = init_random_embeddings(vocab, dim=args.dim, seed=args.seed)
    else:
        config = CbowConfig(
            window=args.window,
            dim=args.dim,
            negatives=args.negatives,
            epochs=args.epochs,
            learning_rate=args.lr,
            seed=args.seed,
        )
        table = train_cbow(dataset, vocab, config)
        if table.train_objective:
            print(
                "cbow objective per epoch: "
                + ", ".join(f"{x:.4f}" for x in table.train_objective)
            )
    path = out / "embeddings.json"
    save_embeddings(path, vocab, table)
    print(f"vocabulary size: {len(vocab)}")
    print(f"wrote {path} (dim {table.dim})")
    return EXIT_OK


def cmd_train(args) -> int:
    dataset = load_dataset_json(args.data)
    vocab, table = load_embeddings(args.embeddings)
    config = _resolve_train_config(args, table.dim)
    params, report = train(
        dataset,
        (vocab, table),
        config,
        run_id="train",
        preset=args.preset,
        dataset_name=Path(args.data).stem,
    )
    model = Path(args.out) / "model.json"
    save_model(model, params, embedding_ref=embedding_digest(vocab, table))
    print(f"epochs run: {len(report.epochs)}")
    print(f"best validation accuracy: {report.best_validation_accuracy:.4f}")
    print(f"convergence epoch: {report.convergence_epoch}")
    print(f"wrote {model}")
    return _write_results(args, report, "train_report.json", report.to_dict())


def cmd_eval(args) -> int:
    dataset = load_dataset_json(args.data)
    vocab, table = load_embeddings(args.embeddings)
    params = load_model(args.model, embedding_ref=embedding_digest(vocab, table))
    draws = draw_strata(dataset, args.strata, args.per_stratum, args.seed)
    if args.timing_samples < 1 or args.warmup < 0 or args.repeats < 1:
        raise ValueError("need --timing-samples >= 1, --warmup >= 0 and --repeats >= 1")
    probs = score_dataset(params, (vocab, table), dataset)
    result = eval_result(dataset, probs)
    strata = strata_rows(dataset, draws, probs)
    timing_docs = dataset.documents[: args.timing_samples]
    timing = measure_inference_time(
        params, (vocab, table), timing_docs, warmup=args.warmup, repeats=args.repeats
    )
    print(f"accuracy: {result.accuracy:.4f}")
    print(f"macro accuracy: {result.macro_accuracy:.4f}")
    print(f"median per-sample ms: {timing.median_ms:.3f}")
    payload = {"eval": result.to_dict(), "strata": [s.to_dict() for s in strata],
               "timing": timing.to_dict()}
    failure = (f"accuracy {result.accuracy:.4f} < {args.min_accuracy}"
               if result.accuracy < args.min_accuracy else "")
    return _write_results(args, [result, *strata, timing], "eval_report.json", payload, failure)


def cmd_cv(args) -> int:
    dataset = load_dataset_json(args.data)
    vocab, table = load_embeddings(args.embeddings)
    config = _resolve_train_config(args, table.dim)
    report = run_fold_cv(
        dataset,
        (vocab, table),
        config,
        k_folds=args.folds,
        seed=args.seed,
        preset=args.preset,
        dataset_name=Path(args.data).stem,
    )
    agg = report.aggregate
    print(f"folds: {args.folds}")
    print(f"mean test accuracy: {agg['accuracy_mean']:.4f} (std {agg['accuracy_std']:.4f})")
    print(f"mean convergence epoch: {agg['convergence_epoch_mean']:.2f}")
    failure = (f"mean accuracy {agg['accuracy_mean']:.4f} < {args.min_accuracy}"
               if agg["accuracy_mean"] < args.min_accuracy else "")
    return _write_results(args, report, "cv_report.json", report.to_dict(), failure)


def cmd_compare(args) -> int:
    dataset = load_dataset_json(args.data)
    vocab, table = load_embeddings(args.embeddings)
    baseline = preset_config(args.baseline_preset, table.dim, **_shared_train_settings(args))
    proposed = preset_config(args.proposed_preset, table.dim, **_shared_train_settings(args))
    report = compare_runs(
        dataset,
        (vocab, table),
        baseline,
        proposed,
        seeds=_parse_ints(args.seeds, "seed list"),
        baseline_label=args.baseline_preset,
        proposed_label=args.proposed_preset,
        dataset_name=Path(args.data).stem,
        test_fraction=args.test_fraction,
    )
    for name, value in sorted(report.win_counts.items()):
        print(f"{name}: {value}")
    wins = report.win_counts["convergence_proposed_not_slower"]
    failure = (f"proposed convergence wins {wins} < {args.min_convergence_wins}"
               if wins < args.min_convergence_wins else "")
    return _write_results(args, report, "comparison.json", report.to_dict(), failure)


def cmd_gradcheck(args) -> int:
    kinds = ACTIVATION_KINDS if args.activation is None else (args.activation,)
    reports = []
    for kind in kinds:
        config = NetworkConfig(
            filter_widths=_parse_ints(args.widths, "filter widths"),
            maps_per_width=args.maps,
            embedding_dim=args.dim,
            dropout_rate=args.dropout,
            activation=Activation(kind, args.a),
            seed=args.seed,
        )
        report = gradient_check(
            config, trials=args.trials, h=args.h, tol=args.tol, seed=args.seed,
            label=kind,
        )
        reports.append(report)
        status = "FAIL" if report.flagged_blocks else "ok"
        print(f"{kind}: worst relative error {report.worst:.3e} [{status}]")
    failure = "flagged parameter blocks" if any(r.flagged_blocks for r in reports) else ""
    return _write_results(args, reports, "gradcheck_report.json",
                          {r.label: r.to_dict() for r in reports}, failure)


def cmd_rerun(args) -> int:
    src = Path(args.manifest)
    with json_artifact(src, "run manifest", 1) as payload:
        command, flags = payload["command"], payload["args"]
        if command not in _RUN_COMMANDS:
            raise DataError(f"{src}: command must be one of {list(_RUN_COMMANDS)}, not {command!r}")
        if not all(isinstance(v, _MANIFEST_VALUE_TYPES) for v in flags.values()):
            raise DataError(f"{src}: args must be an object of strings, numbers, booleans and nulls")
        if args.out is not None:
            flags = {**flags, "out": args.out}
        argv = [command, *_flags(flags)]
    print(f"replaying: {' '.join(argv)}")
    return main(argv)


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _shared_flag_groups() -> dict[str, _Parser]:
    """Argparse parents, one per group of flags that several subcommands share."""
    groups = {name: _Parser(add_help=False)
              for name in ("run", "data", "embeddings", "gate", "preset", "training")}
    g = groups["run"]  # every subcommand but rerun
    g.add_argument("--config", default=None,
                   help="JSON or key=value file of flag defaults (explicit flags still win)")
    g.add_argument("--out", default="out")
    groups["data"].add_argument("--data", required=True, help="prepared dataset.json")
    groups["embeddings"].add_argument("--embeddings", required=True,
                                      help="embeddings.json written by embed")
    groups["gate"].add_argument("--assert", dest="assert_", action="store_true",
                                help="exit 3 when the run misses its threshold")
    g = groups["preset"]
    g.add_argument("--preset", default="elreluwl", choices=sorted(PRESETS),
                   help="named configuration to start from")
    g.add_argument("--activation", default=None, choices=list(ACTIVATION_KINDS),
                   help="override the preset activation")
    g.add_argument("--a", type=float, default=None,
                   help="override the activation inflection/slope parameter")
    g.add_argument("--loss", default=None, choices=["weighted", "unweighted"],
                   help="override the preset loss mode")
    g.add_argument("--widths", default=None, help="override filter widths, e.g. 3,4,5")
    g.add_argument("--maps", type=int, default=None, help="override feature maps per width")
    g.add_argument("--seed", type=int, default=NetworkConfig.seed)
    g = groups["training"]
    g.add_argument("--dropout", type=float, default=NetworkConfig.dropout_rate)
    g.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    g.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    g.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    g.add_argument("--epsilon", type=float, default=TrainConfig.convergence_epsilon,
                   help="minimum validation improvement for convergence")
    g.add_argument("--patience", type=int, default=TrainConfig.convergence_patience,
                   help="epochs without improvement before stopping")
    g.add_argument("--val-fraction", type=float, default=TrainConfig.validation_fraction)
    return groups


def build_parser() -> _Parser:
    parser = _Parser(prog="emocnn", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    groups = _shared_flag_groups()

    def command(name, func, summary, *group_names):
        parents = [groups[g] for g in (*group_names, "run")]
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    p = command("prepare", cmd_prepare, "load and tokenize a dataset")
    p.add_argument("--format", required=True, choices=["polarity", "imdb", "synth"])
    p.add_argument("--path", default=None, help="dataset root directory or CSV file")
    p.add_argument("--spec", default=None,
                   help="synthetic corpus spec, e.g. n=200,vocab=50,len=30,signal=1.0,seed=7"
                        " (neg=/pos= for uneven classes)")
    p.add_argument("--limit-pos", type=int, default=None)
    p.add_argument("--limit-neg", type=int, default=None)

    p = command("embed", cmd_embed, "build the vocabulary and word vectors", "data")
    p.add_argument("--dim", type=int, default=CbowConfig.dim)
    p.add_argument("--window", type=int, default=CbowConfig.window)
    p.add_argument("--negatives", type=int, default=CbowConfig.negatives)
    p.add_argument("--epochs", type=int, default=CbowConfig.epochs)
    p.add_argument("--lr", type=float, default=CbowConfig.learning_rate)
    p.add_argument("--min-count", type=int, default=DEFAULT_MIN_COUNT)
    p.add_argument("--seed", type=int, default=CbowConfig.seed)
    p.add_argument("--random", action="store_true",
                   help="skip training and emit range-bounded random vectors")

    command("train", cmd_train, "train one model", "data", "embeddings", "preset", "training")

    p = command("eval", cmd_eval, "score a trained model on a dataset",
                "data", "embeddings", "gate")
    p.add_argument("--model", required=True)
    p.add_argument("--strata", type=int, default=10)
    p.add_argument("--per-stratum", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--timing-samples", type=int, default=50)
    p.add_argument("--min-accuracy", type=float, default=0.0)

    p = command("cv", cmd_cv, "k-fold cross-validation",
                "data", "embeddings", "preset", "training", "gate")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--min-accuracy", type=float, default=0.0)

    p = command("compare", cmd_compare, "paired baseline-vs-proposed runs",
                "data", "embeddings", "training", "gate")
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--baseline-preset", default="baseline-sota", choices=sorted(PRESETS))
    p.add_argument("--proposed-preset", default="elreluwl", choices=sorted(PRESETS))
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--min-convergence-wins", type=int, default=0)

    p = command("gradcheck", cmd_gradcheck, "verify gradients against finite differences", "gate")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--activation", default=None, choices=list(ACTIVATION_KINDS),
                   help="check one activation kind instead of all five")
    p.add_argument("--a", type=float, default=0.03)
    p.add_argument("--widths", default="2,3")
    p.add_argument("--maps", type=int, default=2)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--dropout", type=float, default=NetworkConfig.dropout_rate)

    p = sub.add_parser("rerun", help="replay a recorded run from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=None, help="redirect outputs to a new directory")
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(expand_config_flags(list(argv)))
        code = args.func(args)
        # Only a run that wrote its outputs (passed or failed its gate) is replayable.
        if args.command in _RUN_COMMANDS and code in (EXIT_OK, EXIT_ASSERT):
            write_manifest(Path(args.out), args.command, args)
        return code
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
