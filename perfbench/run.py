"""Benchmark of the emocnn pipeline: one workload per process.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
./src. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones (spans off); with --trace 1 the run first runs one
warm-up round, then measures untraced rounds, then traced rounds, and
reports the per-layer metrics and the tracing overhead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
# Single-threaded BLAS for every workload: steadier on a shared machine,
# and never more threads than cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_docs_per_s": "docs/s",
    "embed_positions_per_s": "positions/s",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "eval_docs_per_s": "docs/s",
    "checkpoint_save_s": "s",
    "checkpoint_load_s": "s",
    "checkpoint_mb": "MB",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "network.forward_train_self_ms": "ms",
    "network.forward_eval_self_ms": "ms",
    "network.backward_ms": "ms",
    "network.sgd_step_ms": "ms",
    "network.forward_calls_per_train_doc": "calls/doc",
    "training.self_ms_per_doc": "ms",
    "training.validation_share": "ratio",
    "training.epochs_run": "count",
    "functions.activation_us_per_call": "us",
    "functions.activation_grad_us_per_call": "us",
    "functions.softmax_us_per_call": "us",
    "functions.calls_per_forward": "count",
    "embedding.cbow_us_per_position": "us",
    "embedding.lookup_us_per_doc": "us",
    "embedding.build_vocab_s": "s",
    "embedding.save_s": "s",
    "embedding.load_s": "s",
    "network.save_model_s": "s",
    "network.load_model_s": "s",
    "corpus.save_dataset_s": "s",
    "corpus.load_dataset_s": "s",
    "evaluation.evaluate_ms_per_doc": "ms",
    "evaluation.predict_calls_per_scored_doc": "calls/doc",
    "evaluation.emit_report_s": "s",
    "cli.prepare_s": "s",
    "cli.embed_s": "s",
    "cli.train_s": "s",
    "cli.eval_s": "s",
    "cli.compare_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans_per_round": "count",
    "trace.missing_names": "count",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["desk", "paper-train", "paper-serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own self-test")
    return parser.parse_args(argv)


def rounds(workload, rec, probe, attempts, deadline: float, at_least: int) -> list[float]:
    """Whole rounds, at least `at_least`, while half a mean round still fits before `deadline`."""
    times = []
    while len(times) < at_least or perf_counter() + 0.5 * sum(times) / len(times) < deadline:
        started = perf_counter()
        attempts.append(workload.round(len(attempts), rec, probe))
        times.append(perf_counter() - started)
    return times


def measure(args) -> dict:
    import numpy as np

    import tracing
    from reference import CheckFailed
    from workloads import WORKLOADS

    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work, args.tiny)
    rec = defaultdict(list)
    attempts: list[tuple[int, int]] = []
    patcher = tracing.Patcher()
    correct = True
    try:
        setup_times = []
        for _ in range(workload.setup_repeats):
            started = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - started)
        workload.prepare()
        probe = tracing.Probe()
        probe.install(patcher)
        begin = perf_counter()
        if not args.trace:
            rounds(workload, rec, probe, attempts, begin + args.seconds, 2)
            values = workload.metrics(rec, setup_times, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            units = END_TO_END
        else:
            # One warm-up round first: the first round alone runs one-off
            # reference checks, which would make the untraced side look slow.
            rounds(workload, rec, probe, attempts, begin, 1)
            begin = perf_counter()
            plain = rounds(workload, rec, probe, attempts, begin + args.seconds / 2, 1)
            tracer = tracing.Tracer()
            tracer_patches = tracing.Patcher()
            tracer.install(tracer_patches)
            train_from, cbow_from = len(probe.train_calls), len(probe.cbow_calls)
            workload.setup()
            traced = rounds(workload, rec, probe, attempts, begin + args.seconds, 1)
            tracer_patches.restore()
            values = tracing.layer_metrics(
                tracer, probe.train_calls[train_from:], probe.cbow_calls[cbow_from:], len(traced)
            )
            # Whole-round times, checks included, on both sides. With one or
            # two rounds a side this cannot resolve an overhead smaller than
            # the round-to-round noise.
            values["trace.overhead_s"] = float(np.mean(traced) - np.mean(plain))
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
            if tracer.missing:
                print(f"trace: missing wrapped names: {', '.join(tracer.missing)}", file=sys.stderr)
            units = PER_LAYER
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
        values, units = {}, {}
    finally:
        patcher.restore()
        shutil.rmtree(work, ignore_errors=True)
    for key, value in sorted(workload.notes.items()):
        print(f"note {key}: {value}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": sum(a for a, _ in attempts),
        "failed": sum(f for _, f in attempts),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
                    if name in values},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "emocnn" / "__init__.py").is_file():
        print(f"error: no emocnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(1, str(ROOT / "src"))
    import emocnn

    if Path(emocnn.__file__).resolve().parent != ROOT / "src" / "emocnn":
        print(f"error: emocnn imported from {emocnn.__file__}, not this checkout", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
