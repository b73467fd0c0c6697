"""Call probes and spans, attached to emocnn from outside.

A function is replaced on every emocnn module that holds it, so calls from
one module into another are caught as well as calls from the benchmark.
`Probe` times the two coarse calls the end-to-end metrics need (`train`,
`train_cbow`) at a cost of two clock reads per call. `Tracer` records one
span (name, start, end, parent) per call of every public function of the
traced modules; spans stay in memory until `write` at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

import reference as ref

MODULES = ("corpus", "embedding", "functions", "network", "training", "evaluation", "cli")

# Span names the per-layer metrics are computed from.
EXPECTED = (
    "cli.cmd_prepare", "cli.cmd_embed", "cli.cmd_train", "cli.cmd_eval", "cli.cmd_compare",
    "corpus.save_dataset_json", "corpus.load_dataset_json",
    "embedding.build_vocab", "embedding.train_cbow", "embedding.embed_lookup",
    "embedding.save_embeddings", "embedding.load_embeddings",
    "evaluation.evaluate", "evaluation.stratified_sample_eval", "evaluation.emit_report",
    "functions.activation_apply", "functions.activation_grad", "functions.softmax",
    "network.forward", "network.backward", "network.sgd_step", "network.predict",
    "network.save_model", "network.load_model",
    "training.train",
)


def _modules():
    return {name: importlib.import_module(f"emocnn.{name}") for name in MODULES}


class Patcher:
    """Replace a function on every emocnn module that holds it; undo on restore."""

    def __init__(self):
        self._undo = []

    def wrap(self, module: str, name: str, make_wrapper) -> bool:
        modules = _modules()
        current = getattr(modules[module], name, None)
        if not callable(current):
            return False
        wrapper = make_wrapper(current)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is current:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return True

    def restore(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


class Probe:
    """Times every `train` and `train_cbow` call and checks its class weights."""

    def __init__(self):
        self.train_calls: list[tuple[int, float, int]] = []  # (docs trained, s, epochs)
        self.cbow_calls: list[tuple[int, float]] = []  # (positions, s)

    def install(self, patcher: Patcher) -> None:
        ok = patcher.wrap("training", "train", self._wrap_train)
        ok = patcher.wrap("embedding", "train_cbow", self._wrap_cbow) and ok
        ref.check(ok, "emocnn no longer has training.train or embedding.train_cbow")

    def _wrap_train(self, fn):
        @functools.wraps(fn)
        def train(*args, **kwargs):
            started = perf_counter()
            params, report = fn(*args, **kwargs)
            elapsed = perf_counter() - started
            dataset = _argument(fn, args, kwargs, "dataset")
            config = _argument(fn, args, kwargs, "config")
            split = ref.split_sizes(dataset.class_counts, config.validation_fraction)
            if config.loss_mode == "weighted":
                expected = ref.class_weights(split)
            else:
                expected = {c: 1.0 for c in split}
            got = {int(c): w for c, w in report.class_weights.items()}
            ref.check(
                got.keys() == expected.keys()
                and all(abs(got[c] - expected[c]) <= 1e-12 * expected[c] for c in got),
                f"class weights {got} != n / (k * count(c)) = {expected}",
            )
            epochs = len(report.epochs)
            self.train_calls.append((sum(split.values()) * epochs, elapsed, epochs))
            return params, report

        return train

    def _wrap_cbow(self, fn):
        @functools.wraps(fn)
        def train_cbow(*args, **kwargs):
            started = perf_counter()
            table = fn(*args, **kwargs)
            elapsed = perf_counter() - started
            dataset = _argument(fn, args, kwargs, "dataset")
            config = _argument(fn, args, kwargs, "config")
            per_epoch = sum(len(d.tokens) for d in dataset.documents if len(d.tokens) >= 2)
            self.cbow_calls.append((per_epoch * config.epochs, elapsed))
            return table

        return train_cbow


def _forward_label(args, kwargs) -> str:
    rng = kwargs.get("rng", args[2] if len(args) > 2 else None)
    return "network.forward[train]" if rng is not None else "network.forward[eval]"


class Tracer:
    """In-memory spans over every public function of the traced modules."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.missing: list[str] = []
        self.results: dict[str, list] = {}

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def install(self, patcher: Patcher) -> None:
        targets = []
        for module, mod in _modules().items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets.append((module, name))
        found = {f"{m}.{n}" for m, n in targets}
        self.missing = [label for label in EXPECTED if label not in found]
        for module, name in targets:
            patcher.wrap(module, name, functools.partial(self._wrap, f"{module}.{name}"))

    def _wrap(self, label, fn):
        fixed = None if label == "network.forward" else self._id(label)
        keep = label in ("evaluation.evaluate", "evaluation.stratified_sample_eval")
        if fixed is None:
            self._id("network.forward[train]")
            self._id("network.forward[eval]")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            nid = fixed if fixed is not None else self._ids[_forward_label(args, kwargs)]
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if keep:
                self.results.setdefault(label, []).append(out)
            return out

        return traced

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class SpanTable:
    """Per-name calls, total and self time, plus nesting queries."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.parent = parent
        self.start = np.frombuffer(tracer.start, dtype=np.float64)
        self.end = np.frombuffer(tracer.end, dtype=np.float64)
        self.dur = self.end - self.start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur))
        self.self_time = self.dur - child

    def mask(self, label: str) -> np.ndarray:
        if label not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name_id == self.names.index(label)

    def prefix_mask(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return np.isin(self.name_id, ids)

    def calls(self, label: str) -> int:
        return int(self.mask(label).sum())

    def total(self, label: str) -> float:
        return float(self.dur[self.mask(label)].sum())

    def self_total(self, mask: np.ndarray) -> float:
        return float(self.self_time[mask].sum())

    def inside(self, label: str) -> np.ndarray:
        """Spans that start within some span of `label` (nesting is by time)."""
        outer = self.mask(label)
        starts, ends = self.start[outer], self.end[outer]
        if starts.size == 0:
            return np.zeros(len(self.dur), dtype=bool)
        k = np.searchsorted(starts, self.start, side="right") - 1
        ok = k >= 0
        result = np.zeros(len(self.dur), dtype=bool)
        result[ok] = (self.start[ok] > starts[k[ok]]) & (self.start[ok] < ends[k[ok]])
        return result

    def child_of(self, outer: np.ndarray) -> np.ndarray:
        """Spans whose direct parent is one of the spans in the mask `outer`."""
        valid = self.parent >= 0
        out = np.zeros(len(self.dur), dtype=bool)
        out[valid] = outer[self.parent[valid]]
        return out


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, train_calls, cbow_calls, rounds: int) -> dict:
    """Per-layer values from the traced rounds (0 where a layer did not run)."""
    t = SpanTable(tracer)
    docs_trained = sum(c[0] for c in train_calls)
    train_time = sum(c[1] for c in train_calls)
    positions = sum(c[0] for c in cbow_calls)
    fwd_train = t.mask("network.forward[train]")
    fwd_eval = t.mask("network.forward[eval]")
    forwards = fwd_train | fwd_eval
    in_train = t.inside("training.train")
    in_strata = t.inside("evaluation.stratified_sample_eval")
    evaluated = sum(r.n_evaluated for r in tracer.results.get("evaluation.evaluate", []))
    strata_docs = sum(
        len(s.doc_indices)
        for rows in tracer.results.get("evaluation.stratified_sample_eval", [])
        for s in rows
    )

    def mean_ms(label):
        return 1e3 * _per(t.total(label), t.calls(label))

    def mean_s(label):
        return _per(t.total(label), t.calls(label))

    def mean_us(label):
        return 1e6 * _per(t.total(label), t.calls(label))

    values = {
        "network.forward_train_self_ms": 1e3 * _per(t.self_total(fwd_train), fwd_train.sum()),
        "network.forward_eval_self_ms": 1e3 * _per(t.self_total(fwd_eval), fwd_eval.sum()),
        "network.backward_ms": mean_ms("network.backward"),
        "network.sgd_step_ms": mean_ms("network.sgd_step"),
        "network.forward_calls_per_train_doc": _per(int((forwards & in_train).sum()), docs_trained),
        "training.self_ms_per_doc": 1e3 * _per(t.self_total(t.prefix_mask("training.")), docs_trained),
        "training.validation_share": _per(
            float(t.dur[fwd_eval & t.child_of(t.mask("training.train"))].sum()), train_time
        ),
        "training.epochs_run": _per(sum(c[2] for c in train_calls), len(train_calls)),
        "functions.activation_us_per_call": mean_us("functions.activation_apply"),
        "functions.activation_grad_us_per_call": mean_us("functions.activation_grad"),
        "functions.softmax_us_per_call": mean_us("functions.softmax"),
        "functions.calls_per_forward": _per(
            int((t.prefix_mask("functions.") & t.child_of(forwards)).sum()), int(forwards.sum())
        ),
        "embedding.cbow_us_per_position": 1e6 * _per(sum(c[1] for c in cbow_calls), positions),
        "embedding.lookup_us_per_doc": mean_us("embedding.embed_lookup"),
        "embedding.build_vocab_s": mean_s("embedding.build_vocab"),
        "embedding.save_s": mean_s("embedding.save_embeddings"),
        "embedding.load_s": mean_s("embedding.load_embeddings"),
        "network.save_model_s": mean_s("network.save_model"),
        "network.load_model_s": mean_s("network.load_model"),
        "corpus.save_dataset_s": mean_s("corpus.save_dataset_json"),
        "corpus.load_dataset_s": mean_s("corpus.load_dataset_json"),
        "evaluation.evaluate_ms_per_doc": 1e3 * _per(t.total("evaluation.evaluate"), evaluated),
        "evaluation.predict_calls_per_scored_doc": _per(
            int((t.mask("network.predict") & in_strata).sum()), strata_docs
        ),
        "evaluation.emit_report_s": mean_s("evaluation.emit_report"),
        "cli.prepare_s": mean_s("cli.cmd_prepare"),
        "cli.embed_s": mean_s("cli.cmd_embed"),
        "cli.train_s": mean_s("cli.cmd_train"),
        "cli.eval_s": mean_s("cli.cmd_eval"),
        "cli.compare_s": mean_s("cli.cmd_compare"),
        "cli.self_s": _per(t.self_total(t.prefix_mask("cli.")), rounds),
        "trace.spans_per_round": _per(len(t.dur), rounds),
        "trace.missing_names": float(len(tracer.missing)),
    }
    return values
