"""The three workloads: desk, paper-train and paper-serve.

Each workload has `setup` (timed several times for setup_s), `prepare`
(untimed fixtures and one-off checks) and `round` (one whole round of the
same operations, returning how many were attempted and how many failed).
Every round records samples into `rec`, a dict of lists, which `metrics`
turns into the end-to-end values.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref
from inputs import FIXED_WORDS_SEED, PaperCorpus
from reference import check

# Program functions are called through their modules, so that the probes
# and spans attached to those modules see the benchmark's own calls too.
from emocnn import cli, corpus, embedding, evaluation, network, training

PAPER_DIM = 200
# Held-out reviews scored one at a time on the paper workloads. An odd
# count puts predict_ms_p50 and p90 on the samples of one review each (the
# 8th and 14th of 15 by length), not between two reviews of other lengths.
HELDOUT = 15
QUICKSTART_SEED = 7


def _median(values) -> float:
    return float(np.median(values))


def _rate(work, seconds) -> float:
    """Median over calls of work per second of each call."""
    return _median([w / t for w, t in zip(work, seconds)])


def _quantile(values, q: float) -> float:
    return float(np.quantile(values, q))


def _same_params(a, b) -> bool:
    return a.config == b.config and all(
        np.array_equal(x, y) for (_, x), (_, y) in zip(a.named_blocks(), b.named_blocks())
    )


class Workload:
    """Shared measurement steps; subclasses define the inputs and the round."""

    name = ""
    setup_repeats = 3
    checkpoint_repeats = 1

    def __init__(self, seed: int, work: Path, tiny: bool):
        self.seed = seed
        self.work = work
        self.tiny = tiny
        self._first_probs: list | None = None
        self.notes: dict = {}

    # -- steps every workload runs ---------------------------------------

    def checkpoint(self, rec, vocab, table, params, out: Path):
        """Save then load the embedding and model checkpoints, `checkpoint_repeats` times."""
        out.mkdir(parents=True, exist_ok=True)
        for _ in range(self.checkpoint_repeats):
            started = perf_counter()
            embedding.save_embeddings(out / "embeddings.json", vocab, table)
            network.save_model(out / "model.json", params)
            rec["checkpoint_save_s"].append(perf_counter() - started)
            loaded = self.reload(rec, vocab, table, params, out)
        rec["checkpoint_mb"].append(((out / "embeddings.json").stat().st_size
                                     + (out / "model.json").stat().st_size) / 1e6)
        return loaded

    def reload(self, rec, vocab, table, params, out: Path):
        """Time one load of the checkpoints in `out`; they must hold what was saved."""
        started = perf_counter()
        vocab2, table2 = embedding.load_embeddings(out / "embeddings.json")
        params2 = network.load_model(out / "model.json")
        rec["checkpoint_load_s"].append(perf_counter() - started)
        check(vocab2.index_to_word == vocab.index_to_word, "checkpoint round trip changed the vocabulary")
        check(np.array_equal(table2.vectors, table.vectors), "checkpoint round trip changed the embedding table")
        check(_same_params(params2, params), "checkpoint round trip changed the model")
        return vocab2, table2, params2

    def predict_pass(self, rec, params, vocab, table, dataset: corpus.LabeledDataset):
        """Time one review at a time, from tokens to class decision.

        Probabilities and decisions are checked against the reference
        forward pass on the first pass; later passes must repeat it exactly.
        """
        max_width = params.config.max_width
        decisions, probs = [], []
        for doc in dataset.documents:
            started = perf_counter()
            cls, p = network.predict(params, embedding.embed_lookup(vocab, table, doc.tokens, min_rows=max_width))
            rec["predict_ms"].append((perf_counter() - started) * 1e3)
            decisions.append(cls)
            probs.append(p)
        if self._first_probs is None:
            for doc, p, cls in zip(dataset.documents, probs, decisions):
                r = ref.probs(params, ref.sentence(table.vectors, vocab.word_to_index, doc.tokens, max_width))
                check(np.max(np.abs(p - r)) <= 1e-9, "predict probabilities differ from the reference")
                check(ref.near_tie(r) or cls == ref.decision(r), "predict decision differs from the reference")
            self._first_probs = probs
        else:
            check(all(np.array_equal(p, q) for p, q in zip(probs, self._first_probs)),
                  "predict is not deterministic across passes")
        return decisions, probs

    def evaluate_pass(self, rec, params, vocab, table, dataset, decisions) -> None:
        """Time `evaluate`; its confusion counts must match the per-review decisions."""
        confusion = {"TP": 0, "TN": 0, "FP": 0, "FN": 0}
        for doc, cls in zip(dataset.documents, decisions):
            if doc.label == 1:
                confusion["TP" if cls == 1 else "FN"] += 1
            else:
                confusion["TN" if cls == 0 else "FP"] += 1
        started = perf_counter()
        result = evaluation.evaluate(params, (vocab, table), dataset)
        rec["eval_s"].append(perf_counter() - started)
        rec["eval_docs"].append(dataset.n)
        check(result.confusion == confusion, f"evaluate confusion {result.confusion} != {confusion}")

    def check_strata(self, strata, dataset, decisions, probs):
        """Stratified accuracies and true-class probabilities from per-doc decisions."""
        labels = dataset.labels()
        seen = set()
        for row in (r if isinstance(r, dict) else r.to_dict() for r in strata):
            idx = list(row["doc_indices"])
            check(not seen & set(idx), "strata overlap")
            seen |= set(idx)
            check(all(labels[i] == row["class_label"] for i in idx), "stratum holds another class")
            acc = sum(decisions[i] == labels[i] for i in idx) / len(idx)
            check(abs(row["accuracy"] - acc) <= 1e-12, "stratum accuracy differs from the reference")
            mean_p = float(np.mean([probs[i][labels[i]] for i in idx]))
            check(abs(row["mean_true_class_prob"] - mean_p) <= 1e-9,
                  "stratum mean true-class probability differs from the reference")

    def check_forward(self, params, vocab, table, docs):
        """Eval-mode `forward` against the explicit-loop reference, to 1e-9."""
        max_width = params.config.max_width
        for doc in docs:
            sent = ref.sentence(table.vectors, vocab.word_to_index, doc.tokens, max_width)
            pre, pooled, p = ref.naive_forward(params, sent)
            trace = network.forward(params, sent)
            for w in params.config.filter_widths:
                check(np.max(np.abs(trace.pre_activations[w] - pre[w])) <= 1e-9,
                      f"conv pre-activations (width {w}) differ from the naive loop")
            check(np.max(np.abs(trace.pooled - pooled)) <= 1e-9, "pooled vector differs from the naive loop")
            check(np.max(np.abs(trace.probs - p)) <= 1e-9, "probabilities differ from the naive loop")

    def metrics(self, rec, setup_times, peak_rss_mb) -> dict:
        # Every time and rate is a median over the calls of a run: on a
        # shared machine, other load slows stretches of seconds, and a median
        # of many calls leaves those out where a total over the run does not.
        values = {
            "setup_s": _median(setup_times),
            "train_docs_per_s": _rate(rec["train_docs"], rec["train_s"]),
            "embed_positions_per_s": _rate(rec["cbow_positions"], rec["cbow_s"]),
            "predict_ms_p50": _quantile(rec["predict_ms"], 0.5),
            "predict_ms_p90": _quantile(rec["predict_ms"], 0.9),
            "eval_docs_per_s": _rate(rec["eval_docs"], rec["eval_s"]),
            "checkpoint_save_s": _median(rec["checkpoint_save_s"]),
            "checkpoint_load_s": _median(rec["checkpoint_load_s"]),
            "checkpoint_mb": _median(rec["checkpoint_mb"]),
            "peak_rss_mb": peak_rss_mb,
        }
        values["pipeline_s"] = self.pipeline_s(rec, values)
        return values

    def pipeline_s(self, rec, values) -> float:
        return _median(rec["pipeline_s"])

    @staticmethod
    def rates(rec, probe, train_from: int, cbow_from: int) -> None:
        """Record work and time of this round's probed train() and CBOW calls."""
        for docs, seconds, _ in probe.train_calls[train_from:]:
            rec["train_docs"].append(docs)
            rec["train_s"].append(seconds)
        for positions, seconds in probe.cbow_calls[cbow_from:]:
            rec["cbow_positions"].append(positions)
            rec["cbow_s"].append(seconds)


class Desk(Workload):
    """The README quickstart through `emocnn.cli.main`, in this process."""

    name = "desk"
    setup_repeats = 45
    checkpoint_repeats = 8
    evaluations = 2

    def __init__(self, seed, work, tiny):
        super().__init__(seed, work, tiny)
        self.n = 20 if tiny else 200
        self.heldout_n = 10 if tiny else 100
        self.strata = "2,5" if tiny else "5,20"
        self.seeds = "1" if tiny else "1,2,3,4,5"
        # The timed corpus is always the quickstart one, so every seed runs
        # the same training work (compare and train stop early on validation
        # accuracy); the workload seed only picks the held-out reviews,
        # which are all 30 tokens long.
        self.spec = f"n={self.n},vocab=50,len=30,signal=1.0,seed={QUICKSTART_SEED}"

    def setup(self):
        self.dataset = corpus.synth_corpus(self.n, 50, 30, 1.0, QUICKSTART_SEED)
        self.heldout = corpus.synth_corpus(self.heldout_n, 50, 30, 1.0, self.seed + 1000)
        self.vocab = embedding.build_vocab(self.dataset)

    def cli(self, *argv, expect=0) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([str(a) for a in argv])
        check(expect is None or rc == expect, f"emocnn {argv[0]} exited {rc}")
        return rc

    def build(self, out: Path) -> None:
        """prepare, embed and train: the quickstart up to model.json."""
        data = out / "data" / "dataset.json"
        self.cli("prepare", "--format", "synth", "--spec", self.spec, "--out", out / "data")
        self.cli("embed", "--data", data, "--dim", 16, "--epochs", 3, "--seed", 7, "--out", out / "emb")
        self.cli("train", "--data", data, "--embeddings", out / "emb" / "embeddings.json",
                 "--preset", "elreluwl", "--lr", 0.05, "--batch", 20, "--out", out / "model")

    def prepare(self):
        # The wrong-embedding eval runs on this fixture, built once, so that
        # a round's own outputs are never scored with the wrong table.
        fixture = self.work / "fixture"
        self.build(fixture)
        self.cli("embed", "--data", fixture / "data" / "dataset.json", "--dim", 16, "--random",
                 "--seed", 8, "--out", fixture / "wrong")

    def round(self, k, rec, probe):
        out = self.work / f"round{k}"
        train_from, cbow_from = len(probe.train_calls), len(probe.cbow_calls)
        data, emb, model = out / "data" / "dataset.json", out / "emb" / "embeddings.json", out / "model" / "model.json"
        strata, per_stratum = self.strata.split(",")
        started = perf_counter()
        self.build(out)
        self.cli("eval", "--model", model, "--data", data, "--embeddings", emb,
                 "--strata", strata, "--per-stratum", per_stratum, "--out", out / "eval")
        self.cli("compare", "--data", data, "--embeddings", emb, "--seeds", self.seeds,
                 "--lr", 0.05, "--batch", 20, "--out", out / "compare")
        rec["pipeline_s"].append(perf_counter() - started)
        self.check_outputs(out)

        # Four more operations, each followed by one slot of the small
        # measurements, so that those sample the whole round rather than
        # one short stretch of it.
        vocab, table = embedding.load_embeddings(emb)
        params = network.load_model(model)
        failed = 0
        for step in range(4):
            if step == 0:
                self.cli("rerun", out / "model" / "manifest.json", "--out", out / "replay")
                check((out / "replay" / "model.json").read_bytes() == model.read_bytes(),
                      "rerun did not reproduce model.json byte for byte")
            elif step == 1:
                failed = self.wrong_embedding_eval(out)
            else:
                # More CBOW samples than the one CLI embed per round.
                embedding.train_cbow(self.dataset, self.vocab, embedding.CbowConfig(dim=16, epochs=1, seed=step))
            self.checkpoint(rec, vocab, table, params, out / "ckpt")
            decisions, _ = self.predict_pass(rec, params, vocab, table, self.heldout)
            for _ in range(self.evaluations):
                self.evaluate_pass(rec, params, vocab, table, self.heldout, decisions)
        self.rates(rec, probe, train_from, cbow_from)
        accuracy = float(np.mean([d == doc.label for d, doc in zip(decisions, self.heldout.documents)]))
        check(accuracy >= 0.95, f"held-out accuracy {accuracy} on the separable corpus")
        self.notes["heldout_accuracy"] = accuracy
        shutil.rmtree(out)
        slot = 2 * self.checkpoint_repeats + self.heldout.n + self.evaluations
        return 5 + 4 + 4 * slot, failed

    def wrong_embedding_eval(self, out: Path) -> int:
        """Score the fixture model with another table of the same dim; 1 if not refused.

        It must exit 2. The checkpoint's embedding_ref is never read, so
        today this exits 0 at chance accuracy: one failed operation.
        """
        fixture = self.work / "fixture"
        rc = self.cli("eval", "--model", fixture / "model" / "model.json",
                      "--data", fixture / "data" / "dataset.json",
                      "--embeddings", fixture / "wrong" / "embeddings.json",
                      "--strata", 2, "--per-stratum", 2, "--out", out / "wrong_eval", expect=None)
        if rc == cli.EXIT_OK:
            report = json.loads((out / "wrong_eval" / "eval_report.json").read_text())
            self.notes["wrong_embedding_eval_accuracy"] = report["eval"]["accuracy"]
        return int(rc != cli.EXIT_DATA)

    def check_outputs(self, out: Path) -> None:
        payload = json.loads((out / "data" / "dataset.json").read_text())
        check([(tuple(d["tokens"]), d["label"]) for d in payload["documents"]]
              == [(d.tokens, d.label) for d in self.dataset.documents],
              "prepare wrote another corpus than synth_corpus gives")
        report = json.loads((out / "eval" / "eval_report.json").read_text())
        check(report["eval"]["accuracy"] >= 0.95, "eval accuracy on the separable corpus")
        self.notes["eval_accuracy"] = report["eval"]["accuracy"]
        vocab, table = embedding.load_embeddings(out / "emb" / "embeddings.json")
        params = network.load_model(out / "model" / "model.json")
        max_width = params.config.max_width
        probs = [ref.probs(params, ref.sentence(table.vectors, vocab.word_to_index, d.tokens, max_width))
                 for d in self.dataset.documents]
        decisions = [ref.decision(p) for p in probs]
        self.check_strata(report["strata"], self.dataset, decisions, probs)
        comparison = json.loads((out / "compare" / "comparison.json").read_text())
        epochs = {"baseline": [], "proposed": []}
        for row in comparison["rows"]:
            for arm in ("baseline", "proposed"):
                acc = row[arm]["eval"]["accuracy"]
                check(acc >= 0.9, f"{arm} arm accuracy {acc} on the separable corpus (seed {row['seed']})")
                epochs[arm].append(row[arm]["report"]["convergence_epoch"])
        self.notes["compare_convergence_epochs"] = epochs


class PaperTrain(Workload):
    """Paper-shape training: CBOW on a corpus slice at d=200, then train()."""

    name = "paper-train"
    setup_repeats = 31

    def __init__(self, seed, work, tiny):
        super().__init__(seed, work, tiny)
        docs = PaperCorpus(seed)
        self.train_docs = docs.documents(6 if tiny else 12, "train")
        self.heldout_docs = docs.documents(3 if tiny else HELDOUT, "heldout")
        # The CBOW slice, and so the checkpointed table, is the same for every
        # seed; its three parts have the same lengths, so every CBOW call
        # does the same work.
        fixed = PaperCorpus(FIXED_WORDS_SEED)
        self.slice_part_docs = [fixed.documents(1 if tiny else 3, f"slice{j}") for j in range(3)]
        self.slice_docs = [d for part in self.slice_part_docs for d in part]

    def setup(self):
        self.train_ds = corpus.LabeledDataset.from_documents(self.train_docs)
        self.slice_ds = corpus.LabeledDataset.from_documents(self.slice_docs)
        self.slice_parts = [corpus.LabeledDataset.from_documents(d) for d in self.slice_part_docs]
        self.heldout = corpus.LabeledDataset.from_documents(self.heldout_docs)
        self.vocab = embedding.build_vocab(self.train_ds)
        self.slice_vocab = embedding.build_vocab(self.slice_ds)
        self.table = embedding.init_random_embeddings(self.vocab, PAPER_DIM, seed=1)
        self.config = training.preset_config("elreluwl", PAPER_DIM, seed=0, learning_rate=0.05,
                                    batch_size=5, max_epochs=2)
        self.cbow = embedding.CbowConfig(dim=PAPER_DIM, epochs=1, seed=1)

    def prepare(self):
        self.initial = params = network.init_params(self.config.network)
        by_length = sorted(self.heldout_docs, key=lambda d: len(d.tokens))
        self.check_forward(params, self.vocab, self.table, [by_length[0], by_length[len(by_length) // 2]])
        short = min(self.train_docs, key=lambda d: len(d.tokens))
        weights = ref.class_weights(ref.split_sizes(self.train_ds.class_counts, self.config.validation_fraction))
        sent = ref.sentence(self.table.vectors, self.vocab.word_to_index, short.tokens, params.config.max_width)
        self.notes["finite_difference_worst_rel_error"] = ref.finite_difference_check(
            params, sent, short.label, weights[short.label], mask_seed=self.seed,
            forward=network.forward, backward=network.backward,
            samples=8 if self.tiny else 24, rng=np.random.default_rng(self.seed),
        )

    def round(self, k, rec, probe):
        # Three steps, each a CBOW part, a checkpoint of its table and the
        # previous model, a train() (the second and third must repeat the
        # first exactly) and a checkpoint of both; the held-out reviews are
        # scored after the first step and evaluated after the first two.
        # Checkpoints sit on both sides of train() so that their samples
        # spread over the round.
        train_from, cbow_from = len(probe.train_calls), len(probe.cbow_calls)
        out = self.work / f"round{k}"
        params = self.initial
        for step, part in enumerate(self.slice_parts):
            table = embedding.train_cbow(part, self.slice_vocab, self.cbow)
            check(all(np.isfinite(x) for x in table.train_objective), "CBOW objective is not finite")
            self.checkpoint(rec, self.slice_vocab, table, params, out)
            params, report = training.train(self.train_ds, (self.vocab, self.table), self.config)
            check(all(np.isfinite(e.train_loss) for e in report.epochs), "training loss is not finite")
            if step == 0:
                first = params
                self.notes["epochs_run"] = len(report.epochs)
                self.notes["best_validation_accuracy"] = report.best_validation_accuracy
            else:
                check(_same_params(params, first), "train() with the same seed gave another model")
            self.checkpoint(rec, self.slice_vocab, table, params, out)
            if step == 0:
                decisions, _ = self.predict_pass(rec, params, self.vocab, self.table, self.heldout)
            if step < 2:
                self.evaluate_pass(rec, params, self.vocab, self.table, self.heldout, decisions)
        self.rates(rec, probe, train_from, cbow_from)
        shutil.rmtree(out)
        return 3 * (1 + 1 + 4) + self.heldout.n + 2, 0

    def pipeline_s(self, rec, values) -> float:
        # CBOW over the whole slice plus one train(), from the medians of both.
        positions = sum(len(d.tokens) for d in self.slice_docs) * self.cbow.epochs
        return _median(rec["train_s"]) + positions / values["embed_positions_per_s"]


class PaperServe(Workload):
    """Read-only path: checkpoint save/load of a 200-d table and the paper-shape model, then scoring."""

    name = "paper-serve"
    setup_repeats = 21

    def __init__(self, seed, work, tiny):
        super().__init__(seed, work, tiny)
        docs = PaperCorpus(seed)
        # The vocabulary, and so the checkpoint size, is the same for every seed.
        self.corpus_docs = PaperCorpus(FIXED_WORDS_SEED).documents(12 if tiny else 30, "corpus")
        self.heldout_docs = docs.documents(5 if tiny else HELDOUT, "heldout")
        # `evaluate` runs on sets of the same lengths, so that every call
        # does the same work and eval_docs_per_s is a median over calls.
        self.chunk_docs = [docs.documents(4 if tiny else 8, f"eval{j}") for j in range(4)]
        self.side_docs = docs.documents(6, "side")
        self.strata = (1, 1) if tiny else (2, 2)

    def setup(self):
        self.vocab_corpus = corpus.LabeledDataset.from_documents(self.corpus_docs)
        self.heldout = corpus.LabeledDataset.from_documents(self.heldout_docs)
        self.chunks = [corpus.LabeledDataset.from_documents(d) for d in self.chunk_docs]
        self.side = corpus.LabeledDataset.from_documents(self.side_docs)
        self.side_vocab = embedding.build_vocab(self.side)
        self.side_halves = [corpus.LabeledDataset.from_documents(self.side_docs[i::2]) for i in range(2)]
        self.vocab = embedding.build_vocab(self.vocab_corpus)
        self.table = embedding.init_random_embeddings(self.vocab, PAPER_DIM, seed=self.seed)
        self.config = training.preset_config("elreluwl", PAPER_DIM, seed=self.seed, learning_rate=0.05,
                                    batch_size=5, max_epochs=1)
        self.params = network.init_params(self.config.network)
        self.cbow = embedding.CbowConfig(dim=PAPER_DIM, epochs=1, seed=1)

    def prepare(self):
        by_length = sorted(self.heldout_docs, key=lambda d: len(d.tokens))
        self.check_forward(self.params, self.vocab, self.table, [by_length[0], by_length[-1]])
        max_width = self.params.config.max_width
        self.chunk_decisions = [
            [ref.decision(ref.probs(self.params, ref.sentence(self.table.vectors, self.vocab.word_to_index,
                                                              d.tokens, max_width)))
             for d in chunk.documents]
            for chunk in self.chunks
        ]
        self.notes["vocabulary_size"] = len(self.vocab)

    def round(self, k, rec, probe):
        # Each of three steps is a save and a load, scoring from the loaded
        # checkpoint (the held-out reviews one at a time in steps 1 and 3,
        # `evaluate` on one or two of the four sets), then one more load, so
        # that every kind of sample spreads over the round.
        out = self.work / f"round{k}"
        train_from, cbow_from = len(probe.train_calls), len(probe.cbow_calls)
        for step, sets in enumerate(([0], [1, 2], [3])):
            # Side job outside the serving path, so that this workload reports
            # the training and CBOW rates too: CBOW on half the side documents
            # at the start and end of each step, and short train() runs.
            embedding.train_cbow(self.side_halves[0], self.side_vocab, self.cbow)
            vocab, table, params = self.checkpoint(rec, self.vocab, self.table, self.params, out)
            if step != 1:
                decisions, probs = self.predict_pass(rec, params, vocab, table, self.heldout)
            for j in sets:
                self.evaluate_pass(rec, params, vocab, table, self.chunks[j], self.chunk_decisions[j])
            if step == 2:
                strata, per_stratum = self.strata
                rows = evaluation.stratified_sample_eval(
                    params, (vocab, table), self.heldout, strata, per_stratum, self.seed
                )
            self.reload(rec, self.vocab, self.table, self.params, out)
            embedding.train_cbow(self.side_halves[1], self.side_vocab, self.cbow)
            if step != 1:
                training.train(self.side, (vocab, table), self.config)
        self.check_strata(rows, self.heldout, decisions, probs)
        self.rates(rec, probe, train_from, cbow_from)
        shutil.rmtree(out)
        return 3 * 3 + 2 * self.heldout.n + len(self.chunks) + 1 + 6 + 2, 0

    def pipeline_s(self, rec, values) -> float:
        # The serving path from a cold start: one checkpoint load, then the
        # held-out reviews scored by `evaluate`, from the medians of both.
        return values["checkpoint_load_s"] + self.heldout.n / values["eval_docs_per_s"]


WORKLOADS = {w.name: w for w in (Desk, PaperTrain, PaperServe)}
