"""The packed training step against a test-local per-document step.

`reference_step` has the signature of `network.train_step` and takes its
BLAS products from the library: the pack convolution (`_conv_pre_activations`
on the packs of `network._packs`), and the logits and the pooled gradient as
the same batch products of its own stacked per-document vectors. Everything
else it does per document: it activates every (map, position) entry of the
document's own windows before pooling, takes the first argmax, draws its own
`dropout_mask`, and builds a fresh gradient from `np.outer` and the argmax
windows of `sliding_window_view`, which the batch then accumulates as
`batch.vector += 1.0 * grads.vector`. The library pools before activating
where that is exact, gathers the windows of a pack's documents at once, and
adds the per-document gradient blocks in place; both must give the same
bits.

`batch_family_worst` checks the library step itself against central
differences of its own summed weighted loss, on batches whose packs hold
several documents, some shorter than the widest filter.
"""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from emocnn import evaluation, network, training
from emocnn.corpus import synth_corpus
from emocnn.embedding import CbowConfig, build_vocab, train_cbow
from emocnn.evaluation import strip_timing
from emocnn.functions import (
    ACTIVATION_KINDS,
    Activation,
    activation_apply,
    activation_grad,
    cross_entropy,
    softmax,
)
from emocnn.network import (
    ForwardTrace,
    NetworkConfig,
    _conv_pre_activations,
    dropout_mask,
    forward,
    init_params,
)


def reference_pool(act, pre):
    """(first argmax, maximum) of each map, activated in full first."""
    fmap = activation_apply(act, pre)
    best = fmap.argmax(axis=1)
    return best, fmap[np.arange(fmap.shape[0]), best]


def reference_forward(params, sentence, rng=None):
    """Full-map activation, then the first argmax of each activated map."""
    config = params.config
    pre_acts, argmax, pooled_parts = {}, {}, []
    for w in config.filter_widths:
        pre = _conv_pre_activations(params.filters[w], params.filter_biases[w], sentence)
        argmax[w], top = reference_pool(config.activation, pre)
        pre_acts[w] = pre
        pooled_parts.append(top)
    pooled = np.concatenate(pooled_parts)
    p = config.dropout_rate
    if rng is not None and p > 0.0:
        mask = dropout_mask(rng, pooled.shape[0], p)
        dropped = pooled * mask
    else:
        mask = None
        dropped = pooled
    logits = params.fc_weights @ dropped + params.fc_bias
    return ForwardTrace(sentence=sentence, pre_activations=pre_acts, argmax=argmax,
                        pooled=pooled, dropout_mask=mask, dropped=dropped,
                        probs=softmax(logits))


def reference_step(params, table, index_arrays, targets, sample_weights, rng):
    """`network.train_step`, one document at a time around the library's products."""
    config = params.config
    act, p, m = config.activation, config.dropout_rate, config.maps_per_width
    traces = []
    for _, _, starts, packed in network._packs(table, index_arrays, config.max_width):
        pack_pre = {w: _conv_pre_activations(params.filters[w], params.filter_biases[w], packed)
                    for w in config.filter_widths}
        for begin, end in zip(starts[:-1], starts[1:]):
            pre_acts, argmax, pooled_parts = {}, {}, []
            for w in config.filter_widths:
                pre_acts[w] = pack_pre[w][:, begin : end - w + 1]
                argmax[w], top = reference_pool(act, pre_acts[w])
                pooled_parts.append(top)
            pooled = np.concatenate(pooled_parts)
            mask = dropout_mask(rng, pooled.shape[0], p) if p > 0.0 else None
            traces.append(ForwardTrace(sentence=packed[begin:end], pre_activations=pre_acts,
                                       argmax=argmax, pooled=pooled, dropout_mask=mask,
                                       dropped=pooled if mask is None else pooled * mask,
                                       probs=None))
    logits = np.stack([t.dropped for t in traces]) @ params.fc_weights.T + params.fc_bias
    probs = np.stack([softmax(row) for row in logits])
    dlogits = []
    for row, target, weight in zip(probs, targets, sample_weights):
        d = row.copy()
        d[target] -= 1.0
        d *= weight
        dlogits.append(d)
    ddropped = np.stack(dlogits) @ params.fc_weights
    batch = params.zeros_like()
    for trace, d, dd in zip(traces, dlogits, ddropped):
        grads = params.zeros_like()
        grads.fc_weights[...] = np.outer(d, trace.dropped)
        grads.fc_bias[...] = d
        dpooled = dd if trace.dropout_mask is None else dd * trace.dropout_mask
        for i, w in enumerate(config.filter_widths):
            best = trace.argmax[w]
            pre_at_best = trace.pre_activations[w][np.arange(m), best]
            dx = dpooled[i * m : (i + 1) * m] * activation_grad(act, pre_at_best)
            windows = sliding_window_view(trace.sentence, (w, trace.sentence.shape[1]))[:, 0]
            grads.filters[w][...] = dx[:, None, None] * windows[best]
            grads.filter_biases[w][...] = dx
        batch.vector += 1.0 * grads.vector
    return probs, batch


def train_both(monkeypatch, dataset, embeddings, config):
    """(params, stripped report) of `train` with the library step, then the reference."""
    runs = []
    for step in ("library", "reference"):
        if step == "reference":
            monkeypatch.setattr(training, "train_step", reference_step)
        params, report = training.train(dataset, embeddings, config)
        runs.append((params, strip_timing(report.to_dict())))
    return runs


@pytest.fixture(scope="module")
def quickstart():
    """The README quickstart corpus and its CBOW table (d = 16)."""
    dataset = synth_corpus(n_per_class=200, vocab_size=50, doc_len=30,
                           signal_strength=1.0, seed=7)
    vocab = build_vocab(dataset)
    return dataset, (vocab, train_cbow(dataset, vocab, CbowConfig(dim=16, epochs=3, seed=7)))


@pytest.mark.parametrize("preset", ["elreluwl", "baseline-sota"])
def test_train_matches_the_reference_step_on_the_quickstart(monkeypatch, quickstart, preset):
    dataset, embeddings = quickstart
    config = training.preset_config(preset, 16, seed=3, learning_rate=0.05, batch_size=20,
                                    max_epochs=6)
    (fast, fast_report), (ref, ref_report) = train_both(monkeypatch, dataset, embeddings, config)
    assert np.array_equal(fast.vector, ref.vector)
    assert fast_report == ref_report


def test_train_matches_the_reference_step_below_max_width(monkeypatch):
    # Two-token documents: every sentence is zero-padded up to width 5.
    dataset = synth_corpus(n_per_class=12, vocab_size=16, doc_len=2,
                           signal_strength=0.5, seed=5)
    vocab = build_vocab(dataset)
    embeddings = (vocab, train_cbow(dataset, vocab, CbowConfig(dim=6, epochs=1, seed=5)))
    config = training.preset_config("elreluwl", 6, seed=2, learning_rate=0.05, batch_size=4,
                                    max_epochs=4, maps_per_width=6)
    (fast, fast_report), (ref, ref_report) = train_both(monkeypatch, dataset, embeddings, config)
    assert np.array_equal(fast.vector, ref.vector)
    assert fast_report == ref_report


# name -> (widths, maps per width, dim, document lengths, filter bias).
STEP_CASES = {
    "quickstart shape": ((3, 4, 5), 100, 16, [30] * 20, 0.0),
    "lengths 1 to 40": ((3, 4, 5), 4, 3, list(range(1, 41)), 0.0),
    "past the pack cap": ((3, 4, 5), 1, 3, [300, 2, 12, network._PACK_ROWS], 0.0),
    "nine equal documents": ((2, 3), 3, 3, [10] * 9, 0.0),
    # Around 33 the sigmoid rounds to a few values just below 1, so maps tie
    # between windows whose gradients differ (its slope is still about 5e-15):
    # there a reference that took the last argmax would fail.
    "saturating inputs": ((1, 3), 6, 3, [12, 7, 30], 33.0),
}


@pytest.mark.parametrize("dropout", [0.0, 0.4])
@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
@pytest.mark.parametrize("case", STEP_CASES)
def test_step_is_bit_equal_to_the_reference(case, kind, dropout):
    widths, maps, dim, lengths, bias = STEP_CASES[case]
    rng = np.random.default_rng(len(lengths))
    config = NetworkConfig(filter_widths=widths, maps_per_width=maps, embedding_dim=dim,
                           dropout_rate=dropout, activation=Activation(kind), seed=1)
    params = init_params(config)
    for w in widths:
        params.filter_biases[w][:] = bias
    table = rng.normal(size=(12, dim))
    docs = [rng.integers(0, 12, size=n) for n in lengths]
    if case == "nine equal documents":
        docs = [docs[0]] * len(docs)
    targets = rng.integers(0, 2, size=len(docs))
    weights = rng.uniform(0.5, 2.0, size=len(docs))
    got = network.train_step(params, table, docs, targets, weights, np.random.default_rng(5))
    want = reference_step(params, table, docs, targets, weights, np.random.default_rng(5))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].vector, want[1].vector)


class TestPoolBeforeActivation:
    """`forward` against `reference_forward`, bit for bit, on every kind.

    Negative bias shifts push whole maps left of the boundary; zero rows and
    repeated rows give windows with exactly equal pre-activations; a large
    input scale saturates the sigmoid, where activated values tie although
    the pre-activations differ.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(ACTIVATION_KINDS),
        widths=st.sets(st.integers(1, 4), min_size=1, max_size=3),
        maps=st.integers(1, 6),
        extra_rows=st.integers(0, 12),
        bias_shift=st.sampled_from([0.0, -0.02, -0.5, -5.0]),
        scale=st.sampled_from([1.0, 60.0]),
        distinct_rows=st.integers(1, 4),
        zero_rows=st.integers(0, 6),
        dropout=st.sampled_from([0.0, 0.4]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="mlrelu-continuous", widths={2}, maps=3, extra_rows=4, bias_shift=-5.0,
             scale=1.0, distinct_rows=1, zero_rows=6, dropout=0.0, seed=0)
    @example(kind="sigmoid", widths={1, 3}, maps=4, extra_rows=8, bias_shift=0.0,
             scale=60.0, distinct_rows=4, zero_rows=0, dropout=0.4, seed=1)
    def test_pooled_argmax_and_probs_are_bit_equal(self, kind, widths, maps, extra_rows,
                                                   bias_shift, scale, distinct_rows,
                                                   zero_rows, dropout, seed):
        rng = np.random.default_rng(seed)
        config = NetworkConfig(filter_widths=tuple(sorted(widths)), maps_per_width=maps,
                               embedding_dim=3, dropout_rate=dropout,
                               activation=Activation(kind), seed=seed)
        params = init_params(config)
        for w in config.filter_widths:
            params.filter_biases[w][:] = rng.normal(scale=0.05, size=maps) + bias_shift
        length = config.max_width + extra_rows
        pool = scale * rng.normal(size=(distinct_rows, 3))
        sentence = pool[rng.integers(distinct_rows, size=length)]
        sentence[length - min(zero_rows, length):] = 0.0
        mask_seed = int(rng.integers(1 << 30))
        got = forward(params, sentence, rng=np.random.default_rng(mask_seed))
        want = reference_forward(params, sentence, rng=np.random.default_rng(mask_seed))
        assert np.array_equal(got.pooled, want.pooled)
        for w in config.filter_widths:
            assert np.array_equal(got.argmax[w], want.argmax[w]), f"width {w}"
        assert np.array_equal(got.probs, want.probs)

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_top_exactly_on_the_boundary(self, kind):
        # drelu maps both entries to -a, so the first argmax is position 0,
        # not the position of the top pre-activation.
        act = Activation(kind)
        config = NetworkConfig(filter_widths=(1,), maps_per_width=1, embedding_dim=1,
                               dropout_rate=0.0, activation=act)
        params = init_params(config)
        params.filters[1][...] = 1.0
        sentence = np.array([[-1.0], [act.boundary or 0.0]])
        got, want = forward(params, sentence), reference_forward(params, sentence)
        assert np.array_equal(got.pooled, want.pooled)
        assert np.array_equal(got.argmax[1], want.argmax[1])


def batch_fixture(rng, kind, dropout):
    """(params, table, docs, targets, weights, mask seed): 1-4 documents of 1 to
    `max_width` + 4 words of a 12-word table, with random nonzero filter biases
    so that the windows of zero padding miss the kink at 0."""
    config = NetworkConfig(filter_widths=(2, 3), maps_per_width=2, embedding_dim=3,
                           dropout_rate=dropout, activation=Activation(kind),
                           seed=int(rng.integers(1 << 30)))
    params = init_params(config)
    for biases in params.filter_biases.values():
        biases[:] = rng.normal(scale=0.5, size=biases.shape)
    table = rng.normal(size=(12, 3))
    docs = [rng.integers(0, 12, size=int(rng.integers(1, config.max_width + 5)))
            for _ in range(int(rng.integers(1, 5)))]
    targets = rng.integers(0, 2, size=len(docs))
    weights = rng.uniform(0.5, 2.0, size=len(docs))
    return params, table, docs, targets, weights, int(rng.integers(1 << 30))


def batch_family_worst(kind, dropout=0.4, step=network.train_step, grad_transform=None,
                       fixtures=20):
    """Worst relative error, as `gradient_check` measures it, of `step`'s batch
    gradient against central differences of the summed weighted loss of its
    probabilities, over `fixtures` batches that are smooth in every document."""
    rng = np.random.default_rng(ACTIVATION_KINDS.index(kind))
    worst, done = 0.0, 0
    for _ in range(50 * fixtures):
        params, table, docs, targets, weights, mask_seed = batch_fixture(rng, kind, dropout)
        sentences = [network.sentence_rows(table, ids, params.config.max_width) for ids in docs]
        if not all(evaluation._fixture_is_smooth(params, sentence) for sentence in sentences):
            continue

        def run(p):
            return step(p, table, docs, targets, weights, np.random.default_rng(mask_seed))

        def loss(p):
            return sum(cross_entropy(row, t, w) for row, t, w in zip(run(p)[0], targets, weights))

        analytic = run(params)[1]
        if grad_transform is not None:
            analytic = grad_transform(analytic)
        a, n = analytic.vector, evaluation._numeric_gradients(loss, params, 1e-5).vector
        worst = max(worst, float(np.max(np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), 1e-6))))
        done += 1
        if done == fixtures:
            return worst
    raise AssertionError(f"only {done} of {fixtures} fixtures were smooth")


@pytest.mark.parametrize("dropout", [0.0, 0.4])
@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
def test_batch_gradients_match_central_differences(kind, dropout):
    assert batch_family_worst(kind, dropout) <= 1e-4


def scaled_filter_entry(grads):
    grads.filters[2][0, 0, 0] *= 1.01
    return grads


def step_without_pack_offsets():
    """`network.train_step` gathering each document's windows at its argmax
    start in the document, not in the pack."""
    source = inspect.getsource(network.train_step)
    assert source.count("starts[:-1, None] + best[block]") == 1
    namespace = dict(vars(network))
    exec(source.replace("starts[:-1, None] + best[block]", "best[block]"), namespace)
    return namespace["train_step"]


@pytest.mark.parametrize("fault", ["scaled filter entry", "no pack offset"])
def test_batch_family_flags_a_fault(fault):
    if fault == "scaled filter entry":
        worst = batch_family_worst("mlrelu-continuous", grad_transform=scaled_filter_entry)
    else:
        worst = batch_family_worst("mlrelu-continuous", step=step_without_pack_offsets())
    assert worst > 1e-4
