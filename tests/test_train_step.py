"""The training step against a test-local copy of the per-sample step it replaced.

`reference_forward` activates every (map, position) entry before pooling,
and `reference_backward` gathers the argmax windows through
`sliding_window_view` into a fresh gradient per sample, which the batch
then accumulates as `batch.vector += 1.0 * grads.vector`. The library
pools before activating where that is exact and adds each sample's
gradient in place; both must give the same bits. Pooling first runs only
on banks of at least `network._POOL_FIRST_MIN_ENTRIES` entries, so tests
on small inputs set that bound to 0 as well as leaving it as it is.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from emocnn import network, training
from emocnn.corpus import synth_corpus
from emocnn.embedding import CbowConfig, build_vocab, train_cbow
from emocnn.evaluation import strip_timing
from emocnn.functions import (
    ACTIVATION_KINDS,
    Activation,
    activation_apply,
    activation_grad,
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


def reference_forward(params, sentence, rng=None):
    """Full-map activation, then the first argmax of each activated map."""
    config = params.config
    pre_acts, argmax, pooled_parts = {}, {}, []
    for w in config.filter_widths:
        pre = _conv_pre_activations(params.filters[w], params.filter_biases[w], sentence)
        fmap = activation_apply(config.activation, pre)
        best = fmap.argmax(axis=1)
        pre_acts[w] = pre
        argmax[w] = best
        pooled_parts.append(fmap[np.arange(fmap.shape[0]), best])
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


def reference_backward(params, trace, target, sample_weight=1.0, out=None):
    """A fresh gradient per sample, added to `out` as one vector."""
    config = params.config
    dlogits = trace.probs.copy()
    dlogits[target] -= 1.0
    dlogits *= sample_weight
    grads = params.zeros_like()
    grads.fc_weights[...] = np.outer(dlogits, trace.dropped)
    grads.fc_bias[...] = dlogits
    ddropped = params.fc_weights.T @ dlogits
    dpooled = ddropped if trace.dropout_mask is None else ddropped * trace.dropout_mask
    offset = 0
    for w in config.filter_widths:
        m = config.maps_per_width
        seg = dpooled[offset : offset + m]
        offset += m
        best = trace.argmax[w]
        pre_at_best = trace.pre_activations[w][np.arange(m), best]
        dx = seg * activation_grad(config.activation, pre_at_best)
        windows = sliding_window_view(trace.sentence, (w, trace.sentence.shape[1]))[:, 0]
        grads.filters[w][...] = dx[:, None, None] * windows[best]
        grads.filter_biases[w][...] = dx
    if out is None:
        return grads
    out.vector += 1.0 * grads.vector
    return out


POOL_FIRST_BOUNDS = [0, network._POOL_FIRST_MIN_ENTRIES]


def train_both(monkeypatch, dataset, embeddings, config, min_entries):
    """(params, stripped report) of `train` with the library step, then the reference."""
    monkeypatch.setattr(network, "_POOL_FIRST_MIN_ENTRIES", min_entries)
    runs = []
    for step in ("library", "reference"):
        if step == "reference":
            monkeypatch.setattr(training, "forward", reference_forward)
            monkeypatch.setattr(training, "backward", reference_backward)
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


@pytest.mark.parametrize("min_entries", POOL_FIRST_BOUNDS)
@pytest.mark.parametrize("preset", ["elreluwl", "baseline-sota"])
def test_train_matches_the_reference_step_on_the_quickstart(monkeypatch, quickstart, preset,
                                                            min_entries):
    dataset, embeddings = quickstart
    config = training.preset_config(preset, 16, seed=3, learning_rate=0.05, batch_size=20,
                                    max_epochs=6)
    (fast, fast_report), (ref, ref_report) = train_both(monkeypatch, dataset, embeddings, config,
                                                        min_entries)
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
    (fast, fast_report), (ref, ref_report) = train_both(monkeypatch, dataset, embeddings, config, 0)
    assert np.array_equal(fast.vector, ref.vector)
    assert fast_report == ref_report


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
        min_entries=st.sampled_from(POOL_FIRST_BOUNDS),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="mlrelu-continuous", widths={2}, maps=3, extra_rows=4, bias_shift=-5.0,
             scale=1.0, distinct_rows=1, zero_rows=6, dropout=0.0, min_entries=0, seed=0)
    @example(kind="sigmoid", widths={1, 3}, maps=4, extra_rows=8, bias_shift=0.0,
             scale=60.0, distinct_rows=4, zero_rows=0, dropout=0.4, min_entries=0, seed=1)
    def test_pooled_argmax_and_probs_are_bit_equal(self, kind, widths, maps, extra_rows,
                                                   bias_shift, scale, distinct_rows,
                                                   zero_rows, dropout, min_entries, seed):
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
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "_POOL_FIRST_MIN_ENTRIES", min_entries)
            got = forward(params, sentence, rng=np.random.default_rng(mask_seed))
        want = reference_forward(params, sentence, rng=np.random.default_rng(mask_seed))
        assert np.array_equal(got.pooled, want.pooled)
        for w in config.filter_widths:
            assert np.array_equal(got.argmax[w], want.argmax[w]), f"width {w}"
        assert np.array_equal(got.probs, want.probs)

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_top_exactly_on_the_boundary(self, monkeypatch, kind):
        # drelu maps both entries to -a, so the first argmax is position 0,
        # not the position of the top pre-activation.
        monkeypatch.setattr(network, "_POOL_FIRST_MIN_ENTRIES", 0)
        act = Activation(kind)
        config = NetworkConfig(filter_widths=(1,), maps_per_width=1, embedding_dim=1,
                               dropout_rate=0.0, activation=act)
        params = init_params(config)
        params.filters[1][...] = 1.0
        sentence = np.array([[-1.0], [act.boundary or 0.0]])
        got, want = forward(params, sentence), reference_forward(params, sentence)
        assert np.array_equal(got.pooled, want.pooled)
        assert np.array_equal(got.argmax[1], want.argmax[1])
