"""Tests for the CNN forward/backward passes against independent oracles."""

import base64
import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emocnn import network
from emocnn.cli import main
from emocnn.corpus import DataError
from emocnn.functions import ACTIVATION_KINDS, Activation, activation_apply, cross_entropy
from emocnn.network import (
    ModelParams,
    NetworkConfig,
    backward,
    dropout_mask,
    forward,
    init_params,
    load_model,
    params_digest,
    predict,
    save_model,
    sgd_step,
)


def tiny_config(**overrides):
    base = dict(
        filter_widths=(2,),
        maps_per_width=2,
        embedding_dim=3,
        num_classes=2,
        dropout_rate=0.0,
        activation=Activation("mlrelu-continuous"),
        seed=0,
    )
    base.update(overrides)
    return NetworkConfig(**base)


def numeric_gradients(params, sentence, target, weight, h=1e-5, mask_seed=None):
    """Central-difference oracle over every parameter entry.

    The dropout mask is pinned by re-seeding the generator for every probe,
    so the probed loss is a deterministic function of the parameters.
    """

    def loss_at(p):
        rng = np.random.default_rng(mask_seed) if mask_seed is not None else None
        return cross_entropy(forward(p, sentence, rng=rng).probs, target, weight)

    numeric = params.zeros_like()
    for (name, block), (_, out) in zip(params.named_blocks(), numeric.named_blocks()):
        it = np.nditer(block, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            probe = params.copy()
            dict(probe.named_blocks())[name][idx] = block[idx] + h
            plus = loss_at(probe)
            dict(probe.named_blocks())[name][idx] = block[idx] - h
            minus = loss_at(probe)
            out[idx] = (plus - minus) / (2 * h)
    return numeric


def max_relative_error(analytic, numeric):
    worst = 0.0
    for (_, a), (_, n) in zip(analytic.named_blocks(), numeric.named_blocks()):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def fixture_is_smooth(trace, activation, margin=1e-4):
    """Reject fixtures whose loss is within `margin` of a non-smooth point."""
    boundary = activation.boundary
    for w, pre in trace.pre_activations.items():
        if boundary is not None and np.any(np.abs(pre - boundary) < margin):
            return False
        fmap = activation_apply(activation, pre)
        if fmap.shape[1] >= 2:
            top2 = np.sort(fmap, axis=1)[:, -2:]
            if np.any(top2[:, 1] - top2[:, 0] < margin):
                return False
    return True


class TestInitParams:
    def test_fc_shape(self):
        config = NetworkConfig(
            filter_widths=(3, 4, 5), maps_per_width=100, embedding_dim=8
        )
        params = init_params(config)
        assert params.fc_weights.shape == (2, 300)

    def test_deterministic(self):
        config = tiny_config(seed=5)
        a, b = init_params(config), init_params(config)
        for (_, x), (_, y) in zip(a.named_blocks(), b.named_blocks()):
            np.testing.assert_array_equal(x, y)

    def test_biases_start_at_zero(self):
        params = init_params(tiny_config())
        np.testing.assert_array_equal(params.filter_biases[2], 0.0)
        np.testing.assert_array_equal(params.fc_bias, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(filter_widths=(3, 3), maps_per_width=1, embedding_dim=4)
        with pytest.raises(ValueError):
            NetworkConfig(filter_widths=(3,), maps_per_width=1, embedding_dim=4,
                          dropout_rate=1.0)

    @pytest.mark.parametrize("name, value", [
        ("filter_widths", (3.0,)), ("filter_widths", (True, 2)), ("maps_per_width", 4.7),
        ("maps_per_width", True), ("embedding_dim", 4.0), ("num_classes", 2.0),
        ("seed", 1.9), ("seed", False), ("dropout_rate", False),
    ])
    def test_config_refuses_a_field_of_another_type(self, name, value):
        base = dict(filter_widths=(3,), maps_per_width=1, embedding_dim=4)
        with pytest.raises(ValueError, match=name.replace("_", "[_ ]")):
            NetworkConfig(**{**base, name: value})


def single_filter_params(filt, bias, activation):
    """A network with one w x d filter and its bias, dropout off."""
    w, d = filt.shape
    config = NetworkConfig(filter_widths=(w,), maps_per_width=1, embedding_dim=d,
                           dropout_rate=0.0, activation=activation)
    # Storage order: filter, its bias, fc weights (2 x 1), fc bias (2).
    return ModelParams(config, np.concatenate([filt.ravel(), [bias], np.zeros(4)]))


def feature_map(filt, bias, sentence, activation):
    """The activated feature map of one filter, from a `forward` trace.

    The map is the activation of the traced pre-activations; the pooled
    value `forward` reports must be its maximum.
    """
    params = single_filter_params(filt, bias, activation)
    trace = forward(params, sentence)
    fmap = activation_apply(activation, trace.pre_activations[filt.shape[0]])[0]
    assert trace.pooled[0] == fmap.max()
    return fmap


def max_pool(values):
    """(pooled value, argmax) that `forward` takes from the feature map `values`.

    A 1 x 1 unit filter over a one-column sentence makes `values` the
    pre-activations, and drelu with a = 1e6 is the identity on them.
    """
    params = single_filter_params(np.ones((1, 1)), 0.0, Activation("drelu", 1e6))
    trace = forward(params, np.asarray(values, dtype=np.float64)[:, None])
    return float(trace.pooled[0]), int(trace.argmax[1][0])


class TestConvForward:
    sentence = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_hand_dot_product(self):
        # windows: rows 0-1 sum of products = 10, rows 1-2 = 18
        fmap = feature_map(np.ones((2, 2)), 0.0, self.sentence, Activation("mlrelu-continuous"))
        np.testing.assert_allclose(fmap, [10.0, 18.0])

    def test_sigmoid_of_same_preactivations(self):
        fmap = feature_map(np.ones((2, 2)), 0.0, self.sentence, Activation("sigmoid"))
        expected = [1 / (1 + math.exp(-10)), 1 / (1 + math.exp(-18))]
        np.testing.assert_allclose(fmap, expected, atol=1e-12)

    def test_zero_filter_gives_activation_of_zero(self):
        fmap = feature_map(np.zeros((2, 2)), 0.0, self.sentence, Activation("mlrelu-continuous"))
        np.testing.assert_array_equal(fmap, [0.0, 0.0])

    def test_map_length(self):
        rng = np.random.default_rng(0)
        for length, width in ((5, 2), (7, 3), (4, 4)):
            sentence = rng.normal(size=(length, 3))
            fmap = feature_map(rng.normal(size=(width, 3)), 0.1, sentence,
                               Activation("mlrelu-continuous"))
            assert fmap.shape == (length - width + 1,)

    def test_sentence_shorter_than_filter_rejected(self):
        with pytest.raises(ValueError):
            feature_map(np.ones((4, 2)), 0.0, self.sentence, Activation("mlrelu-continuous"))


def loop_conv(filters, biases, sentence):
    """Explicit-loop reference: one dot product per (map, position)."""
    maps, w, _ = filters.shape
    positions = sentence.shape[0] - w + 1
    pre = np.empty((maps, positions))
    bound = np.empty((maps, positions))
    for m in range(maps):
        for p in range(positions):
            terms = filters[m] * sentence[p : p + w]
            pre[m, p] = terms.sum() + biases[m]
            bound[m, p] = np.abs(terms).sum() + abs(biases[m])
    return pre, bound


class TestConvAgainstLoop:
    """`forward` pre-activations against the explicit loop, over random shapes.

    The tolerance is fixed by the float64 error bound of a sum of n = w*d + 1
    terms, |fl(sum) - sum| <= n * u * sum|terms| with u = eps / 2, taken once
    for each side (kernel and loop): n * eps * sum|F*S| per entry.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        widths=st.sets(st.integers(1, 6), min_size=1, max_size=3),
        extra_rows=st.integers(0, 40),
        dim=st.integers(1, 24),
        maps=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(widths={5}, extra_rows=0, dim=3, maps=2, seed=0)
    @example(widths={1}, extra_rows=0, dim=1, maps=1, seed=1)
    def test_pre_activations_match_loop(self, widths, extra_rows, dim, maps, seed):
        rng = np.random.default_rng(seed)
        config = tiny_config(filter_widths=tuple(sorted(widths)), maps_per_width=maps,
                             embedding_dim=dim, seed=seed)
        params = init_params(config)
        for w in config.filter_widths:
            params.filter_biases[w][:] = rng.normal(size=maps)
        # extra_rows == 0 puts the widest filter at L == w: one position.
        sentence = rng.normal(size=(config.max_width + extra_rows, dim))
        trace = forward(params, sentence)
        for w in config.filter_widths:
            expected, bound = loop_conv(params.filters[w], params.filter_biases[w], sentence)
            got = trace.pre_activations[w]
            assert got.shape == expected.shape
            tol = (w * dim + 1) * np.finfo(np.float64).eps * bound
            assert np.all(np.abs(got - expected) <= tol), f"width {w}"


class TestMaxpool:
    def test_maximum_and_position(self):
        assert max_pool(np.array([10.0, 18.0])) == (18.0, 1)

    def test_ties_take_smallest_index(self):
        assert max_pool(np.array([3.0, 3.0])) == (3.0, 0)

    def test_against_linear_scan(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 12))
            value, idx = max_pool(v)
            best_val, best_idx = v[0], 0
            for i, x in enumerate(v):
                if x > best_val:
                    best_val, best_idx = x, i
            assert value == best_val and idx == best_idx


class TestForward:
    def test_probabilities_sum_to_one(self):
        params = init_params(tiny_config())
        rng = np.random.default_rng(1)
        trace = forward(params, rng.normal(size=(5, 3)))
        assert abs(trace.probs.sum() - 1.0) < 1e-12

    def test_zero_dropout_train_equals_eval(self):
        params = init_params(tiny_config(dropout_rate=0.0))
        sentence = np.random.default_rng(2).normal(size=(5, 3))
        train = forward(params, sentence, rng=np.random.default_rng(0))
        ev = forward(params, sentence)
        np.testing.assert_array_equal(train.probs, ev.probs)

    def test_fixed_dropout_seed_reproduces_trace(self):
        params = init_params(tiny_config(dropout_rate=0.4))
        sentence = np.random.default_rng(2).normal(size=(5, 3))
        t1 = forward(params, sentence, rng=np.random.default_rng(7))
        t2 = forward(params, sentence, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(t1.dropout_mask, t2.dropout_mask)
        np.testing.assert_array_equal(t1.probs, t2.probs)

    def test_shape_mismatch_rejected(self):
        params = init_params(tiny_config())
        with pytest.raises(ValueError):
            forward(params, np.zeros((5, 4)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    @pytest.mark.parametrize("min_entries", [0, network._POOL_FIRST_MIN_ENTRIES])
    def test_nonfinite_pre_activation_rejected(self, monkeypatch, min_entries, kind, bad):
        # The finite entry 1.0 tops the map, so pooling alone would not see `bad`;
        # min_entries 0 pools first even this small map.
        monkeypatch.setattr(network, "_POOL_FIRST_MIN_ENTRIES", min_entries)
        params = single_filter_params(np.ones((1, 1)), 0.0, Activation(kind))
        with pytest.raises(ValueError, match="non-finite"):
            forward(params, np.array([[1.0], [bad], [0.5]]))

    def test_inverted_dropout_keeps_expectation(self):
        # Mean of the scaled mask over many draws stays within 1% of 1.
        rng = np.random.default_rng(3)
        total = np.zeros(6)
        n = 100_000
        for _ in range(n):
            total += dropout_mask(rng, 6, 0.4)
        np.testing.assert_allclose(total / n, 1.0, rtol=0.01)


class TestBackward:
    def test_matches_finite_differences_on_tiny_model(self):
        config = tiny_config(embedding_dim=3, filter_widths=(2,), maps_per_width=2)
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 5:
            params = init_params(tiny_config(seed=int(rng.integers(1 << 30))))
            sentence = rng.normal(size=(4, 3))
            trace = forward(params, sentence)
            if not fixture_is_smooth(trace, config.activation):
                continue
            target = int(rng.integers(2))
            grads = backward(params, trace, target, 1.0)
            numeric = numeric_gradients(params, sentence, target, 1.0)
            assert max_relative_error(grads, numeric) <= 1e-4
            checked += 1

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_every_activation_kind_and_dropout(self, kind):
        rng = np.random.default_rng(1000 + ACTIVATION_KINDS.index(kind))
        checked = 0
        attempts = 0
        while checked < 4 and attempts < 200:
            attempts += 1
            config = tiny_config(
                activation=Activation(kind),
                dropout_rate=float(rng.choice([0.0, 0.4])),
                maps_per_width=int(rng.integers(1, 3)),
                seed=int(rng.integers(1 << 30)),
            )
            params = init_params(config)
            sentence = rng.normal(size=(int(rng.integers(4, 7)), 3))
            mask_seed = int(rng.integers(1 << 30)) if config.dropout_rate > 0 else None
            mask_rng = np.random.default_rng(mask_seed) if mask_seed is not None else None
            trace = forward(params, sentence, rng=mask_rng)
            if not fixture_is_smooth(trace, config.activation):
                continue
            target = int(rng.integers(2))
            weight = float(rng.choice([1.0, 1.7]))
            grads = backward(params, trace, target, weight)
            numeric = numeric_gradients(
                params, sentence, target, weight, mask_seed=mask_seed
            )
            assert max_relative_error(grads, numeric) <= 1e-4, f"kind={kind}"
            checked += 1
        assert checked == 4

    def test_out_accumulates_in_place(self):
        params = init_params(tiny_config(seed=3, dropout_rate=0.4))
        rng = np.random.default_rng(5)
        traces = [forward(params, rng.normal(size=(5, 3)), rng=rng) for _ in range(3)]
        out = params.zeros_like()
        vector = out.vector
        expected = np.zeros_like(vector)
        for target, trace in enumerate(traces):
            assert backward(params, trace, target % 2, 1.5, out=out) is out
            expected += backward(params, trace, target % 2, 1.5).vector
        assert out.vector is vector
        for name, block in out.named_blocks():
            assert np.shares_memory(block, vector), name
        np.testing.assert_array_equal(vector, expected)

    def test_gradients_scale_linearly_in_sample_weight(self):
        params = init_params(tiny_config(seed=3))
        sentence = np.random.default_rng(5).normal(size=(5, 3))
        trace = forward(params, sentence)
        g1 = backward(params, trace, target=1, sample_weight=1.0)
        g2 = backward(params, trace, target=1, sample_weight=2.0)
        for (_, a), (_, b) in zip(g1.named_blocks(), g2.named_blocks()):
            np.testing.assert_array_equal(2.0 * a, b)

    def test_saturation_contrast_at_large_preactivation(self):
        # Pre-activation +50 at the argmax: the sigmoid gradient vanishes,
        # the modified activation still passes a usable gradient through.
        sentence = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])

        def grads_for(activation):
            config = NetworkConfig(
                filter_widths=(2,), maps_per_width=1, embedding_dim=2,
                dropout_rate=0.0, activation=activation, seed=0,
            )
            params = init_params(config)
            params.filters[2][...] = [[[50.0, 0.0], [0.0, 0.0]]]
            params.filter_biases[2][...] = 0.0
            params.fc_weights[...] = [[1.0], [-1.0]]
            params.fc_bias[...] = 0.0
            trace = forward(params, sentence)
            assert trace.pre_activations[2][0, trace.argmax[2][0]] == 50.0
            return backward(params, trace, target=1, sample_weight=1.0)

        sig = grads_for(Activation("sigmoid"))
        mod = grads_for(Activation("mlrelu-continuous"))
        assert np.max(np.abs(sig.filters[2])) < 1e-20
        assert np.max(np.abs(mod.filters[2])) > 1e-3


class TestSgdStep:
    def test_zero_learning_rate_is_identity(self):
        params = init_params(tiny_config())
        trace = forward(params, np.random.default_rng(0).normal(size=(4, 3)))
        grads = backward(params, trace, 0, 1.0)
        updated = sgd_step(params, grads, 0.0)
        for (_, a), (_, b) in zip(params.named_blocks(), updated.named_blocks()):
            np.testing.assert_array_equal(a, b)

    def test_scalar_arithmetic(self):
        params = init_params(tiny_config())
        grads = params.zeros_like()
        params.fc_bias[0] = 1.0
        grads.fc_bias[0] = 0.5
        updated = sgd_step(params, grads, 0.2)
        assert updated.fc_bias[0] == pytest.approx(0.9)

    def test_two_steps_equal_one_with_doubled_rate(self):
        params = init_params(tiny_config(seed=11))
        grads = init_params(tiny_config(seed=12))  # arbitrary fixed direction
        twice = sgd_step(sgd_step(params, grads, 0.1), grads, 0.1)
        once = sgd_step(params, grads, 0.2)
        for (_, a), (_, b) in zip(twice.named_blocks(), once.named_blocks()):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_nonfinite_gradient_names_block(self):
        params = init_params(tiny_config())
        grads = params.zeros_like()
        grads.fc_weights[0, 0] = float("nan")
        with pytest.raises(ValueError, match="fc_weights"):
            sgd_step(params, grads, 0.1)

    def test_pure_function_leaves_input_untouched(self):
        params = init_params(tiny_config())
        grads = init_params(tiny_config(seed=9))
        before = params.copy()
        sgd_step(params, grads, 0.5)
        for (_, a), (_, b) in zip(params.named_blocks(), before.named_blocks()):
            np.testing.assert_array_equal(a, b)


class TestPredict:
    def test_argmax_and_tie_break(self):
        params = init_params(tiny_config())
        sentence = np.random.default_rng(4).normal(size=(5, 3))
        cls, probs = predict(params, sentence)
        assert cls == int(np.argmax(probs))
        assert np.argmax([0.5, 0.5]) == 0  # ties resolve to the smaller index

    def test_deterministic(self):
        params = init_params(tiny_config())
        sentence = np.random.default_rng(4).normal(size=(5, 3))
        assert predict(params, sentence)[0] == predict(params, sentence)[0]
        np.testing.assert_array_equal(
            predict(params, sentence)[1], predict(params, sentence)[1]
        )


class TestPredictIsAScoreRow:
    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    @pytest.mark.parametrize("rows", [0, 1, 4, 5, 9, 300])
    def test_is_the_score_row_of_the_sentence_bit_for_bit(self, kind, rows):
        params = init_params(tiny_config(filter_widths=(2, 5), activation=Activation(kind)))
        sentence = np.random.default_rng(rows).normal(size=(rows, 3))
        cls, probs = predict(params, sentence)
        assert np.array_equal(probs, network.score(params, sentence, [np.arange(rows)])[0])
        assert cls == int(np.argmax(probs))

    @pytest.mark.parametrize("rows", [5, 300])
    def test_a_sentence_of_max_width_rows_or_more_is_not_copied(self, monkeypatch, rows):
        def no_gather(*args):
            raise AssertionError("predict gathered its own sentence again")

        params = init_params(tiny_config(filter_widths=(2, 5)))
        sentence = np.random.default_rng(rows).normal(size=(rows, 3))
        want = predict(params, sentence)[1]
        monkeypatch.setattr(network, "sentence_rows", no_gather)
        assert np.array_equal(predict(params, sentence)[1], want)

    def test_a_tie_goes_to_the_smaller_class(self):
        params = init_params(tiny_config())
        params.fc_weights[...] = 0.0
        cls, probs = predict(params, np.ones((4, 3)))
        assert probs[0] == probs[1] and cls == 0

    def test_a_sentence_shorter_than_the_widest_filter_is_zero_padded(self):
        params = init_params(tiny_config(filter_widths=(2, 5)))
        sentence = np.random.default_rng(1).normal(size=(3, 3))
        padded = np.vstack([sentence, np.zeros((2, 3))])
        assert np.array_equal(predict(params, sentence)[1], predict(params, padded)[1])
        np.testing.assert_allclose(predict(params, sentence)[1], forward(params, padded).probs,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(5, 4), (5, 2), (5,), (3,), (5, 3, 1)])
    def test_a_wrong_embedding_width_raises(self, shape):
        with pytest.raises(ValueError, match="word vectors must be n x 3"):
            predict(init_params(tiny_config()), np.ones(shape))


class TestScore:
    """The packed scorer against one eval-mode `forward` per document."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(ACTIVATION_KINDS),
        widths=st.sets(st.integers(1, 5), min_size=1, max_size=3),
        maps=st.integers(1, 6),
        lengths=st.lists(st.integers(0, 40), min_size=1, max_size=12),
        pack_rows=st.sampled_from([1, 8, 30, network._PACK_ROWS]),
        bias_shift=st.sampled_from([0.0, -0.5, -5.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="mlrelu-continuous", widths={3, 4, 5}, maps=3, lengths=[2, 40, 1, 9, 30],
             pack_rows=30, bias_shift=0.0, seed=0)
    @example(kind="sigmoid", widths={1, 2}, maps=2, lengths=[40, 40], pack_rows=8,
             bias_shift=-5.0, seed=1)
    def test_matches_forward_per_document(self, kind, widths, maps, lengths, pack_rows,
                                          bias_shift, seed):
        rng = np.random.default_rng(seed)
        config = NetworkConfig(filter_widths=tuple(sorted(widths)), maps_per_width=maps,
                               embedding_dim=3, activation=Activation(kind), seed=seed)
        params = init_params(config)
        for w in config.filter_widths:
            params.filter_biases[w][:] = rng.normal(scale=0.05, size=maps) + bias_shift
        table = rng.normal(size=(6, 3))  # a small vocabulary: index 0, the unknown word, is common
        docs = [rng.integers(0, 6, size=n) for n in lengths]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "_PACK_ROWS", pack_rows)
            got = network.score(params, table, docs)
        assert got.shape == (len(docs), 2)
        for ids, probs in zip(docs, got):
            pad = np.zeros((max(0, config.max_width - len(ids)), 3))
            want = forward(params, np.vstack([table[ids], pad])).probs
            np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_non_finite_pre_activation_raises(self, kind):
        params = init_params(tiny_config(activation=Activation(kind)))
        table = np.ones((3, 3))
        table[2, 1] = np.inf
        assert network.score(params, table, [[0, 1], [1, 0, 1]]).shape == (2, 2)
        with pytest.raises(ValueError):
            network.score(params, table, [[0, 1], [1, 2, 1]])

    def test_no_documents_give_no_rows(self):
        assert network.score(init_params(tiny_config()), np.ones((3, 3)), []).shape == (0, 2)


class TestTrainStep:
    """The packed batch step against one `forward` + `backward` per document."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(ACTIVATION_KINDS),
        widths=st.sets(st.integers(1, 5), min_size=1, max_size=3),
        maps=st.integers(1, 6),
        lengths=st.lists(st.integers(0, 40), min_size=1, max_size=12),
        pack_rows=st.sampled_from([1, 8, 30, network._PACK_ROWS]),
        dropout=st.sampled_from([0.0, 0.4]),
        bias_shift=st.sampled_from([0.0, -0.5, -5.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="mlrelu-continuous", widths={3, 4, 5}, maps=1, lengths=[300, 2, 40, 1, 9],
             pack_rows=network._PACK_ROWS, dropout=0.4, bias_shift=0.0, seed=0)
    @example(kind="sigmoid", widths={1, 2}, maps=2, lengths=[40, 40, 3], pack_rows=8,
             dropout=0.0, bias_shift=-5.0, seed=1)
    def test_matches_forward_and_backward_per_document(self, kind, widths, maps, lengths,
                                                       pack_rows, dropout, bias_shift, seed):
        rng = np.random.default_rng(seed)
        config = NetworkConfig(filter_widths=tuple(sorted(widths)), maps_per_width=maps,
                               embedding_dim=3, dropout_rate=dropout,
                               activation=Activation(kind), seed=seed)
        params = init_params(config)
        for w in config.filter_widths:
            params.filter_biases[w][:] = rng.normal(scale=0.05, size=maps) + bias_shift
        table = rng.normal(size=(6, 3))
        docs = [rng.integers(0, 6, size=n) for n in lengths]
        targets = rng.integers(0, 2, size=len(docs))
        weights = rng.uniform(0.5, 2.0, size=len(docs))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "_PACK_ROWS", pack_rows)
            probs, grads = network.train_step(params, table, docs, targets, weights,
                                              np.random.default_rng(seed))
        mask_rng = np.random.default_rng(seed)  # one draw per document, in turn
        want = params.zeros_like()
        assert probs.shape == (len(docs), 2)
        for ids, target, weight, row in zip(docs, targets, weights, probs):
            trace = forward(params, network.sentence_rows(table, ids, config.max_width),
                            rng=mask_rng)
            backward(params, trace, target, weight, out=want)
            np.testing.assert_allclose(row, trace.probs, rtol=0, atol=1e-12)
        assert np.abs(grads.vector - want.vector).max() <= 1e-12 * np.abs(want.vector).max()


class TestLayout:
    def test_blocks_are_views_that_tile_the_vector_in_order(self):
        params = init_params(tiny_config(filter_widths=(2, 3), seed=4))
        names = [name for name, _ in params.named_blocks()]
        assert names == ["filters_w2", "filter_bias_w2", "filters_w3", "filter_bias_w3",
                         "fc_weights", "fc_bias"]
        offset = 0
        for name, block in params.named_blocks():
            piece = params.vector[offset : offset + block.size]
            assert np.shares_memory(block, params.vector), name
            assert block.ctypes.data == piece.ctypes.data, name
            np.testing.assert_array_equal(block.ravel(), piece)
            offset += block.size
        assert offset == params.vector.size

    def test_wrong_size_vector_names_the_expected_count(self):
        config = tiny_config()  # 2x2x3 filters + 2 biases + 2x2 fc + 2 fc bias
        with pytest.raises(ValueError, match="20 entries"):
            ModelParams(config, np.zeros(21))

    def test_editing_a_copy_leaves_the_original(self):
        params = init_params(tiny_config(seed=3))
        original = params.vector.copy()
        sentence = np.random.default_rng(6).normal(size=(5, 3))
        before = forward(params, sentence)
        probe = params.copy()
        probe.filters[2][0, 0, 0] += 1.0
        assert not np.array_equal(forward(probe, sentence).pre_activations[2],
                                  before.pre_activations[2])
        assert not np.array_equal(forward(probe, sentence).probs, before.probs)
        np.testing.assert_array_equal(forward(params, sentence).probs, before.probs)
        np.testing.assert_array_equal(params.vector, original)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(tiny_config(filter_widths=(2, 3), seed=8))
        path = tmp_path / "model.json"
        save_model(path, params, embedding_ref="embeddings.json")
        loaded = load_model(path)
        assert params_digest(loaded) == params_digest(params)
        assert loaded.config == params.config

    def test_embedding_ref_must_match_when_recorded(self, tmp_path):
        params = init_params(tiny_config())
        path = tmp_path / "model.json"
        save_model(path, params, embedding_ref="0123abcd")
        assert params_digest(load_model(path, embedding_ref="0123abcd")) == params_digest(params)
        with pytest.raises(DataError, match="0123abcd"):
            load_model(path, embedding_ref="ffff0000")

        # A checkpoint saved without a ref loads against any table.
        save_model(path, params)
        assert params_digest(load_model(path, embedding_ref="ffff0000")) == params_digest(params)

    def test_shape_validation(self, tmp_path):
        params = init_params(tiny_config())
        path = tmp_path / "model.json"
        save_model(path, params)
        payload = json.loads(path.read_text())
        # drop the last float64 (8 bytes) of the stored vector
        payload["params"] = base64.b64encode(base64.b64decode(payload["params"])[:-8]).decode("ascii")
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=f"model.json: .*{params.vector.size} entries"):
            load_model(path)

    def test_eval_refuses_a_version_1_checkpoint(self, tmp_path, capsys):
        # Version 1 stored one dict per filter; it must be retrained, not read.
        data, emb = tmp_path / "data", tmp_path / "emb"
        assert main(["prepare", "--format", "synth", "--spec", "n=8,vocab=10,len=6,seed=1",
                     "--out", str(data)]) == 0
        assert main(["embed", "--data", str(data / "dataset.json"), "--dim", "3",
                     "--random", "--out", str(emb)]) == 0
        params = init_params(tiny_config())
        v1 = {
            "version": 1,
            "config": asdict(params.config),
            "filters": [{"width": 2, "weights": f.ravel().tolist(), "bias": float(b)}
                        for f, b in zip(params.filters[2], params.filter_biases[2])],
            "fc_weights": params.fc_weights.ravel().tolist(),
            "fc_bias": params.fc_bias.tolist(),
            "embedding_ref": "",
            "loss_convention": "sum-over-batch",
        }
        model = tmp_path / "model.json"
        model.write_text(json.dumps(v1))
        code = main(["eval", "--model", str(model), "--data", str(data / "dataset.json"),
                     "--embeddings", str(emb / "embeddings.json"), "--out", str(tmp_path / "ev")])
        assert code == 2
        assert "unsupported model checkpoint version" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_model(tmp_path / "missing.json")

    def test_failed_save_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_model(path, init_params(tiny_config(seed=1)))
        before = path.read_bytes()

        def killed(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError, match="killed"):
            save_model(path, init_params(tiny_config(seed=2)))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
