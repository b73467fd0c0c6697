"""Unit tests for activations, softmax, class weights, and cross-entropy."""

import math

import numpy as np
import pytest

from emocnn.functions import (
    ACTIVATION_KINDS,
    Activation,
    activation_apply,
    activation_grad,
    cross_entropy,
    softmax,
    weights_from_counts,
)


def central_difference(act, x, h=1e-6):
    """Independent derivative oracle: (f(x+h) - f(x-h)) / 2h."""
    return (activation_apply(act, x + h) - activation_apply(act, x - h)) / (2 * h)


def all_activations(a=0.03):
    return [
        Activation("sigmoid"),
        Activation("lrelu"),
        Activation("drelu", a),
        Activation("mlrelu-literal", a),
        Activation("mlrelu-continuous", a),
    ]


class TestActivationValues:
    def test_sigmoid_at_zero(self):
        assert activation_apply(Activation("sigmoid"), 0.0) == 0.5

    def test_lrelu_negative_branch(self):
        assert activation_apply(Activation("lrelu"), -2.0) == pytest.approx(-0.02)

    def test_drelu_clamps_left_of_inflection(self):
        assert activation_apply(Activation("drelu", 0.03), -1.0) == pytest.approx(-0.03)

    def test_literal_left_branch_is_minus_a_x(self):
        # -a * x with a = 0.03 at x = -1 flips the sign
        assert activation_apply(Activation("mlrelu-literal", 0.03), -1.0) == pytest.approx(0.03)

    def test_continuous_variant_is_continuous_at_inflection(self):
        act = Activation("mlrelu-continuous", 0.03)
        assert activation_apply(act, -0.03) == pytest.approx(-0.03)
        eps = 1e-9
        left = activation_apply(act, -0.03 - eps)
        right = activation_apply(act, -0.03 + eps)
        assert abs(left - right) < 1e-8

    def test_literal_variant_jumps_at_inflection(self):
        act = Activation("mlrelu-literal", 0.03)
        left = activation_apply(act, -0.03 - 1e-12)
        right = activation_apply(act, -0.03 + 1e-12)
        assert abs(left - right) == pytest.approx(0.03 + 0.03**2, abs=1e-6)

    def test_identity_right_of_inflection(self):
        for act in (Activation("drelu", 0.03), Activation("mlrelu-literal", 0.03),
                    Activation("mlrelu-continuous", 0.03)):
            assert activation_apply(act, 1.7) == 1.7

    def test_array_input(self):
        out = activation_apply(Activation("lrelu"), np.array([-1.0, 2.0]))
        np.testing.assert_allclose(out, [-0.01, 2.0])

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError):
            activation_apply(Activation("lrelu"), float("nan"))
        with pytest.raises(ValueError):
            activation_grad(Activation("sigmoid"), float("inf"))

    def test_invalid_kind_and_parameter(self):
        with pytest.raises(ValueError):
            Activation("swish")
        with pytest.raises(ValueError):
            Activation("drelu", a=0.0)
        with pytest.raises(ValueError):
            Activation("drelu", a=True)


class TestActivationGradients:
    def test_sigmoid_grad_at_zero(self):
        assert activation_grad(Activation("sigmoid"), 0.0) == pytest.approx(0.25)

    def test_continuous_left_slope_is_a(self):
        assert activation_grad(Activation("mlrelu-continuous", 0.03), -5.0) == 0.03

    def test_literal_left_slope_is_minus_a(self):
        assert activation_grad(Activation("mlrelu-literal", 0.03), -5.0) == -0.03

    def test_boundary_uses_right_branch(self):
        assert activation_grad(Activation("lrelu"), 0.0) == 1.0
        for act in (Activation("drelu", 0.03), Activation("mlrelu-literal", 0.03),
                    Activation("mlrelu-continuous", 0.03)):
            assert activation_grad(act, -0.03) == 1.0

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_matches_finite_differences(self, kind):
        act = Activation(kind)
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            x = float(rng.uniform(-3, 3))
            if act.boundary is not None and abs(x - act.boundary) < 1e-4:
                continue
            numeric = central_difference(act, x)
            analytic = activation_grad(act, x)
            assert abs(analytic - numeric) <= 1e-5 * max(abs(numeric), 1e-3), (
                f"{kind} grad mismatch at x={x}: {analytic} vs {numeric}"
            )
            checked += 1

    def test_modified_kinds_never_saturate(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-50, 50, size=10000)
        for act in (Activation("mlrelu-literal", 0.03), Activation("mlrelu-continuous", 0.03)):
            grads = np.abs(activation_grad(act, x))
            assert np.all((grads == 0.03) | (grads == 1.0))

    def test_sigmoid_saturates_in_the_tails(self):
        x = np.array([10.5, -10.5, 20.0, -20.0])
        grads = activation_grad(Activation("sigmoid"), x)
        assert np.all(grads < 1e-4)


def if_chain_apply(kind, a, arr):
    """Each piecewise activation spelled out kind by kind, as a reference."""
    if kind == "lrelu":
        return np.where(arr > 0.0, arr, 0.01 * arr)
    if kind == "drelu":
        return np.where(arr > -a, arr, -a)
    if kind == "mlrelu-literal":
        return np.where(arr > -a, arr, -a * arr)
    return np.where(arr > -a, arr, a * (arr + a) - a)


def if_chain_grad(kind, a, arr):
    if kind == "lrelu":
        return np.where(arr >= 0.0, 1.0, 0.01)
    if kind == "drelu":
        return np.where(arr >= -a, 1.0, 0.0)
    if kind == "mlrelu-literal":
        return np.where(arr >= -a, 1.0, -a)
    return np.where(arr >= -a, 1.0, a)


class TestActivationTable:
    """The table-driven activations against the if-chain oracle, bit for bit."""

    @pytest.mark.parametrize("a", [0.03, 0.5, 2.0])
    @pytest.mark.parametrize("kind", ACTIVATION_KINDS[1:])
    def test_piecewise_kinds_match_the_if_chains(self, kind, a):
        act = Activation(kind, a)
        edges = np.array([0.0, -a])  # each boundary, its float neighbours, and -0.0
        grid = np.concatenate([np.linspace(-5.0, 5.0, 2001), edges, np.nextafter(edges, np.inf),
                               np.nextafter(edges, -np.inf), [-0.0]])
        for got, want in ((activation_apply(act, grid), if_chain_apply(kind, a, grid)),
                          (activation_grad(act, grid), if_chain_grad(kind, a, grid))):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("a", [0.03, 0.5, 2.0])
    def test_pools_first_only_for_the_monotone_kinds_that_meet_the_identity(self, a):
        assert [k for k in ACTIVATION_KINDS if Activation(k, a).pools_first] == [
            "lrelu", "drelu", "mlrelu-continuous"]

    def test_kind_order_is_kept(self):
        assert ACTIVATION_KINDS == ("sigmoid", "lrelu", "drelu", "mlrelu-literal",
                                    "mlrelu-continuous")


class TestSoftmax:
    def test_uniform_logits(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_shift_invariance(self):
        rng = np.random.default_rng(42)
        v = rng.normal(size=5)
        np.testing.assert_allclose(softmax(v), softmax(v + 123.4), atol=1e-12)

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            v = rng.normal(scale=3, size=2)
            naive = np.exp(v) / np.exp(v).sum()
            np.testing.assert_allclose(softmax(v), naive, atol=1e-12)

    def test_output_is_a_distribution(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = softmax(rng.normal(scale=10, size=4))
            assert np.all(p > 0) and np.all(p < 1)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    @pytest.mark.parametrize("classes", [1, 2, 5, 17])
    def test_each_row_of_a_matrix_is_the_vector_call_bit_for_bit(self, classes):
        logits = np.random.default_rng(classes).normal(scale=20, size=(40, classes))
        rows = softmax(logits)
        assert rows.shape == logits.shape
        for row, v in zip(rows, logits):
            assert np.array_equal(row, softmax(v))

    def test_non_finite_row_rejected(self):
        logits = np.zeros((3, 2))
        logits[1, 0] = np.nan
        with pytest.raises(ValueError):
            softmax(logits)


class TestClassWeights:
    def test_balanced_counts_give_unit_weights(self):
        w = weights_from_counts({0: 1000, 1: 1000})
        assert w[0] == 1.0
        assert w[1] == 1.0

    def test_two_to_one_skew(self):
        # n = 3000, k = 2: W(minority) = 3000/(2*1000), W(majority) = 3000/(2*2000)
        w = weights_from_counts({1: 1000, 0: 2000})
        assert w[1] == 1.5
        assert w[0] == 0.75

    def test_single_class_degenerates_to_one(self):
        assert weights_from_counts({0: 57})[0] == 1.0

    def test_weight_sum_identity(self):
        # Sum of per-sample weights equals n for any label multiset.
        rng = np.random.default_rng(42)
        for _ in range(300):
            counts = {0: int(rng.integers(1, 500)), 1: int(rng.integers(1, 500))}
            w = weights_from_counts(counts)
            total = sum(w[c] * m for c, m in counts.items())
            assert abs(total - sum(counts.values())) < 1e-9

    def test_no_classes_rejected(self):
        with pytest.raises(ValueError):
            weights_from_counts({})


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert cross_entropy([0.0, 1.0], target=1) == 0.0

    def test_uniform_two_class(self):
        assert cross_entropy([0.5, 0.5], target=0) == pytest.approx(math.log(2))

    def test_linear_in_weight(self):
        base = cross_entropy([0.5, 0.5], target=0, weight=1.0)
        assert cross_entropy([0.5, 0.5], target=0, weight=1.5) == pytest.approx(1.5 * base)
        assert cross_entropy([0.5, 0.5], target=0, weight=1.5) == pytest.approx(
            1.5 * math.log(2)
        )

    def test_decreasing_in_target_probability(self):
        losses = [cross_entropy([p, 1 - p], target=0) for p in (0.1, 0.4, 0.7, 0.99)]
        assert losses == sorted(losses, reverse=True)
        assert all(loss >= 0 for loss in losses)

    def test_saturated_probability_stays_finite(self):
        assert math.isfinite(cross_entropy([0.0, 1.0], target=0))
        assert cross_entropy([0.0, 1.0], target=0) == pytest.approx(-math.log(1e-12))

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy([0.5, 0.5], target=2)
