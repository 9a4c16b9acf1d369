"""Metrics vs naive loop-based reimplementations, plus degenerate conventions."""

import math

import numpy as np
import pytest

from spafit.errors import InputError
from spafit.metrics import accuracy, f1_binary, matthews_corr, pearson_corr


# -- brute-force oracles: plain loops, no shared code with the package -------

def naive_accuracy(pred, gold):
    return sum(1 for p, g in zip(pred, gold) if p == g) / len(pred)


def naive_counts(pred, gold):
    tp = sum(1 for p, g in zip(pred, gold) if p == 1 and g == 1)
    tn = sum(1 for p, g in zip(pred, gold) if p == 0 and g == 0)
    fp = sum(1 for p, g in zip(pred, gold) if p == 1 and g == 0)
    fn = sum(1 for p, g in zip(pred, gold) if p == 0 and g == 1)
    return tp, tn, fp, fn


def naive_f1(pred, gold):
    tp, _, fp, fn = naive_counts(pred, gold)
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def naive_mcc(pred, gold):
    tp, tn, fp, fn = naive_counts(pred, gold)
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


def naive_pearson(pred, gold):
    n = len(pred)
    mp = sum(pred) / n
    mg = sum(gold) / n
    cov = sum((p - mp) * (g - mg) for p, g in zip(pred, gold))
    vp = sum((p - mp) ** 2 for p in pred)
    vg = sum((g - mg) ** 2 for g in gold)
    return cov / math.sqrt(vp * vg)


class TestExamples:
    def test_accuracy_basics(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0
        assert accuracy([1, 0, 1], [0, 1, 0]) == 0.0
        assert accuracy([1, 1, 0, 0], [1, 1, 0, 1]) == 0.75

    def test_f1_hand_value(self):
        # TP=2, FP=1, FN=1
        pred = [1, 1, 1, 0, 0]
        gold = [1, 1, 0, 1, 0]
        assert abs(f1_binary(pred, gold) - 2 * 2 / 6) < 1e-15

    def test_f1_perfect_and_degenerate(self):
        assert f1_binary([1, 0, 1], [1, 0, 1]) == 1.0
        assert f1_binary([0, 0], [0, 0]) == 0.0

    def test_mcc_hand_value(self):
        # TP=3, TN=2, FP=1, FN=1 -> 5 / sqrt(4*4*3*3) = 5/12
        pred = [1, 1, 1, 1, 0, 0, 0]
        gold = [1, 1, 1, 0, 1, 0, 0]
        assert abs(matthews_corr(pred, gold) - 5.0 / 12.0) < 1e-15

    def test_mcc_perfect_and_symmetric(self):
        assert matthews_corr([1, 0, 1], [1, 0, 1]) == 1.0
        assert matthews_corr([1, 1, 0, 0], [1, 0, 1, 0]) == 0.0

    def test_pearson_exact_cases(self):
        assert abs(pearson_corr([2, 4, 6], [1, 2, 3]) - 1.0) < 1e-15
        assert abs(pearson_corr([-1, -2, -3], [1, 2, 3]) + 1.0) < 1e-15
        assert abs(pearson_corr([1, 2, 3], [1, 3, 2]) - 0.5) < 1e-15

    def test_pearson_clamped_to_unit_interval(self):
        """Both of these round one ulp past +-1 before the clamp."""
        a = [-0.049800969059643194, 0.08661926298854213, -1.487072869675398,
             1.6473390663560998, 0.9174879834442943]
        assert pearson_corr(a, [3.3 * x + 0.7 for x in a]) == 1.0
        assert pearson_corr([-0.535669373161111, 0.36159505490948474],
                            [1.3040000451301372, 0.9470809631292422]) == -1.0


class TestErrors:
    def test_length_mismatch(self):
        with pytest.raises(InputError):
            accuracy([1, 0], [1])

    def test_empty_inputs(self):
        with pytest.raises(InputError):
            accuracy([], [])

    def test_non_binary_labels(self):
        with pytest.raises(InputError):
            f1_binary([0, 2], [0, 1])
        with pytest.raises(InputError):
            matthews_corr([0, 1], [0, 3])

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    def test_zero_variance_pearson(self, scale):
        """A constant side raises whatever the scale of the other."""
        spread = [scale, 2 * scale, 3 * scale]
        with pytest.raises(InputError, match="zero variance"):
            pearson_corr([1.0, 1.0, 1.0], spread)
        with pytest.raises(InputError, match="zero variance"):
            pearson_corr(spread, [1e-300, 1e-300, 1e-300])

    @pytest.mark.parametrize("value", [0.1, 0.7, 1.1])
    @pytest.mark.parametrize("side", ["predicted", "gold"])
    def test_constant_side_whose_mean_rounds_raises(self, value, side):
        """``p - p.mean()`` leaves equal nonzero deviations for 0.1 and 0.7,
        so only a test on the values themselves sees the constant side."""
        args = ([value] * 3, [1.0, 2.0, 3.0])
        with pytest.raises(InputError, match="zero variance"):
            pearson_corr(*(args if side == "predicted" else args[::-1]))

    @pytest.mark.parametrize("value", [0.1, 0.7, 1.1, 1e-300, 5e-324, 1e300])
    def test_side_one_ulp_apart_gives_a_value(self, value):
        near = [value, value, float(np.nextafter(value, np.inf))]
        for args in ((near, [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], near)):
            assert -1.0 <= pearson_corr(*args) <= 1.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("side", ["predicted", "gold"])
    def test_non_finite_pearson(self, bad, side):
        """No clamp turns a NaN correlation into -1: ``max(-1.0, nan)`` is -1."""
        values, other = [1.0, bad, 3.0], [1.0, 2.0, 4.0]
        args = (values, other) if side == "predicted" else (other, values)
        with pytest.raises(InputError, match="non-finite"):
            pearson_corr(*args)


class TestOracleAgreement:
    def test_thousand_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            pred = rng.integers(0, 2, size=n).tolist()
            gold = rng.integers(0, 2, size=n).tolist()
            assert abs(accuracy(pred, gold) - naive_accuracy(pred, gold)) < 1e-12
            assert abs(f1_binary(pred, gold) - naive_f1(pred, gold)) < 1e-12
            assert abs(matthews_corr(pred, gold) - naive_mcc(pred, gold)) < 1e-12

    def test_thousand_random_continuous_instances(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            pred = rng.standard_normal(n).tolist()
            gold = (np.array(pred) * rng.normal() + rng.standard_normal(n)).tolist()
            assert abs(pearson_corr(pred, gold) - naive_pearson(pred, gold)) < 1e-12


def plain_pearson(predicted, gold):
    """``pearson_corr`` without its power-of-two scaling: the same bits on
    every input whose values, sums and squares stay in the normal range."""
    p = np.asarray(predicted, dtype=np.float64)
    g = np.asarray(gold, dtype=np.float64)
    dp = p - p.mean()
    dg = g - g.mean()
    var_p = float(np.sum(dp * dp))
    var_g = float(np.sum(dg * dg))
    return min(1.0, max(-1.0, float(np.sum(dp * dg) / math.sqrt(var_p * var_g))))


class TestPearsonScale:
    @pytest.mark.parametrize("scale", [1e154, 1e160, 1e200, 1e-160, 1e-200])
    def test_extreme_scales_give_the_unscaled_value(self, scale):
        """Sums of squares that overflow or go subnormal once gave 0.0, a
        perturbed value, or a zero-variance error; the answer is 0.5."""
        pred = [scale, -scale, 3 * scale]
        assert abs(pearson_corr(pred, [1, 2, 3]) - 0.5) < 1e-12
        assert abs(pearson_corr(pred, [scale, 2 * scale, 3 * scale]) - 0.5) < 1e-12

    @pytest.mark.parametrize("pred, unscaled", [
        ([1.7e308, -1.7e308, -1.7e308], [1.7, -1.7, -1.7]),
        ([1.7e308, 1.7e308, -1e308], [1.7, 1.7, -1.0]),
    ])
    def test_overflowing_sums_give_the_unscaled_value(self, pred, unscaled):
        """A deviation, or the sum behind the mean, that overflows once gave
        -1.0 through ``max(-1.0, nan)``; the answer is -sqrt(3)/2."""
        expected = pearson_corr(unscaled, [1, 2, 3])
        assert abs(expected + math.sqrt(3) / 2) < 1e-12
        assert abs(pearson_corr(pred, [1, 2, 3]) - expected) < 1e-12
        assert abs(pearson_corr([1, 2, 3], pred) - expected) < 1e-12

    def test_healthy_inputs_bit_identical_to_the_plain_formula(self):
        rng = np.random.default_rng(47)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            base = rng.standard_normal(n)
            pred = base * 10.0 ** rng.uniform(-60, 60)
            gold = (base * rng.normal() + rng.standard_normal(n)) * 10.0 ** rng.uniform(-60, 60)
            assert pearson_corr(pred, gold) == plain_pearson(pred, gold)


class TestInvariances:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(44)
        pred = rng.integers(0, 2, size=50).tolist()
        gold = rng.integers(0, 2, size=50).tolist()
        perm = rng.permutation(50)
        shuffled_pred = [pred[i] for i in perm]
        shuffled_gold = [gold[i] for i in perm]
        assert accuracy(pred, gold) == accuracy(shuffled_pred, shuffled_gold)
        assert f1_binary(pred, gold) == f1_binary(shuffled_pred, shuffled_gold)
        assert matthews_corr(pred, gold) == matthews_corr(shuffled_pred, shuffled_gold)

    def test_mcc_polarity_swap_invariance(self):
        rng = np.random.default_rng(45)
        pred = rng.integers(0, 2, size=60).tolist()
        gold = rng.integers(0, 2, size=60).tolist()
        flipped = matthews_corr([1 - p for p in pred], [1 - g for g in gold])
        assert abs(matthews_corr(pred, gold) - flipped) < 1e-12

    def test_pearson_positive_affine_invariance(self):
        rng = np.random.default_rng(46)
        pred = rng.standard_normal(30).tolist()
        gold = rng.standard_normal(30).tolist()
        scaled_pred = [3.5 * p + 1.0 for p in pred]
        scaled_gold = [0.25 * g - 7.0 for g in gold]
        assert abs(pearson_corr(pred, gold)
                   - pearson_corr(scaled_pred, scaled_gold)) < 1e-12
