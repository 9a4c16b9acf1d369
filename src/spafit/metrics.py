"""Evaluation metrics: accuracy, binary F1, Matthews and Pearson correlation.

Degenerate denominators follow fixed conventions: F1 and Matthews return 0,
Pearson raises (a correlation against a constant vector is undefined, as is
one over a NaN or an infinity).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InputError


def _check_lengths(predicted: Sequence, gold: Sequence) -> None:
    if len(predicted) != len(gold):
        raise InputError(f"prediction/gold length mismatch: "
                         f"{len(predicted)} vs {len(gold)}")
    if len(predicted) == 0:
        raise InputError("metrics need at least one example")


def _confusion(predicted: Sequence[int], gold: Sequence[int]) -> tuple[int, int, int, int]:
    p = np.asarray(predicted)
    g = np.asarray(gold)
    if not (set(np.unique(p)) <= {0, 1} and set(np.unique(g)) <= {0, 1}):
        raise InputError("binary metrics require 0/1 labels")
    tp = int(np.sum((p == 1) & (g == 1)))
    tn = int(np.sum((p == 0) & (g == 0)))
    fp = int(np.sum((p == 1) & (g == 0)))
    fn = int(np.sum((p == 0) & (g == 1)))
    return tp, tn, fp, fn


def accuracy(predicted: Sequence, gold: Sequence) -> float:
    """Fraction of exact matches."""
    _check_lengths(predicted, gold)
    return float(np.mean(np.asarray(predicted) == np.asarray(gold)))


def f1_binary(predicted: Sequence[int], gold: Sequence[int]) -> float:
    """2TP / (2TP + FP + FN) with positive class 1; 0 on an empty denominator."""
    _check_lengths(predicted, gold)
    tp, _, fp, fn = _confusion(predicted, gold)
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2 * tp / denom


def matthews_corr(predicted: Sequence[int], gold: Sequence[int]) -> float:
    """Matthews correlation coefficient; 0 when any marginal is empty."""
    _check_lengths(predicted, gold)
    tp, tn, fp, fn = _confusion(predicted, gold)
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


def _unit_scaled(x: np.ndarray) -> np.ndarray:
    """``x`` times the power of two that brings its largest magnitude into
    [0.5, 1): exact, and a correlation does not depend on scale."""
    return np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])


def pearson_corr(predicted: Sequence[float], gold: Sequence[float]) -> float:
    """Sample Pearson correlation, clamped to [-1, 1] against rounding; raises
    when either side holds a non-finite value or has zero variance. Each side
    is first scaled by a power of two, which leaves every in-range input's
    bits unchanged and keeps means, deviations and squares in range at any
    scale."""
    _check_lengths(predicted, gold)
    p = np.asarray(predicted, dtype=np.float64)
    g = np.asarray(gold, dtype=np.float64)
    if not (np.isfinite(p).all() and np.isfinite(g).all()):
        raise InputError("correlation undefined: non-finite values")
    # Tested on the values, not the variance: a constant side whose mean
    # rounds leaves equal nonzero deviations. A scaled side that is not
    # constant has a positive sum of squares.
    if p.min() == p.max() or g.min() == g.max():
        raise InputError("correlation undefined: zero variance on one side")
    p, g = _unit_scaled(p), _unit_scaled(g)
    dp = p - p.mean()
    dg = g - g.mean()
    var_p = float(np.sum(dp * dp))
    var_g = float(np.sum(dg * dg))
    return min(1.0, max(-1.0, float(np.sum(dp * dg) / math.sqrt(var_p * var_g))))


METRICS = {
    "accuracy": accuracy,
    "f1": f1_binary,
    "mcc": matthews_corr,
    "pearson": pearson_corr,
}
