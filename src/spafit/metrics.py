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


def pearson_corr(predicted: Sequence[float], gold: Sequence[float]) -> float:
    """Sample Pearson correlation, clamped to [-1, 1] against rounding; raises
    when either side holds a non-finite value or has zero variance."""
    _check_lengths(predicted, gold)
    p = np.asarray(predicted, dtype=np.float64)
    g = np.asarray(gold, dtype=np.float64)
    if not (np.isfinite(p).all() and np.isfinite(g).all()):
        raise InputError("correlation undefined: non-finite values")
    dp = p - p.mean()
    dg = g - g.mean()
    var_p = float(np.sum(dp * dp))
    var_g = float(np.sum(dg * dg))
    if var_p == 0.0 or var_g == 0.0:
        raise InputError("correlation undefined: zero variance on one side")
    return min(1.0, max(-1.0, float(np.sum(dp * dg) / math.sqrt(var_p * var_g))))


METRICS = {
    "accuracy": accuracy,
    "f1": f1_binary,
    "mcc": matthews_corr,
    "pearson": pearson_corr,
}
