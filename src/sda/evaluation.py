"""Folds and metrics: stratified fold assignment, ROC-AUC, AUPRC,
accuracy/F1, curve export, and the report the CV (``pipeline.evaluate``)
builds.

ROC-AUC is the tie-aware rank statistic (the probability a random positive
outscores a random negative, ties counted half), not a trapezoid over
thresholds; AUPRC is average precision with step interpolation over distinct
thresholds. Curve points are still exported for plotting.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericError


def stratified_kfold(labels, n_folds: int = 5, seed: int = 0) -> np.ndarray:
    """The fold of each sample: shuffle each class and deal round-robin, so
    per-fold class counts differ from perfect proportionality by at most one
    sample. The classes are shuffled in ascending order by one
    ``random.Random(seed)``; ``seed`` is a Python int."""
    y = np.asarray(labels)
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    rng = random.Random(seed)
    fold_index = np.empty(len(y), dtype=np.int64)
    for cls in sorted(set(y.tolist())):  # ascending: the order of the RNG draws
        idx = np.flatnonzero(y == cls).tolist()
        if len(idx) < n_folds:
            raise DataError(
                f"class {cls} has {len(idx)} samples, fewer than {n_folds} folds"
            )
        rng.shuffle(idx)
        fold_index[idx] = np.arange(len(idx)) % n_folds
    return fold_index


def _check_binary(labels) -> np.ndarray:
    y = np.asarray(labels)
    y = np.where(y == 1, 1, 0)
    return y


def _tie_groups(s: np.ndarray, y: np.ndarray):
    """Runs of equal scores in descending order.

    Returns ``(ends, tp)``: one past the last sorted position of each run,
    and the positives of ``y`` among the sorted rows up to each run's end.
    """
    order = np.argsort(-s, kind="mergesort")
    s_sorted = s[order]
    ends = np.flatnonzero(np.append(s_sorted[1:] != s_sorted[:-1], len(s) > 0)) + 1
    tp = np.cumsum(y[order])[ends - 1]
    return ends, tp


def roc_auc(scores, labels) -> float:
    """Tie-aware rank statistic: mean over positive-negative pairs of
    [score_pos > score_neg] + 0.5 * [tie]."""
    s = np.asarray(scores, dtype=np.float64)
    y = _check_binary(labels)
    n = len(s)
    n_pos = int(y.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise NumericError("roc_auc needs both classes present")
    ends, tp = _tie_groups(s, y)
    # The Mann-Whitney U: each run's negatives count the positives above
    # the run and half of those in it. Every term and partial sum is a
    # multiple of 0.5 below 2^53, so U is exact whatever the summation order.
    pos_run = np.diff(tp, prepend=0)
    neg_run = np.diff(ends - tp, prepend=0)
    u = float(np.sum(neg_run * (tp - 0.5 * pos_run)))
    return u / (n_pos * n_neg)


def pr_auc(scores, labels) -> float:
    """Average precision: sum of (R_k - R_{k-1}) * P_k over distinct
    descending-score thresholds."""
    s = np.asarray(scores, dtype=np.float64)
    y = _check_binary(labels)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise NumericError("pr_auc needs at least one positive")
    ends, tp = _tie_groups(s, y)
    recall = tp / n_pos
    terms = np.diff(recall, prepend=0.0) * (tp / ends)
    # Summed in threshold order (cumsum adds left to right; np.sum would
    # pair terms up and round differently).
    return float(np.cumsum(terms)[-1])


class ThresholdMetrics(NamedTuple):
    accuracy: float
    f1: float
    f1_defined: bool = True


def threshold_metrics(scores, labels, threshold: float = 0.5) -> ThresholdMetrics:
    """Confusion-matrix accuracy and F1 at a probability threshold."""
    s = np.asarray(scores, dtype=np.float64)
    y = _check_binary(labels)
    if len(s) == 0:
        raise ValueError("empty score list")
    pred = (s >= threshold).astype(int)
    accuracy = float((pred == y).mean())
    tp = int(((pred == 1) & (y == 1)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())
    if tp + fp == 0 or tp + fn == 0:
        return ThresholdMetrics(accuracy, 0.0, f1_defined=False)
    f1 = 2.0 * tp / (2.0 * tp + fp + fn)
    return ThresholdMetrics(accuracy, f1, f1_defined=True)


def roc_points(scores, labels) -> list[tuple[float, float]]:
    """(FAR, TAR) at each distinct threshold, descending, with (0,0)/(1,1) ends."""
    s = np.asarray(scores, dtype=np.float64)
    y = _check_binary(labels)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    ends, tp = _tie_groups(s, y)
    far = (ends - tp) / n_neg if n_neg else np.zeros(len(ends))
    tar = tp / n_pos if n_pos else np.zeros(len(ends))
    points = [(0.0, 0.0)] + list(zip(far.tolist(), tar.tolist()))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    return points


def pr_points(scores, labels) -> list[tuple[float, float]]:
    """(recall, precision) at each distinct threshold, descending scores."""
    s = np.asarray(scores, dtype=np.float64)
    y = _check_binary(labels)
    n_pos = int(y.sum())
    ends, tp = _tie_groups(s, y)
    recall = tp / n_pos if n_pos else np.zeros(len(ends))
    return list(zip(recall.tolist(), (tp / ends).tolist()))


class MetricsReport(NamedTuple):
    mode: str
    n_folds: int
    seed: int
    svm_c: float
    svm_gamma: float | str  # a number, or the literal "1/d"
    folds: list[dict]
    mean: dict
    roc_curve: list[tuple[float, float]]
    pr_curve: list[tuple[float, float]]

