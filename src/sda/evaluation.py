"""Folds and measures: stratified fold assignment, and every measure the
commands report, each defined once here. The CV loop
(``pipeline.evaluate``), the grid search and the holdout check only call
them.

- A CV fold's entry (``fold_metrics``), from its test decision scores:
  ``roc_auc``, the tie-aware rank statistic (the mean over positive-negative
  pairs of [pos > neg] + 0.5 [pos == neg]), not a trapezoid over
  thresholds; ``auprc``, average precision, the sum of (R_k - R_{k-1}) P_k
  over distinct descending thresholds; and, with p = sigmoid(score)
  predicted positive at p >= 0.5, ``accuracy``, ``f1`` (0.0, with
  ``f1_defined`` false, when nothing is predicted positive) and ``mse``,
  the mean of (p - label)^2. The grid search takes ROC-AUC alone
  (``roc_auc``).
- The pooled test scores' curves (``curves``): ROC as (FAR, TAR) from
  (0, 0) to (1, 1) and PR as (recall, precision), a point per distinct
  threshold in descending order, for plotting.
- A held-out pair's standing among its disease's candidates, its own cell
  among them (``holdout_standing``): ``percentile``, 100 times the
  candidates scoring below it, ties counted half, over their count
  ``n_candidates``; ``rank_in_disease``, 1 + the candidates scoring
  strictly higher; and ``in_top_k``, that rank within the top k.

Each score set is ranked once (``_ranked``), and every ranked measure of a
fold, or of the pooled scores, reads that one descending sort.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericError
from .util import sigmoid


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


def _ranked(scores, labels, name: str):
    """``(s, y, ends, tp)``: the scores as floats, the labels as 0/1, and
    the runs of equal scores in descending order, as one past the last
    sorted position of each run and the positives among the sorted rows up
    to each run's end. Raises ``NumericError`` naming ``name`` unless both
    classes are present, before any measure divides by a class count."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.where(np.asarray(labels) == 1, 1, 0)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == len(y):
        raise NumericError(f"{name} needs both classes present")
    order = np.argsort(-s, kind="mergesort")
    s_sorted = s[order]
    ends = np.flatnonzero(np.append(s_sorted[1:] != s_sorted[:-1], True)) + 1
    tp = np.cumsum(y[order])[ends - 1]
    return s, y, ends, tp


def _auc(ends: np.ndarray, tp: np.ndarray) -> float:
    """The Mann-Whitney U over all positive-negative pairs: each run's
    negatives count the positives above the run and half of those in it.
    Every term and partial sum is a multiple of 0.5 below 2^53, so U is
    exact whatever the summation order."""
    n_pos = int(tp[-1])
    n_neg = int(ends[-1]) - n_pos
    pos_run = np.diff(tp, prepend=0)
    neg_run = np.diff(ends - tp, prepend=0)
    u = float(np.sum(neg_run * (tp - 0.5 * pos_run)))
    return u / (n_pos * n_neg)


def roc_auc(scores, labels) -> float:
    """The ROC-AUC of ``scores``."""
    _, _, ends, tp = _ranked(scores, labels, "roc_auc")
    return _auc(ends, tp)


def fold_metrics(scores, labels) -> dict:
    """A CV fold's measures of its test decision ``scores``."""
    s, y, ends, tp = _ranked(scores, labels, "fold_metrics")
    n_pos = int(tp[-1])
    recall = tp / n_pos
    terms = np.diff(recall, prepend=0.0) * (tp / ends)
    probs = sigmoid(s)
    pred = probs >= 0.5
    true_pos = int((pred & (y == 1)).sum())
    false_pos = int(pred.sum()) - true_pos
    false_neg = n_pos - true_pos
    f1_defined = true_pos + false_pos > 0
    return {
        "roc_auc": _auc(ends, tp),
        # summed in threshold order (cumsum adds left to right; np.sum
        # would pair terms up and round differently)
        "auprc": float(np.cumsum(terms)[-1]),
        "accuracy": float((pred == y).mean()),
        "f1": 2.0 * true_pos / (2.0 * true_pos + false_pos + false_neg) if f1_defined else 0.0,
        "f1_defined": f1_defined,
        "mse": float(np.mean((probs - y) ** 2)),
    }


def curves(scores, labels) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """The ROC and the PR curve of ``scores``."""
    _, _, ends, tp = _ranked(scores, labels, "curves")
    n_pos = int(tp[-1])
    far = (ends - tp) / (int(ends[-1]) - n_pos)
    recall = tp / n_pos
    # the last run holds every row, so the ROC curve ends at (1, 1)
    roc = [(0.0, 0.0)] + list(zip(far.tolist(), recall.tolist()))
    return roc, list(zip(recall.tolist(), (tp / ends).tolist()))


def holdout_standing(
    grid: np.ndarray, candidates: np.ndarray, pairs: np.ndarray, top_k: int
) -> list[dict]:
    """The ``score`` and standing of each (snoRNA, disease) row of
    ``pairs``, its candidates the cells of its column of ``grid`` where
    ``candidates`` is true."""
    standings = []
    for s, d in pairs.tolist():
        column = grid[candidates[:, d], d]
        mine = float(grid[s, d])
        below = int((column < mine).sum())
        ties = int((column == mine).sum())
        rank = int((column > mine).sum()) + 1
        standings.append(
            {
                "score": mine,
                "percentile": 100.0 * (below + 0.5 * ties) / len(column),
                "rank_in_disease": rank,
                "n_candidates": len(column),
                "in_top_k": rank <= top_k,
            }
        )
    return standings


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
