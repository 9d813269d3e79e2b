"""Gradient-boosted regression trees with logistic loss, plus the leaf
one-hot encoding used as the classifier's transformed feature space.

Each boosting round fits a regression tree to the current residuals
y - sigmoid(F) by exact greedy split search (thresholds at midpoints between
consecutive distinct feature values, squared-error criterion) and sets each
leaf to one Newton step: sum(residual) / (sum(p*(1-p)) + lambda). Encoding a
sample yields one active leaf per tree, concatenated across trees.

The split search is presorted, as in SLIQ (Mehta et al. 1996) and the exact
mode of XGBoost (Chen & Guestrin 2016). ``gbdt_fit`` sorts every feature
once, stably, and all its trees share that sort because X does not change
between rounds. Each node keeps its rows in every feature's sorted order; a
split partitions those lists with one boolean mask, which keeps each list in
order. A node's lists therefore equal a fresh stable sort of its rows taken
in ascending order, so the cumulative sums, gains, tie-breaks, thresholds
and leaf values are bit-for-bit those of sorting anew at every node.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .util import atomic_write_text, sigmoid

log = logging.getLogger(__name__)

SERIAL_VERSION = "gbdt-v1"


@dataclass
class RegressionTree:
    """Flat-array binary tree; nodes in preorder, leaf ordinals contiguous."""

    feature: np.ndarray  # int32, -1 at leaves
    threshold: np.ndarray  # float64, nan at leaves
    left: np.ndarray  # int32, -1 at leaves
    right: np.ndarray  # int32, -1 at leaves
    value: np.ndarray  # float64, leaf value (0 at internal nodes)
    leaf_ordinal: np.ndarray  # int32, -1 at internal nodes
    n_leaves: int
    max_depth: int
    min_samples_leaf: int

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Node index of the leaf each row routes to."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        node = np.zeros(X.shape[0], dtype=np.int32)
        while True:
            feat = self.feature[node]
            active = np.flatnonzero(feat >= 0)
            if active.size == 0:
                return node
            rows = active
            f = feat[rows]
            go_left = X[rows, f] <= self.threshold[node[rows]]
            node[rows] = np.where(
                go_left, self.left[node[rows]], self.right[node[rows]]
            )

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]

    def leaf_ordinals(self, X: np.ndarray) -> np.ndarray:
        return self.leaf_ordinal[self.apply(X)]


@dataclass
class GbdtEnsemble:
    trees: list[RegressionTree]
    init_score: float
    learning_rate: float
    n_trees: int
    seed: int = 0
    loss_history: list[float] = field(default_factory=list)

    @property
    def total_leaves(self) -> int:
        return sum(t.n_leaves for t in self.trees)

    @property
    def leaf_offsets(self) -> list[int]:
        offsets, acc = [], 0
        for t in self.trees:
            offsets.append(acc)
            acc += t.n_leaves
        return offsets


def gbdt_init(labels) -> float:
    """Loss-minimizing constant for logistic loss: the log-odds of the mean label."""
    y = np.asarray(labels, dtype=np.float64)
    if y.size == 0 or len(np.unique(y)) < 2:
        raise NumericError("degenerate training set: need both classes present")
    p = float(y.mean())
    return float(np.log(p / (1.0 - p)))


def residuals(labels, scores) -> np.ndarray:
    """Negative logistic-loss gradient: y - sigmoid(F)."""
    y = np.asarray(labels, dtype=np.float64)
    f = np.asarray(scores, dtype=np.float64)
    if y.shape != f.shape:
        raise ValueError("labels and scores must have equal length")
    return y - sigmoid(f)


def _presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``X`` transposed to one contiguous row per feature, and the row
    indices of each feature in ascending value order, ties in ascending row
    order: an (n_feat, m) index matrix."""
    XT = np.ascontiguousarray(X.T)
    return XT, np.argsort(XT, axis=1, kind="stable")


def _best_split(xs: np.ndarray, rs: np.ndarray, min_samples_leaf: int):
    """Exhaustive (feature, midpoint) search minimizing squared error.

    ``xs`` holds each feature's values of the node's rows in ascending order,
    one feature per row, and ``rs`` the residuals in the same orders.
    Returns (feature, threshold), or None when no candidate leaves
    ``min_samples_leaf`` rows on each side of distinct values.
    Ties break to the lowest feature index, then the lowest threshold.
    """
    n_feat, m = xs.shape
    # Candidate p splits between sorted positions p and p + 1; it must leave
    # min_samples_leaf rows on each side and fall between distinct values.
    lo, hi = min_samples_leaf - 1, m - min_samples_leaf
    cand = np.flatnonzero(xs[:, lo + 1 : hi + 1] > xs[:, lo:hi])
    if cand.size == 0:
        return None  # no valid candidate at all
    feat, p = np.divmod(cand, hi - lo)
    p += lo
    csum = np.cumsum(rs, axis=1)
    total = csum[0, -1]
    left_n = (p + 1).astype(np.float64)
    left_sum = csum[feat, p]
    gain = left_sum**2 / left_n + (total - left_sum) ** 2 / (m - left_n)
    # Candidates run feature-major, so the first maximum has the lowest
    # feature, then the lowest threshold. Zero-gain splits are allowed on
    # impure nodes (callers screen constant residuals); they open up gains
    # at the next depth, e.g. XOR patterns.
    best = int(np.argmax(gain))
    f, q = int(feat[best]), int(p[best])
    below, above = xs[f, q], xs[f, q + 1]
    # Between adjacent floats the midpoint can round up to ``above``, which
    # would send every row left; the lower value then splits the same rows.
    mid = (below + above) / 2.0
    return f, float(mid if mid < above else below)


def fit_regression_tree(
    X,
    res,
    hessian,
    max_depth: int = 4,
    min_samples_leaf: int = 5,
    lam: float = 1e-6,
) -> RegressionTree:
    """Greedy depth-limited regression tree on residuals with Newton leaf values."""
    X = np.asarray(X, dtype=np.float64)
    res = np.asarray(res, dtype=np.float64)
    hessian = np.asarray(hessian, dtype=np.float64)
    if len(X) == 0 or len(X) != len(res):
        raise ValueError("X and residuals must be nonempty and equal length")
    XT, order = _presort(X)
    return _grow_tree(XT, order, res, hessian, max_depth, min_samples_leaf, lam)


def _grow_tree(
    XT: np.ndarray,
    order: np.ndarray,
    res: np.ndarray,
    hessian: np.ndarray,
    max_depth: int,
    min_samples_leaf: int,
    lam: float,
) -> RegressionTree:
    """Grow one tree on the transposed features ``XT`` given their presort.

    Each node carries its rows twice: ascending (``idx``, for the leaf sums)
    and in every feature's sorted order (``order``, for the split search).
    A split partitions both with one boolean mask; boolean indexing keeps
    each feature row's order, so a child's lists equal a fresh stable sort
    of its rows.
    """
    n_feat = XT.shape[0]
    feature, threshold, left, right, value, ordinal = [], [], [], [], [], []
    leaf_count = 0

    def add_node() -> int:
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        ordinal.append(-1)
        return len(feature) - 1

    def build(idx: np.ndarray, order: np.ndarray, depth: int) -> int:
        nonlocal leaf_count
        node = add_node()
        r = res[idx]
        split = None
        if (
            depth < max_depth
            and idx.size >= 2 * min_samples_leaf
            and not np.all(r == r[0])
        ):
            split = _best_split(
                np.take_along_axis(XT, order, axis=1), res[order], min_samples_leaf
            )
        if split is None:
            value[node] = float(r.sum() / (hessian[idx].sum() + lam))
            ordinal[node] = leaf_count
            leaf_count += 1
        else:
            f, t = split
            feature[node] = f
            threshold[node] = t
            go_left = XT[f] <= t
            mask = go_left[idx]
            n_left = int(mask.sum())
            sorted_mask = go_left[order]
            left[node] = build(
                idx[mask], order[sorted_mask].reshape(n_feat, n_left), depth + 1
            )
            right[node] = build(
                idx[~mask],
                order[~sorted_mask].reshape(n_feat, idx.size - n_left),
                depth + 1,
            )
        return node

    build(np.arange(XT.shape[1]), order, 0)
    return RegressionTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
        leaf_ordinal=np.array(ordinal, dtype=np.int32),
        n_leaves=leaf_count,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
    )


def logistic_loss(labels, scores) -> float:
    y = np.asarray(labels, dtype=np.float64)
    f = np.asarray(scores, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, -f) + (1.0 - y) * f))


def gbdt_fit(
    X,
    y,
    n_trees: int = 10,
    learning_rate: float = 0.1,
    max_depth: int = 4,
    min_samples_leaf: int = 5,
    lam: float = 1e-6,
    seed: int = 0,
) -> GbdtEnsemble:
    """Boost ``n_trees`` regression trees on logistic residuals.

    Fitting is deterministic; the seed is recorded for provenance only.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(X) != len(y):
        raise ValueError("X and labels must have equal length")
    init = gbdt_init(y)
    scores = np.full(len(y), init)
    ens = GbdtEnsemble([], init, learning_rate, n_trees, seed=seed)
    ens.loss_history.append(logistic_loss(y, scores))
    XT, order = _presort(X)  # X is fixed across rounds: one sort serves every tree
    for _ in range(n_trees):
        p = sigmoid(scores)
        tree = _grow_tree(
            XT, order, y - p, p * (1.0 - p), max_depth, min_samples_leaf, lam
        )
        ens.trees.append(tree)
        scores = scores + learning_rate * tree.predict(X)
        ens.loss_history.append(logistic_loss(y, scores))
    return ens


def gbdt_raw_score(ens: GbdtEnsemble, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    scores = np.full(X.shape[0], ens.init_score)
    for tree in ens.trees:
        scores += ens.learning_rate * tree.predict(X)
    return scores


def gbdt_predict_proba(ens: GbdtEnsemble, X) -> np.ndarray:
    return sigmoid(gbdt_raw_score(ens, X))


def gbdt_leaf_encode(ens: GbdtEnsemble, X) -> np.ndarray:
    """Binary matrix (n_samples, total_leaves) with exactly one active leaf
    per tree for every sample."""
    if not ens.trees:
        raise ValueError("ensemble has no fitted trees")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.zeros((X.shape[0], ens.total_leaves), dtype=np.int8)
    rows = np.arange(X.shape[0])
    for offset, tree in zip(ens.leaf_offsets, ens.trees):
        out[rows, offset + tree.leaf_ordinals(X)] = 1
    return out


def _tree_to_dict(t: RegressionTree) -> dict:
    return {
        "feature": t.feature.tolist(),
        "threshold": [None if np.isnan(v) else v for v in t.threshold],
        "left": t.left.tolist(),
        "right": t.right.tolist(),
        "value": t.value.tolist(),
        "leaf_ordinal": t.leaf_ordinal.tolist(),
        "n_leaves": t.n_leaves,
        "max_depth": t.max_depth,
        "min_samples_leaf": t.min_samples_leaf,
    }


def _tree_from_dict(d: dict) -> RegressionTree:
    return RegressionTree(
        feature=np.array(d["feature"], dtype=np.int32),
        threshold=np.array(
            [np.nan if v is None else v for v in d["threshold"]], dtype=np.float64
        ),
        left=np.array(d["left"], dtype=np.int32),
        right=np.array(d["right"], dtype=np.int32),
        value=np.array(d["value"], dtype=np.float64),
        leaf_ordinal=np.array(d["leaf_ordinal"], dtype=np.int32),
        n_leaves=d["n_leaves"],
        max_depth=d["max_depth"],
        min_samples_leaf=d["min_samples_leaf"],
    )


def save_gbdt(ens: GbdtEnsemble, path: str) -> None:
    doc = {
        "version": SERIAL_VERSION,
        "init_score": ens.init_score,
        "learning_rate": ens.learning_rate,
        "n_trees": ens.n_trees,
        "seed": ens.seed,
        "trees": [_tree_to_dict(t) for t in ens.trees],
    }
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_gbdt(path: str) -> GbdtEnsemble:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("version") != SERIAL_VERSION:
        raise ValueError(f"unsupported model version: {doc.get('version')}")
    return GbdtEnsemble(
        trees=[_tree_from_dict(d) for d in doc["trees"]],
        init_score=doc["init_score"],
        learning_rate=doc["learning_rate"],
        n_trees=doc["n_trees"],
        seed=doc.get("seed", 0),
    )
