"""Soft-margin SVM with an RBF kernel, trained on the boosted-tree leaf
encodings by sequential minimal optimization with LIBSVM's second-order
working-set selection (WSS2; Fan, Chen & Lin, JMLR 6, 2005).

A row is a pair's leaf index in each of T trees (``boost.gbdt_leaf_encode``).
Its one-hot encoding has one 1 per tree, so two rows sharing s leaves lie
||x - y||^2 = 2 (T - s) apart, and the RBF kernel takes only T + 1 values:
a Gram matrix is one lookup of the shared-leaf counts into a table of them.
The counts are exact integers, so the kernel equals the RBF of the one-hots
bit for bit, is exactly symmetric and is 1 on the diagonal.

The solver keeps ``v = y - g``, where ``g`` is the decision value without
bias (``v`` is ``-y`` times the gradient of the dual), and the index sets
I_up = {alpha < C, y = +1} | {alpha > 0, y = -1} and
I_low = {alpha < C, y = -1} | {alpha > 0, y = +1}. Each step takes the
maximal violator i = argmax of v over I_up, pairs it with the j in I_low
that promises the largest second-order gain (m - v_j)^2 / a_ij, where
m = v_i and a_ij = K_ii + K_jj - 2 K_ij, and solves the two-variable
subproblem exactly, clipped to the box. It stops when m - M < tol, with
M = min of v over I_low: under the bias that ``_optimal_bias`` picks, that
is every KKT condition holding within ``tol``. Every step raises the dual
and the selection is deterministic, so no seed is needed and the last
iterate is the best one.

I_up and I_low are held as penalty vectors, 0 inside the set and -inf
outside, so that a masked maximum is one addition and one ``argmax``, and a
step rewrites only the two entries it moved. The same vector m - v plus the
I_low penalty gives both the stop test (its maximum is m - M) and the
gains.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

log = logging.getLogger(__name__)


def _shared_leaves(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """S[i, j] = the number of trees in which leaf rows A_i and B_j share a
    leaf, summed tree by tree in the smallest unsigned dtype that holds it."""
    S = np.zeros((len(A), len(B)), dtype=np.min_scalar_type(A.shape[1]))
    for a, b in zip(A.T, B.T):
        S += a[:, None] == b
    return S


def _kernel_table(n_trees: int, gamma: float) -> np.ndarray:
    """The kernel value for each shared-leaf count s = 0..T."""
    return np.exp(-gamma * (2.0 * (n_trees - np.arange(n_trees + 1))))


def leaf_kernel(A, B, gamma: float) -> np.ndarray:
    """K[i, j] = exp(-gamma * ||x_i - y_j||^2) between the one-hot encodings
    of leaf rows A_i and B_j."""
    return _kernel_table(A.shape[1], gamma)[_shared_leaves(A, B)]


def gamma_value(setting, total_leaves: int) -> float:
    """The RBF gamma a ``svm_gamma`` setting means for an ensemble of
    ``total_leaves`` leaves: the setting itself, or, for the literal "1/d",
    one over the width of the one-hot encoding, which is that count."""
    return 1.0 / total_leaves if setting == "1/d" else float(setting)


@dataclass
class ParamGrid:
    c_values: list[float]
    gamma_values: list[float]

    def __post_init__(self):
        if not self.c_values or not self.gamma_values:
            raise ValueError("parameter grid must be nonempty")
        if any(c <= 0 for c in self.c_values) or any(g <= 0 for g in self.gamma_values):
            raise ValueError("grid values must be positive")
        # grid_search keeps one score list per (C, gamma) cell
        if any(len(set(v)) < len(v) for v in (self.c_values, self.gamma_values)):
            raise ValueError("grid values must be distinct")


@dataclass
class SvmModel:
    support_vectors: np.ndarray  # (n_sv, n_trees) leaf rows
    alphas: np.ndarray  # (n_sv,)
    labels: np.ndarray  # (n_sv,), values in {-1, +1}
    bias: float
    gamma: float
    converged: bool = True
    n_sweeps: int = 0
    dual_objective: float = 0.0


def _as_pm1(y) -> np.ndarray:
    y = np.asarray(y)
    if np.all((y == 0) | (y == 1)):
        y = np.where(y == 1, 1.0, -1.0)
    elif np.all((y == -1) | (y == 1)):
        y = y.astype(np.float64)
    else:
        raise ValueError(f"labels must be 0/1 or -1/+1, got {sorted(set(y.tolist()))}")
    if y.size == 0 or y.min() == y.max():
        raise NumericError("degenerate training set: need both classes present")
    return y


TAU = 1e-12  # stands in for a curvature a_ij <= 0 (duplicate rows give 0)


def _optimal_bias(v: np.ndarray, up: np.ndarray, low: np.ndarray) -> float:
    """Bias for the duals whose state is ``v``, ``up`` (I_up), ``low`` (I_low).

    Free points (in both sets) pin b = v_t; their mean lies in [M, m]. With
    every point at a bound, the midpoint of m = max v over I_up and
    M = min v over I_low is taken. Either way, m - M < tol puts every point
    within ``tol`` of its KKT condition.
    """
    free = up & low
    if free.any():
        return float(v[free].mean())
    return float((v[up].max() + v[low].min()) / 2.0)


def _solve(K: np.ndarray, y: np.ndarray, C: float, tol: float, max_passes: int):
    """WSS2 SMO on the leaf-kernel Gram matrix ``K`` for labels ``y`` in
    {-1, +1}. The diagonal of ``K`` is exactly 1, so a_ij = 2 - 2 K_ij.

    Runs at most ``max_passes * n`` steps. Returns ``(alphas, up, low,
    steps, converged)``, with ``up`` and ``low`` the masks of I_up and I_low.
    """
    n = len(y)
    C = float(C)
    # A step reads and writes two entries of alphas and labels: Python floats
    # cost less there than numpy scalars, and round the same.
    alphas, labels = [0.0] * n, y.tolist()
    v = y.copy()  # g == 0 at alphas == 0
    up_pen = np.where(y > 0, 0.0, -np.inf)
    low_pen = np.where(y > 0, -np.inf, 0.0)
    # Every step reuses these buffers.
    a, b, gain = np.empty(n), np.empty(n), np.empty(n)
    pick = np.empty(n, dtype=bool)
    steps = 0
    while True:
        i = int(np.add(v, up_pen, out=b).argmax())
        m = b.item(i)  # -inf when I_up is empty, as the max over no point
        # b_j = m - v_j on I_low, -inf elsewhere. Subtracting from a fixed m
        # is monotone, so its max is m - M bit for bit.
        np.subtract(m, v, out=b)
        b += low_pen
        gap = b.max()
        if gap < tol or gap <= 0.0:  # gap <= 0: exactly optimal, even at tol <= 0
            # Confirm on a fresh v: the updates below accumulate rounding.
            fresh = y - (np.array(alphas) * y) @ K
            if np.array_equal(fresh, v):
                return np.array(alphas), up_pen == 0.0, low_pen == 0.0, steps, True
            v = fresh
            continue
        if steps == max_passes * n:
            return np.array(alphas), up_pen == 0.0, low_pen == 0.0, steps, False
        Ki = K[i]
        np.subtract(2.0, np.multiply(2.0, Ki, out=a), out=a)
        a[np.less_equal(a, 0.0, out=pick)] = TAU
        # The gain (m - v_j)^2 / a_ij over the j in I_low with v_j < m, and 0
        # elsewhere. When every such gain underflows to 0 (gap below about
        # 1e-162, reachable only at a tol that small), the first such j is
        # taken, as the argmax over those j alone would take it.
        np.maximum(b, 0.0, out=gain)
        np.square(gain, out=gain)
        gain /= a
        j = int(gain.argmax())
        if gain.item(j) == 0.0:
            j = int(np.greater(b, 0.0, out=pick).argmax())
        Kj = K[j]
        # Move alpha_i by y_i * t and alpha_j by -y_j * t, which keeps
        # sum(alpha * y); t is the unconstrained optimum, clipped to the box.
        # j is in I_low, so b_j = m - v_j.
        yi, yj, alpha_i, alpha_j = labels[i], labels[j], alphas[i], alphas[j]
        room_i = C - alpha_i if yi > 0 else alpha_i
        room_j = alpha_j if yj > 0 else C - alpha_j
        t = min(b.item(j) / a.item(j), room_i, room_j)
        ai = alpha_i + yi * t
        aj = alpha_j - yj * t
        if t == room_i:
            ai = C if yi > 0 else 0.0
        if t == room_j:
            aj = 0.0 if yj > 0 else C
        # a and b are free again: they take the two terms of the update.
        np.multiply(yi * (ai - alpha_i), Ki, out=a)
        a += np.multiply(yj * (aj - alpha_j), Kj, out=b)
        v -= a
        alphas[i], alphas[j] = ai, aj
        for k, y_k, alpha in ((i, yi, ai), (j, yj, aj)):
            below_c = 0.0 if alpha < C else -np.inf
            above_zero = 0.0 if alpha > 0.0 else -np.inf
            up_pen[k] = below_c if y_k > 0 else above_zero
            low_pen[k] = above_zero if y_k > 0 else below_c
        steps += 1


def _fit(
    X: np.ndarray, y: np.ndarray, K: np.ndarray, C: float, gamma: float,
    tol: float, max_passes: int,
) -> tuple[SvmModel, np.ndarray]:
    """Train on leaf rows ``X`` with labels ``y`` in {-1, +1} and their Gram ``K``.
    Returns the model and the mask of its support vectors among the rows."""
    n = len(y)
    alphas, up, low, steps, converged = _solve(K, y, C, tol, max_passes)
    if not converged:
        log.warning("SMO did not converge within %d sweeps (n=%d)", max_passes, n)
    ay = alphas * y
    g = ay @ K
    keep = alphas > 0
    return SvmModel(
        support_vectors=X[keep].copy(),
        alphas=alphas[keep].copy(),
        labels=y[keep].copy(),
        bias=_optimal_bias(y - g, up, low),
        gamma=gamma,
        converged=converged,
        n_sweeps=-(-steps // n),
        dual_objective=float(alphas.sum() - 0.5 * g @ ay),
    ), keep


def smo_train(
    X,
    y,
    C: float = 10.0,
    gamma: float = 0.1,
    tol: float = 1e-3,
    max_passes: int = 100,
) -> SvmModel:
    """Fit the dual soft-margin problem on leaf rows ``X`` (n, n_trees) by
    WSS2 pairwise steps.

    Converged means the maximal violating pair is closer than ``tol``.
    ``max_passes`` caps the steps at ``max_passes * n``; ``n_sweeps`` counts
    steps in units of n. When the cap is hit, the last (best) iterate is
    returned with ``converged=False``.
    """
    X = np.atleast_2d(np.asarray(X))
    y = _as_pm1(y)
    return _fit(X, y, leaf_kernel(X, X, gamma), C, gamma, tol, max_passes)[0]


def _decision(K: np.ndarray, model: SvmModel) -> np.ndarray:
    """f(x) + b for each row of ``K``, the kernel of the scored rows (rows)
    with the support vectors (columns). Each row is weighted in place and
    summed along itself, so its value does not depend on the other rows
    scored with it (a BLAS product's blocking would). Overwrites ``K``."""
    K *= model.alphas * model.labels
    return K.sum(axis=1) + model.bias


def svm_decision(model: SvmModel, X) -> np.ndarray:
    """Raw margin f(x) = sum_i alpha_i y_i K(sv_i, x) + b; sign is the label,
    the value itself is the ranking confidence."""
    X = np.atleast_2d(np.asarray(X))
    return _decision(leaf_kernel(X, model.support_vectors, model.gamma), model)


def grid_search(
    X,
    y,
    grid: ParamGrid,
    n_folds: int = 5,
    seed: int = 0,
    tol: float = 1e-3,
    max_passes: int = 100,
):
    """Pick (C, gamma) by mean fold ROC-AUC of the decision values.

    Ties fall to the smaller C, then the smaller gamma. Folds whose training
    or test part ends up single-class are skipped with a warning; a cell with
    every fold skipped is an error. Each fold's shared-leaf counts are
    computed once, training x training and test x training; each (fold,
    gamma) Gram matrix once, from one kernel table, and every C is solved on
    that Gram. A cell's decision values look up the support vectors' columns
    of the test counts and are summed as ``svm_decision`` sums them.
    """
    from .evaluation import roc_auc, stratified_kfold

    X = np.atleast_2d(np.asarray(X))
    y01 = np.asarray(y)
    y01 = np.where(y01 == 1, 1, 0)
    counts = np.bincount(y01, minlength=2)
    if counts.min() >= n_folds:
        fold_index = stratified_kfold(y01, n_folds, seed)
    else:
        rng = np.random.default_rng(seed)
        fold_index = rng.permutation(len(y01)) % n_folds

    results: dict[tuple[float, float], list[float]] = {
        (C, gamma): [] for C in grid.c_values for gamma in grid.gamma_values
    }
    for f in range(n_folds):
        test = fold_index == f
        train = ~test
        if not all(0 < y01[part].sum() < part.sum() for part in (train, test)):
            log.warning("grid_search: fold %d skipped (single class)", f)
            continue
        X_train, y_train = X[train], _as_pm1(y01[train])
        shared = _shared_leaves(X_train, X_train)
        shared_test = _shared_leaves(X[test], X_train)
        for gamma in grid.gamma_values:
            table = _kernel_table(X.shape[1], gamma)
            K = table[shared]
            for C in grid.c_values:
                model, keep = _fit(X_train, y_train, K, C, gamma, tol, max_passes)
                scores = _decision(table[shared_test[:, keep]], model)
                results[(C, gamma)].append(roc_auc(scores, y01[test]))
    best = None
    for (C, gamma), scores in results.items():
        if not scores:
            raise NumericError(
                f"grid_search: every fold skipped at C={C} gamma={gamma}"
            )
        key = (-float(np.mean(scores)), C, gamma)
        if best is None or key < best:
            best = key
    return best[1], best[2], results

