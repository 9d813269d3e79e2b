"""Soft-margin SVM with an RBF kernel, trained on the boosted-tree leaf
encodings by sequential minimal optimization with LIBSVM's second-order
working-set selection (WSS2; Fan, Chen & Lin, JMLR 6, 2005). This module
holds the kernel, the solver (``smo_train``, every SVM fit's one entry) and
the decision sums; ``model`` fits, scores and picks (C, gamma) with them.

A row is a pair's leaf index in each of T trees (``boost.gbdt_leaf_encode``).
Its one-hot encoding has one 1 per tree, so two rows sharing s leaves lie
||x - y||^2 = 2 (T - s) apart, and the RBF kernel takes only T + 1 values:
a Gram matrix is one lookup of the shared-leaf counts into a table of them.
The counts are exact integers, so the kernel equals the RBF of the one-hots
bit for bit, is exactly symmetric and is 1 on the diagonal. The solver's
curvature 2 - 2K takes T + 1 values as well, and each step reads its row
from a table of them by shared-leaf count.

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

The steps update ``v`` in place, which accumulates rounding, so the stop
test is passed only on a ``v`` computed from scratch: when the running
``v`` passes it, ``g`` is summed anew from the alphas and the test is taken
again on ``y - g``. That ``g`` stands until the next step moves the alphas;
the fit's bias and dual objective are read from it, as they are from the
one computed at the step cap.

I_up and I_low are held as penalty vectors, 0 inside the set and -inf
outside, so that a masked maximum is one addition and one ``argmax``, and a
step rewrites only the two entries it moved. The same vector m - v plus the
I_low penalty gives both the stop test (its maximum is m - M) and the
gains.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from .errors import NumericError

log = logging.getLogger(__name__)


def shared_leaves(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """S[i, j] = the number of trees in which leaf rows A_i and B_j share a
    leaf, summed tree by tree in the smallest unsigned dtype that holds it."""
    S = np.zeros((len(A), len(B)), dtype=np.min_scalar_type(A.shape[1]))
    for a, b in zip(A.T, B.T):
        S += a[:, None] == b
    return S


def kernel_table(n_trees: int, gamma: float) -> np.ndarray:
    """The kernel value for each shared-leaf count s = 0..T."""
    return np.exp(-gamma * (2.0 * (n_trees - np.arange(n_trees + 1))))


def leaf_kernel(A, B, gamma: float) -> np.ndarray:
    """K[i, j] = exp(-gamma * ||x_i - y_j||^2) between the one-hot encodings
    of leaf rows A_i and B_j."""
    return kernel_table(A.shape[1], gamma)[shared_leaves(A, B)]


def gamma_value(setting, total_leaves: int) -> float:
    """The RBF gamma a ``svm_gamma`` setting means for an ensemble of
    ``total_leaves`` leaves: the setting itself, or, for the literal "1/d",
    one over the width of the one-hot encoding, which is that count."""
    return 1.0 / total_leaves if setting == "1/d" else float(setting)


class SvmModel(NamedTuple):
    support_vectors: np.ndarray  # (n_sv, n_trees) leaf rows
    support: np.ndarray  # (n_sv,) their row indices among the training rows
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


# Rows summed at a time: scoring holds one SCORE_BLOCK x n_sv kernel block,
# and the solver's from-scratch gradient one SCORE_BLOCK x n block beside the
# Gram and the shared-leaf counts.
SCORE_BLOCK = 64

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


def _solve(K, S, table, y: np.ndarray, C: float, tol: float, max_passes: int):
    """WSS2 SMO on the leaf-kernel Gram matrix ``K`` for labels ``y`` in
    {-1, +1}; ``K`` is ``table[S]``, for the shared-leaf counts ``S`` and
    the kernel table ``table``. The diagonal of ``K`` is exactly 1, so
    a_ij = 2 - 2 K_ij, which takes T + 1 values too: each step reads its
    curvature row from a table of them by ``S``.

    Runs at most ``max_passes * n`` steps. Returns ``(alphas, g, up, low,
    steps, converged)``: ``g`` is the decision value without bias at
    ``alphas``, computed from scratch, and ``up`` and ``low`` are the masks
    of I_up and I_low.
    """
    n = len(y)
    C = float(C)
    # A step reads and writes two entries of alphas and labels: Python floats
    # cost less there than numpy scalars, and round the same.
    alphas, labels = [0.0] * n, y.tolist()
    g = np.zeros(n)
    v = y - g
    # True while v is y - g for a g computed from scratch, that is until a
    # step moves the alphas and updates v in place.
    fresh = True
    up_pen = np.where(y > 0, 0.0, -np.inf)
    low_pen = np.where(y > 0, -np.inf, 0.0)
    curv = 2.0 - 2.0 * table
    curv[curv <= 0.0] = TAU
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
            if fresh:
                return np.array(alphas), g, up_pen == 0.0, low_pen == 0.0, steps, True
            # Test again on a v from scratch: the updates below accumulate
            # rounding.
            g = _decision(n, lambda block: K[block], np.array(alphas) * y)
            v, fresh = y - g, True
            continue
        if steps == max_passes * n:
            if not fresh:
                g = _decision(n, lambda block: K[block], np.array(alphas) * y)
            return np.array(alphas), g, up_pen == 0.0, low_pen == 0.0, steps, False
        # Every count is in range: "clip" writes to ``a`` unbuffered, where
        # the default "raise" would buffer ``out``.
        curv.take(S[i], out=a, mode="clip")
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
        np.multiply(yi * (ai - alpha_i), K[i], out=a)
        a += np.multiply(yj * (aj - alpha_j), K[j], out=b)
        v -= a
        fresh = False
        alphas[i], alphas[j] = ai, aj
        for k, y_k, alpha in ((i, yi, ai), (j, yj, aj)):
            below_c = 0.0 if alpha < C else -np.inf
            above_zero = 0.0 if alpha > 0.0 else -np.inf
            up_pen[k] = below_c if y_k > 0 else above_zero
            low_pen[k] = above_zero if y_k > 0 else below_c
        steps += 1


def smo_train(
    X,
    y,
    C: float = 10.0,
    gamma: float = 0.1,
    tol: float = 1e-3,
    max_passes: int = 100,
    gram: np.ndarray | None = None,
    shared: np.ndarray | None = None,
) -> SvmModel:
    """Fit the dual soft-margin problem on leaf rows ``X`` (n, n_trees) by
    WSS2 pairwise steps. ``shared``, when given, is ``shared_leaves(X, X)``
    and ``gram`` the Gram matrix ``leaf_kernel(X, X, gamma)``, each
    computed once for several fits.

    Converged means the maximal violating pair is closer than ``tol``.
    ``max_passes`` caps the steps at ``max_passes * n``; ``n_sweeps`` counts
    steps in units of n. When the cap is hit, the last (best) iterate is
    returned with ``converged=False``.
    """
    X = np.atleast_2d(np.asarray(X))
    y = _as_pm1(y)
    n = len(y)
    table = kernel_table(X.shape[1], gamma)
    S = shared_leaves(X, X) if shared is None else shared
    K = table[S] if gram is None else gram
    alphas, g, up, low, steps, converged = _solve(K, S, table, y, C, tol, max_passes)
    if not converged:
        log.warning("SMO did not converge within %d sweeps (n=%d)", max_passes, n)
    support = np.flatnonzero(alphas > 0)
    return SvmModel(
        support_vectors=X[support],
        support=support,
        alphas=alphas[support],
        labels=y[support],
        bias=_optimal_bias(y - g, up, low),
        gamma=gamma,
        converged=converged,
        n_sweeps=-(-steps // n),
        dual_objective=float(alphas.sum() - 0.5 * (g * (alphas * y)).sum()),
    )


def _decision(n: int, kernel_rows, weights: np.ndarray) -> np.ndarray:
    """sum_j weights_j K_rj for ``n`` rows r, ``SCORE_BLOCK`` rows at a
    time: ``kernel_rows(block)`` gives the kernel of the rows in the slice
    ``block`` (rows) with the weighted points (columns). With the weights
    alpha * y this is a decision value without bias, of a scored row or, on
    the rows of the Gram, of a training row: the solver's gradient.

    Each row is weighted and summed along itself, so its value does not
    depend on the other rows summed with it, nor on a BLAS library's
    blocking or thread count (a matrix-vector product's would), and the
    blocks hold memory in proportion to ``SCORE_BLOCK``, not to ``n``."""
    sums = np.empty(n)
    for start in range(0, n, SCORE_BLOCK):
        block = slice(start, start + SCORE_BLOCK)
        sums[block] = np.multiply(kernel_rows(block), weights).sum(axis=1)
    return sums


def svm_decision(model: SvmModel, X, shared: np.ndarray | None = None) -> np.ndarray:
    """Raw margin f(x) = sum_i alpha_i y_i K(sv_i, x) + b; sign is the label,
    the value itself is the ranking confidence. ``shared``, when given, is
    ``shared_leaves(X, model.support_vectors)``, computed once for several
    models."""
    X = np.atleast_2d(np.asarray(X))
    table = kernel_table(X.shape[1], model.gamma)

    def kernel_rows(block):
        if shared is None:
            return leaf_kernel(X[block], model.support_vectors, model.gamma)
        return table[shared[block]]

    return _decision(len(X), kernel_rows, model.alphas * model.labels) + model.bias
