"""Soft-margin SVM with an RBF kernel, trained on the boosted-tree leaf
encodings by sequential minimal optimization with LIBSVM's second-order
working-set selection (WSS2; Fan, Chen & Lin, JMLR 6, 2005).

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
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .util import atomic_write_text

log = logging.getLogger(__name__)

SERIAL_VERSION = "svm-v1"


def rbf_kernel(x, y, gamma: float) -> float:
    """exp(-gamma * ||x - y||^2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    d = x - y
    return float(np.exp(-gamma * np.dot(d, d)))


def _sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared distances ||X_i - Y_j||^2, clipped at 0 against rounding."""
    d2 = (
        np.sum(X**2, axis=1)[:, None]
        - 2.0 * X @ Y.T
        + np.sum(Y**2, axis=1)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def rbf_cross(X, Y, gamma: float) -> np.ndarray:
    """Kernel block K[i, j] = exp(-gamma * ||X_i - Y_j||^2)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    return np.exp(-gamma * _sq_dists(X, Y))


def _gram_from_sq(d2: np.ndarray, gamma: float) -> np.ndarray:
    """``rbf_gram`` from precomputed squared distances."""
    K = np.exp(-gamma * d2)
    K = np.triu(K) + np.triu(K, 1).T
    np.fill_diagonal(K, 1.0)
    return K


def rbf_gram(X, gamma: float) -> np.ndarray:
    """Symmetric kernel matrix with an exact unit diagonal."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return _gram_from_sq(_sq_dists(X, X), gamma)


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

    @classmethod
    def default(cls, encoding_dim: int) -> "ParamGrid":
        return cls(
            c_values=[0.1, 1.0, 10.0, 100.0],
            gamma_values=[1.0 / encoding_dim, 0.01, 0.1, 1.0],
        )


@dataclass
class SvmModel:
    support_vectors: np.ndarray  # (n_sv, d)
    alphas: np.ndarray  # (n_sv,)
    labels: np.ndarray  # (n_sv,), values in {-1, +1}
    bias: float
    gamma: float
    C: float
    converged: bool = True
    n_sweeps: int = 0
    dual_objective: float = 0.0


def _as_pm1(y) -> np.ndarray:
    y = np.asarray(y)
    vals = set(np.unique(y).tolist())
    if vals <= {0, 1}:
        y = np.where(y == 1, 1.0, -1.0)
    elif vals <= {-1, 1}:
        y = y.astype(np.float64)
    else:
        raise ValueError(f"labels must be 0/1 or -1/+1, got {sorted(vals)}")
    if len(np.unique(y)) < 2:
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
    """WSS2 SMO on the Gram matrix ``K`` for labels ``y`` in {-1, +1}.

    Runs at most ``max_passes * n`` steps. Returns ``(alphas, up, low,
    steps, converged)``, with ``up`` and ``low`` the masks of I_up and I_low.
    """
    n = len(y)
    diag = K.diagonal()
    alphas = np.zeros(n)
    v = y.copy()  # g == 0 at alphas == 0
    up = y > 0
    low = ~up
    steps = 0
    while True:
        v_up = np.where(up, v, -np.inf)
        i = int(v_up.argmax())
        m = v_up[i]
        M = np.where(low, v, np.inf).min()
        if m - M < tol or m <= M:  # m <= M: exactly optimal, even at tol <= 0
            # Confirm on a fresh v: the updates below accumulate rounding.
            fresh = y - (alphas * y) @ K
            if np.array_equal(fresh, v):
                return alphas, up, low, steps, True
            v = fresh
            continue
        if steps == max_passes * n:
            return alphas, up, low, steps, False
        Ki = K[i]
        a = diag[i] + diag - 2.0 * Ki
        a[a <= 0.0] = TAU
        b = m - v
        j = int(np.where(low & (b > 0.0), b * b / a, -np.inf).argmax())
        Kj = K[j]
        # Move alpha_i by y_i * t and alpha_j by -y_j * t, which keeps
        # sum(alpha * y); t is the unconstrained optimum, clipped to the box.
        room_i = C - alphas[i] if y[i] > 0 else alphas[i]
        room_j = alphas[j] if y[j] > 0 else C - alphas[j]
        t = min(b[j] / a[j], room_i, room_j)
        ai = alphas[i] + y[i] * t
        aj = alphas[j] - y[j] * t
        if t == room_i:
            ai = C if y[i] > 0 else 0.0
        if t == room_j:
            aj = 0.0 if y[j] > 0 else C
        v -= (y[i] * (ai - alphas[i])) * Ki + (y[j] * (aj - alphas[j])) * Kj
        alphas[i], alphas[j] = ai, aj
        for k in (i, j):
            below_c, above_zero = alphas[k] < C, alphas[k] > 0.0
            up[k] = below_c if y[k] > 0 else above_zero
            low[k] = above_zero if y[k] > 0 else below_c
        steps += 1


def _fit(
    X: np.ndarray, y: np.ndarray, K: np.ndarray, C: float, gamma: float,
    tol: float, max_passes: int,
) -> SvmModel:
    """Train on rows ``X`` with labels ``y`` in {-1, +1} and their Gram ``K``."""
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
        C=C,
        converged=converged,
        n_sweeps=-(-steps // n),
        dual_objective=float(alphas.sum() - 0.5 * g @ ay),
    )


def smo_train(
    X,
    y,
    C: float = 10.0,
    gamma: float = 0.1,
    tol: float = 1e-3,
    max_passes: int = 100,
) -> SvmModel:
    """Fit the dual soft-margin problem by WSS2 pairwise steps.

    Converged means the maximal violating pair is closer than ``tol``.
    ``max_passes`` caps the steps at ``max_passes * n``; ``n_sweeps`` counts
    steps in units of n. When the cap is hit, the last (best) iterate is
    returned with ``converged=False``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = _as_pm1(y)
    return _fit(X, y, rbf_gram(X, gamma), C, gamma, tol, max_passes)


def svm_decision(model: SvmModel, X) -> np.ndarray:
    """Raw margin f(x) = sum_i alpha_i y_i K(sv_i, x) + b; sign is the label,
    the value itself is the ranking confidence."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if len(model.alphas) == 0:
        return np.full(X.shape[0], model.bias)
    K = rbf_cross(model.support_vectors, X, model.gamma)
    return (model.alphas * model.labels) @ K + model.bias


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
    every fold skipped is an error. Each fold's squared distances are
    computed once, each (fold, gamma) Gram matrix once, and every C is
    solved on that Gram.
    """
    from .evaluation import roc_auc, stratified_kfold

    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y01 = np.asarray(y)
    y01 = np.where(y01 == 1, 1, 0)
    counts = np.bincount(y01, minlength=2)
    if counts.min() >= n_folds:
        fold_index = stratified_kfold(y01, n_folds, seed).fold_index
    else:
        rng = np.random.default_rng(seed)
        fold_index = rng.permutation(len(y01)) % n_folds

    results: dict[tuple[float, float], list[float]] = {
        (C, gamma): [] for C in grid.c_values for gamma in grid.gamma_values
    }
    for f in range(n_folds):
        test = fold_index == f
        train = ~test
        if len(np.unique(y01[train])) < 2 or len(np.unique(y01[test])) < 2:
            log.warning("grid_search: fold %d skipped (single class)", f)
            continue
        X_train, y_train = X[train], _as_pm1(y01[train])
        d2 = _sq_dists(X_train, X_train)
        for gamma in grid.gamma_values:
            K = _gram_from_sq(d2, gamma)
            for C in grid.c_values:
                model = _fit(X_train, y_train, K, C, gamma, tol, max_passes)
                results[(C, gamma)].append(
                    roc_auc(svm_decision(model, X[test]), y01[test])
                )
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


def save_svm(model: SvmModel, path: str) -> None:
    doc = {
        "version": SERIAL_VERSION,
        "C": model.C,
        "gamma": model.gamma,
        "bias": model.bias,
        "converged": model.converged,
        "supports": [
            {"alpha": float(a), "label": int(l), "vector": v.tolist()}
            for a, l, v in zip(model.alphas, model.labels, model.support_vectors)
        ],
    }
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_svm(path: str) -> SvmModel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("version") != SERIAL_VERSION:
        raise ValueError(f"unsupported model version: {doc.get('version')}")
    supports = doc["supports"]
    d = len(supports[0]["vector"]) if supports else 0
    return SvmModel(
        support_vectors=np.array([s["vector"] for s in supports], dtype=np.float64).reshape(len(supports), d),
        alphas=np.array([s["alpha"] for s in supports], dtype=np.float64),
        labels=np.array([s["label"] for s in supports], dtype=np.float64),
        bias=doc["bias"],
        gamma=doc["gamma"],
        C=doc["C"],
        converged=doc.get("converged", True),
    )
