"""The predictor: a tree ensemble fitted on the pair space and an RBF SVM
trained on the ensemble's leaf indices (see ``boost`` and ``svm``). The CV
folds, the ranking and the holdout check all fit it with ``fit`` and score
it with ``Model.score``; ``select`` gives the SVM point ``fit`` would take,
without training the SVM. The (C, gamma) grid search is here too: every SVM
fit, a grid cell's included, is one ``svm.smo_train`` call.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from .boost import GbdtEnsemble, gbdt_fit, gbdt_leaf_encode
from .svm import SvmModel, gamma_value, kernel_table, shared_leaves, smo_train, svm_decision
from .util import derive_seed

log = logging.getLogger(__name__)


class SvmParams(NamedTuple):
    """One (C, gamma) point. ``gamma`` is a number or the literal "1/d",
    which resolves only once the tree ensemble fixes its leaf count."""

    c: float
    gamma: float | str


class Model(NamedTuple):
    ens: GbdtEnsemble
    svm: SvmModel
    params: SvmParams

    def score(self, left, right, pairs) -> np.ndarray:
        """Decision values of ``pairs`` in the pair space of ``left`` and
        ``right``. The SVM sees only leaf indices, so it scores each distinct
        leaf pattern once: each pattern's row of leaf indices, viewed as one
        opaque byte string, is its key, and its score is scattered back to
        the pairs that share it. A pair's score does not depend on the
        others scored with it."""
        leaves = gbdt_leaf_encode(self.ens, left, right, pairs)  # C-contiguous
        rows = leaves.view(np.dtype((np.void, leaves.itemsize * leaves.shape[1])))
        _, first, key = np.unique(rows[:, 0], return_index=True, return_inverse=True)
        return svm_decision(self.svm, leaves[first])[key]


def single_cell(cfg) -> SvmParams | None:
    """The configured (C, gamma) when the SVM grid has one cell, else None:
    a grid search picks the point."""
    if len(cfg.svm_c) == 1 and len(cfg.svm_gamma) == 1:
        return SvmParams(float(cfg.svm_c[0]), cfg.svm_gamma[0])
    return None


def _ensemble(left, right, pairs, labels, cfg):
    """The tree ensemble fitted on ``pairs`` and their leaf indices."""
    return gbdt_fit(
        left, right, pairs, labels, n_trees=cfg.n_trees,
        learning_rate=cfg.learning_rate, max_depth=cfg.max_depth,
        min_samples_leaf=cfg.min_samples_leaf,
    )


def grid_search(
    X, y, c_values, gamma_values, n_folds: int = 5, seed: int = 0, tol: float = 1e-3,
    max_passes: int = 100,
):
    """Pick (C, gamma) from ``c_values`` x ``gamma_values``, each a list of
    distinct values, by mean fold ROC-AUC of the SVM's decision values on
    the leaf rows ``X``.

    The folds are the CV's (``stratified_kfold``), so each class needs
    ``n_folds`` rows; with fewer it raises ``DataError`` before any fit.
    Ties fall to the smaller C, then the smaller gamma. Each fold's
    shared-leaf counts are computed once, training x training and test x
    training; each (fold, gamma) Gram matrix once, from one kernel table,
    and every C is solved on that Gram and the training counts, from which
    the solver reads its curvatures. A cell's test rows are scored from
    the support vectors' columns of the test counts.
    """
    # here, not at module top: a fit at one SVM point computes no metric
    from .evaluation import roc_auc, stratified_kfold

    X = np.atleast_2d(np.asarray(X))
    y01 = np.where(np.asarray(y) == 1, 1, 0)
    fold_index = stratified_kfold(y01, n_folds, seed)
    results = {(C, gamma): [] for C in c_values for gamma in gamma_values}
    for f in range(n_folds):
        test = fold_index == f
        X_train, y_train, X_test = X[~test], y01[~test], X[test]
        shared = shared_leaves(X_train, X_train)
        shared_test = shared_leaves(X_test, X_train)
        for gamma in gamma_values:
            K = kernel_table(X.shape[1], gamma)[shared]
            for C in c_values:
                svm = smo_train(
                    X_train, y_train, C, gamma, tol, max_passes, gram=K, shared=shared
                )
                scores = svm_decision(svm, X_test, shared_test[:, svm.support])
                results[(C, gamma)].append(roc_auc(scores, y01[test]))
    _, best_c, best_gamma = min(
        (-float(np.mean(scores)), C, gamma) for (C, gamma), scores in results.items()
    )
    return best_c, best_gamma, results


def _grid_pick(ens: GbdtEnsemble, leaves, labels, cfg) -> SvmParams:
    """The (C, gamma) a grid search over ``cfg``'s SVM grid picks on the
    leaf indices ``leaves`` of ``ens``. A grid whose "1/d" resolves to
    another listed gamma can leave one cell, which is taken unsearched."""
    cs = sorted(set(map(float, cfg.svm_c)))
    gammas = sorted({gamma_value(g, ens.total_leaves) for g in cfg.svm_gamma})
    if len(cs) == len(gammas) == 1:
        return SvmParams(cs[0], gammas[0])
    best_c, best_gamma, _scores = grid_search(
        leaves, labels, cs, gammas, n_folds=cfg.n_folds,
        seed=derive_seed(cfg.seed, "grid-search"), tol=cfg.svm_tol,
        max_passes=cfg.svm_max_passes,
    )
    log.info("grid search chose C=%g gamma=%g", best_c, best_gamma)
    return SvmParams(best_c, best_gamma)


def select(left, right, pairs, labels, cfg) -> SvmParams:
    """The SVM point ``fit`` would take on the same arguments without
    ``params``, with no SVM trained at it: ``single_cell(cfg)``, or else
    the pick of a grid search on the leaf indices of the ensemble fitted
    on ``pairs``."""
    params = single_cell(cfg)
    if params is None:
        ens, leaves = _ensemble(left, right, pairs, labels, cfg)
        params = _grid_pick(ens, leaves, labels, cfg)
    return params


def fit(left, right, pairs, labels, cfg, params: SvmParams | None = None) -> Model:
    """Fit the tree ensemble on ``pairs`` of the pair space of ``left`` and
    ``right``, then the SVM on their leaf indices at ``params``. Without
    ``params`` the SVM takes ``single_cell(cfg)``, or the pick of a grid
    search on those leaf indices (as ``select`` picks it)."""
    ens, leaves = _ensemble(left, right, pairs, labels, cfg)
    params = params or single_cell(cfg) or _grid_pick(ens, leaves, labels, cfg)
    svm = smo_train(
        leaves, labels, C=params.c, gamma=gamma_value(params.gamma, ens.total_leaves),
        tol=cfg.svm_tol, max_passes=cfg.svm_max_passes,
    )
    return Model(ens, svm, params)
