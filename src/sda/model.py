"""The predictor: a tree ensemble fitted on the pair space and an RBF SVM
trained on the ensemble's leaf indices (see ``boost`` and ``svm``). The CV
folds, the ranking and the holdout check all fit it with ``fit`` and score
it with ``Model.score``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .boost import GbdtEnsemble, gbdt_fit, gbdt_leaf_encode
from .svm import ParamGrid, SvmModel, gamma_value, grid_search, smo_train, svm_decision
from .util import derive_seed

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SvmParams:
    """One (C, gamma) point. ``gamma`` is a number or the literal "1/d",
    which resolves only once the tree ensemble fixes its leaf count."""

    c: float
    gamma: float | str

    def gamma_for(self, total_leaves: int) -> float:
        return gamma_value(self.gamma, total_leaves)


@dataclass(frozen=True)
class Model:
    ens: GbdtEnsemble
    svm: SvmModel
    params: SvmParams

    def score(self, left, right, pairs) -> np.ndarray:
        """Decision values of ``pairs`` in the pair space of ``left`` and
        ``right``. The SVM sees only leaf indices, so it scores each distinct
        leaf pattern once: every pattern gets one integer key, folded tree
        by tree, and its score is scattered back to the pairs that share it.
        A pair's score does not depend on the others scored with it."""
        leaves = gbdt_leaf_encode(self.ens, left, right, pairs)
        key = np.zeros(len(leaves), dtype=np.int64)
        for column in leaves.T:  # key < len(pairs), so key * width + column fits
            _, first, key = np.unique(
                key * self.ens.total_leaves + column, return_index=True, return_inverse=True
            )
        return svm_decision(self.svm, leaves[first])[key]


def single_cell(cfg) -> SvmParams | None:
    """The configured (C, gamma) when the SVM grid has one cell, else None:
    a grid search picks the point."""
    if len(cfg.svm_c) == 1 and len(cfg.svm_gamma) == 1:
        return SvmParams(float(cfg.svm_c[0]), cfg.svm_gamma[0])
    return None


def fit(left, right, pairs, labels, cfg, params: SvmParams | None = None) -> Model:
    """Fit the tree ensemble on ``pairs`` of the pair space of ``left`` and
    ``right``, then the SVM on their leaf indices at ``params``. Without
    ``params`` the SVM takes ``single_cell(cfg)``, or the pick of a grid
    search on those leaf indices."""
    ens, leaves = gbdt_fit(
        left, right, pairs, labels, n_trees=cfg.n_trees,
        learning_rate=cfg.learning_rate, max_depth=cfg.max_depth,
        min_samples_leaf=cfg.min_samples_leaf,
    )
    params = params or single_cell(cfg)
    if params is None:
        gammas = sorted({gamma_value(g, ens.total_leaves) for g in cfg.svm_gamma})
        grid = ParamGrid(c_values=sorted(set(map(float, cfg.svm_c))), gamma_values=gammas)
        best_c, best_gamma, _scores = grid_search(
            leaves, labels, grid, n_folds=cfg.n_folds,
            seed=derive_seed(cfg.seed, "grid-search"), tol=cfg.svm_tol,
            max_passes=cfg.svm_max_passes,
        )
        log.info("grid search chose C=%g gamma=%g", best_c, best_gamma)
        params = SvmParams(best_c, best_gamma)
    svm = smo_train(
        leaves, labels, C=params.c, gamma=params.gamma_for(ens.total_leaves),
        tol=cfg.svm_tol, max_passes=cfg.svm_max_passes,
    )
    return Model(ens, svm, params)

