"""End-to-end orchestration shared by the CLI subcommands: data preparation,
model fitting, cross-validated evaluation, candidate ranking, and holdout
recovery checks. One master seed governs every stochastic stage through
deterministic per-stage derivation.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import corpus, sampling, similarity
from .boost import GbdtEnsemble, gbdt_fit, gbdt_leaf_encode
from .config import PipelineConfig
from .errors import ConfigError, DataError
from .evaluation import MetricsReport, run_cv
from .svm import ParamGrid, SvmModel, grid_search, smo_train, svm_decision
from .util import atomic_write_text, derive_seed, fmt_float

log = logging.getLogger(__name__)


@dataclass
class PreparedData:
    """Everything the evaluation and ranking stages need, fully assembled."""

    am: corpus.AssociationMatrix
    descriptor: corpus.DatasetDescriptor
    sfs: similarity.SimilarityMatrix  # base snoRNA similarity (may be partial)
    dss: similarity.SimilarityMatrix  # base disease similarity (may be partial)
    msfs: similarity.SimilarityMatrix
    mdss: similarity.SimilarityMatrix
    positives: list[tuple[int, int]]
    negatives: list[tuple[int, int]]
    pairs: list[tuple[int, int]]  # balanced: positives then selected negatives
    labels: np.ndarray
    features: np.ndarray
    k_used: int
    gamma_prime_snorna: float = 1.0
    gamma_prime_disease: float = 1.0

    def strict_fold_features(self, test_idx: np.ndarray) -> np.ndarray:
        """Pair features with interaction profiles rebuilt from training-fold
        positives only, so no test association leaks into the kernel."""
        return _strict_fold_features(
            self.am, self.sfs, self.dss, self.gamma_prime_snorna,
            self.gamma_prime_disease, self.pairs, self.labels, test_idx,
        )


def _strict_fold_features(
    am, sfs, dss, gamma_prime_snorna, gamma_prime_disease, pairs, labels, test_idx
) -> np.ndarray:
    """Features of ``pairs`` with the GIP kernels recomputed after zeroing
    the known associations among the test pairs ``test_idx``."""
    ap = am.entries.astype(np.float64).copy()
    for i in test_idx:
        if labels[int(i)] == 1:
            s, d = pairs[int(i)]
            ap[s, d] = 0.0
    gip_s = similarity.gip_similarity(
        ap, similarity.gip_bandwidth(ap, gamma_prime_snorna), am.snorna_ids
    )
    gip_d = similarity.gip_similarity(
        ap.T, similarity.gip_bandwidth(ap.T, gamma_prime_disease), am.disease_ids
    )
    msfs = similarity.mesh_similarity(sfs, gip_s)
    mdss = similarity.mesh_similarity(dss, gip_d)
    return sampling.assemble_feature_matrix(msfs, mdss, pairs)


@dataclass
class RankedPrediction:
    disease_id: str
    snorna_id: str
    score: float
    rank: int


def _unavailable_matrix(ids: list[str]) -> similarity.SimilarityMatrix:
    n = len(ids)
    return similarity.SimilarityMatrix(
        list(ids), np.zeros((n, n)), np.zeros((n, n), dtype=bool)
    )


def _base_similarities(cfg: PipelineConfig, am: corpus.AssociationMatrix):
    if cfg.feature_path:
        ft = corpus.load_feature_table(cfg.feature_path, strict=cfg.strict)
        corpus.check_feature_alignment(ft, am, strict=cfg.strict)
        sfs = similarity.snorna_functional_similarity(ft, ids=am.snorna_ids)
    else:
        log.info("no feature table given; snoRNA base similarity unavailable")
        sfs = _unavailable_matrix(am.snorna_ids)

    if cfg.disease_similarity_path:
        loaded = similarity.load_similarity_matrix(cfg.disease_similarity_path)
        missing = [d for d in am.disease_ids if d not in set(loaded.ids)]
        if missing:
            log.warning(
                "disease similarity file missing %d id(s); their pairs fall back "
                "to the interaction-profile kernel", len(missing),
            )
        dss = similarity.reindex(loaded, am.disease_ids)
    elif cfg.dag_path:
        dag = corpus.load_disease_dag(cfg.dag_path, strict=cfg.strict)
        dss = similarity.disease_semantic_similarity(dag, cfg.delta, ids=am.disease_ids)
    else:
        log.info("no disease DAG or similarity given; disease base similarity unavailable")
        dss = _unavailable_matrix(am.disease_ids)
    return sfs, dss


def prepare(cfg: PipelineConfig) -> PreparedData:
    """Load inputs from the configured paths, then build the balanced set.

    With ``prepared_dir`` set, the meshed similarity matrices and balanced
    pair list written by a previous prepare run are loaded instead of being
    recomputed (pair features are re-derived from the matrices, never stored).
    """
    if not cfg.association_path:
        raise DataError("association_path is required")
    am = corpus.load_association_matrix(cfg.association_path, strict=cfg.strict)
    if cfg.prepared_dir:
        return load_prepared(am, cfg)
    return prepare_from_matrix(am, cfg)


def load_prepared(am: corpus.AssociationMatrix, cfg: PipelineConfig) -> PreparedData:
    """Rebuild PreparedData from a prepare run's artifacts."""
    if cfg.mode == "strict-folds":
        raise ConfigError(
            "prepared_dir reuse supports paper-faithful mode only; strict-folds "
            "needs the base similarities to rebuild kernels per fold"
        )
    msfs = similarity.load_similarity_matrix(os.path.join(cfg.prepared_dir, "MSFS.csv"))
    mdss = similarity.load_similarity_matrix(os.path.join(cfg.prepared_dir, "MDSS.csv"))
    if msfs.ids != am.snorna_ids or mdss.ids != am.disease_ids:
        raise DataError("prepared similarity matrices do not match the association matrix ids")

    pairs_path = os.path.join(cfg.prepared_dir, "balanced_pairs.csv")
    if not os.path.exists(pairs_path):
        raise DataError(f"file not found: {pairs_path}")
    s_index = {s: i for i, s in enumerate(am.snorna_ids)}
    d_index = {d: i for i, d in enumerate(am.disease_ids)}
    pairs: list[tuple[int, int]] = []
    labels: list[int] = []
    with open(pairs_path, encoding="utf-8") as fh:
        next(fh)  # header
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            snorna_id, disease_id, label = line.split(",")
            if snorna_id not in s_index or disease_id not in d_index:
                raise DataError(f"{pairs_path}:{lineno}: unknown id in pair")
            pairs.append((s_index[snorna_id], d_index[disease_id]))
            labels.append(int(label))

    positives, negatives = corpus.split_known_unknown(am)
    return PreparedData(
        am=am,
        descriptor=corpus.DatasetDescriptor.from_matrix(cfg.dataset_name, am),
        sfs=_unavailable_matrix(am.snorna_ids),
        dss=_unavailable_matrix(am.disease_ids),
        msfs=msfs,
        mdss=mdss,
        positives=positives,
        negatives=negatives,
        pairs=pairs,
        labels=np.asarray(labels, dtype=int),
        features=sampling.assemble_feature_matrix(msfs, mdss, pairs),
        k_used=cfg.k,
        gamma_prime_snorna=cfg.gamma_prime_snorna,
        gamma_prime_disease=cfg.gamma_prime_disease,
    )


def prepare_from_matrix(am: corpus.AssociationMatrix, cfg: PipelineConfig) -> PreparedData:
    """Build meshed similarities and the cluster-balanced training set."""
    descriptor = corpus.DatasetDescriptor.from_matrix(cfg.dataset_name, am)
    positives, negatives = corpus.split_known_unknown(am)
    if not positives:
        raise DataError("association matrix has no known associations to learn from")
    if not negatives:
        raise DataError("association matrix has no unknown pairs to sample from")
    if len(positives) > len(negatives):
        raise DataError(
            "cannot balance: more known associations than unknown pairs"
        )

    sfs, dss = _base_similarities(cfg, am)
    ap = am.entries.astype(np.float64)
    gip_s = similarity.gip_similarity(
        ap, similarity.gip_bandwidth(ap, cfg.gamma_prime_snorna), am.snorna_ids
    )
    gip_d = similarity.gip_similarity(
        ap.T, similarity.gip_bandwidth(ap.T, cfg.gamma_prime_disease), am.disease_ids
    )
    msfs = similarity.mesh_similarity(sfs, gip_s)
    mdss = similarity.mesh_similarity(dss, gip_d)

    neg_features = sampling.assemble_feature_matrix(msfs, mdss, negatives)
    pos_features = sampling.assemble_feature_matrix(msfs, mdss, positives)
    n_pos = len(positives)

    k = cfg.k
    if cfg.k_range:
        k = _choose_k(
            cfg, am, sfs, dss, msfs, mdss, positives, negatives, neg_features, pos_features
        )
        log.info("choose_k selected k=%d from %s", k, list(cfg.k_range))
    if k > len(negatives):
        raise DataError(f"k={k} exceeds the number of unknown pairs ({len(negatives)})")

    clustering = sampling.kmeans(neg_features, k, seed=derive_seed(cfg.seed, "kmeans"))
    selected = sampling.select_negatives(
        clustering, negatives, n_pos, seed=derive_seed(cfg.seed, "select-negatives")
    )
    pairs = list(positives) + list(selected)
    labels = np.concatenate([np.ones(n_pos, dtype=int), np.zeros(n_pos, dtype=int)])
    features = np.vstack(
        [pos_features, sampling.assemble_feature_matrix(msfs, mdss, selected)]
    )
    log.info(
        "prepared %s: %d positives + %d sampled negatives (k=%d)",
        descriptor.name, n_pos, n_pos, k,
    )
    return PreparedData(
        am=am, descriptor=descriptor, sfs=sfs, dss=dss, msfs=msfs, mdss=mdss,
        positives=positives, negatives=negatives, pairs=pairs, labels=labels,
        features=features, k_used=k,
        gamma_prime_snorna=cfg.gamma_prime_snorna,
        gamma_prime_disease=cfg.gamma_prime_disease,
    )


def _choose_k(
    cfg, am, sfs, dss, msfs, mdss, positives, negatives, neg_features, pos_features
):
    """Candidate-k evaluation via a cheap CV on each balanced set.

    Uses the middle grid entries for the SVM when the grid is unresolved;
    the full grid search (if any) runs after k is fixed. In strict-folds mode
    the probe CV rebuilds its folds' features over its own pairs.
    """
    n_pos = len(positives)
    labels = np.concatenate([np.ones(n_pos, dtype=int), np.zeros(n_pos, dtype=int)])
    probe_cfg = replace(
        cfg,
        chosen_c=float(cfg.svm_c[len(cfg.svm_c) // 2]),
        chosen_gamma=cfg.svm_gamma[len(cfg.svm_gamma) // 2],
    )

    def evaluator(k: int, picked: list[tuple[int, int]]):
        feats = np.vstack(
            [pos_features, sampling.assemble_feature_matrix(msfs, mdss, picked)]
        )
        fold_features = None
        if cfg.mode == "strict-folds":
            fold_features = partial(
                _strict_fold_features, am, sfs, dss, cfg.gamma_prime_snorna,
                cfg.gamma_prime_disease, list(positives) + list(picked), labels,
            )
        report = run_cv(feats, labels, probe_cfg, fold_features)
        return report.mean["roc_auc"], report.mean["mse"]

    return sampling.choose_k(
        neg_features,
        negatives,
        cfg.k_range,
        evaluator,
        n_pos,
        seed=derive_seed(cfg.seed, "choose-k"),
    )


def fit_full_gbdt(
    prepared: PreparedData, cfg: PipelineConfig
) -> tuple[GbdtEnsemble, np.ndarray]:
    """The tree ensemble fitted on the whole balanced set, and the set's leaf
    encoding. The grid search and the final model share this one fit."""
    ens = gbdt_fit(
        prepared.features,
        prepared.labels,
        n_trees=cfg.n_trees,
        learning_rate=cfg.learning_rate,
        max_depth=cfg.max_depth,
        min_samples_leaf=cfg.min_samples_leaf,
        seed=derive_seed(cfg.seed, "gbdt-final"),
    )
    return ens, gbdt_leaf_encode(ens, prepared.features)


def resolve_svm_params(
    prepared: PreparedData,
    cfg: PipelineConfig,
    full: tuple[GbdtEnsemble, np.ndarray] | None = None,
) -> None:
    """Fill cfg.chosen_c / cfg.chosen_gamma, running the grid search once on
    the full balanced set's leaf encodings when the grid has several cells.
    ``full`` is the output of ``fit_full_gbdt``, fitted here when not given."""
    if not cfg.needs_grid_search:
        cfg.chosen_c = cfg.resolved_c
        cfg.chosen_gamma = cfg.gamma_setting
        return
    _ens, enc = full if full is not None else fit_full_gbdt(prepared, cfg)
    dim = enc.shape[1]
    gammas = sorted({1.0 / dim if g == "1/d" else float(g) for g in cfg.svm_gamma})
    grid = ParamGrid(c_values=sorted(set(map(float, cfg.svm_c))), gamma_values=gammas)
    best_c, best_gamma, _scores = grid_search(
        enc,
        prepared.labels,
        grid,
        n_folds=cfg.n_folds,
        seed=derive_seed(cfg.seed, "grid-search"),
        tol=cfg.svm_tol,
        max_passes=cfg.svm_max_passes,
    )
    cfg.chosen_c = best_c
    cfg.chosen_gamma = best_gamma
    log.info("grid search chose C=%g gamma=%g", best_c, best_gamma)


def evaluate(
    prepared: PreparedData,
    cfg: PipelineConfig,
    full: tuple[GbdtEnsemble, np.ndarray] | None = None,
) -> MetricsReport:
    """Resolve SVM hyperparameters, then run the stratified CV."""
    resolve_svm_params(prepared, cfg, full)
    fold_features = prepared.strict_fold_features if cfg.mode == "strict-folds" else None
    return run_cv(prepared.features, prepared.labels, cfg, fold_features)


def train_final(
    prepared: PreparedData,
    cfg: PipelineConfig,
    full: tuple[GbdtEnsemble, np.ndarray] | None = None,
) -> tuple[GbdtEnsemble, SvmModel]:
    """Fit the ranking model on 100% of the balanced set, reusing ``full``
    (from ``fit_full_gbdt``) when given."""
    ens, enc = full if full is not None else fit_full_gbdt(prepared, cfg)
    resolve_svm_params(prepared, cfg, (ens, enc))
    model = smo_train(
        enc,
        prepared.labels,
        C=cfg.resolved_c,
        gamma=cfg.resolve_gamma(enc.shape[1]),
        tol=cfg.svm_tol,
        max_passes=cfg.svm_max_passes,
    )
    return ens, model


def score_pairs(
    prepared: PreparedData,
    ens: GbdtEnsemble,
    model: SvmModel,
    pairs: list[tuple[int, int]],
    chunk: int = 4096,
) -> np.ndarray:
    """Decision values for arbitrary pairs, assembled and scored in chunks."""
    scores = np.empty(len(pairs))
    for start in range(0, len(pairs), chunk):
        block = pairs[start : start + chunk]
        feats = sampling.assemble_feature_matrix(prepared.msfs, prepared.mdss, block)
        scores[start : start + len(block)] = svm_decision(
            model, gbdt_leaf_encode(ens, feats)
        )
    return scores


def rank_candidates(
    prepared: PreparedData,
    cfg: PipelineConfig,
    models: tuple[GbdtEnsemble, SvmModel] | None = None,
) -> tuple[list[RankedPrediction], list[str]]:
    """Top-k unknown pairs per disease by decision score.

    Unknown pairs used as balancing negatives are still scored (they remain
    candidates); only known positives are excluded. Returns the predictions
    sorted by (disease_id, rank) and the diseases with no unknown pairs left.
    """
    ens, model = models if models is not None else train_final(prepared, cfg)
    candidates = prepared.negatives
    scores = score_pairs(prepared, ens, model, candidates)

    by_disease: dict[int, list[tuple[float, int]]] = {}
    for idx, (s, d) in enumerate(candidates):
        by_disease.setdefault(d, []).append((float(scores[idx]), s))

    predictions: list[RankedPrediction] = []
    exhausted: list[str] = []
    for d_idx, disease_id in sorted(
        enumerate(prepared.am.disease_ids), key=lambda t: t[1]
    ):
        entries = by_disease.get(d_idx)
        if not entries:
            exhausted.append(disease_id)
            continue
        entries.sort(key=lambda t: (-t[0], prepared.am.snorna_ids[t[1]]))
        for rank, (score, s_idx) in enumerate(entries[: cfg.top_k], start=1):
            predictions.append(
                RankedPrediction(disease_id, prepared.am.snorna_ids[s_idx], score, rank)
            )
    return predictions, exhausted


def holdout_inference_check(cfg: PipelineConfig) -> dict:
    """Remove a seeded fraction of known positives, retrain, and measure how
    highly the held-out pairs score among each disease's unknowns."""
    if not cfg.association_path:
        raise DataError("association_path is required")
    am = corpus.load_association_matrix(cfg.association_path, strict=cfg.strict)
    positives, _ = corpus.split_known_unknown(am)
    n_hold = int(round(cfg.holdout_fraction * len(positives)))
    if n_hold < 1:
        raise ConfigError(
            f"holdout of {cfg.holdout_fraction:.2%} of {len(positives)} positives is empty"
        )
    rng = np.random.default_rng(derive_seed(cfg.seed, "holdout"))
    held_idx = rng.choice(len(positives), size=n_hold, replace=False)
    held = [positives[i] for i in sorted(held_idx.tolist())]

    reduced = corpus.AssociationMatrix(am.snorna_ids, am.disease_ids, am.entries.copy())
    for s, d in held:
        reduced.entries[s, d] = 0

    excluded = sorted(
        {am.disease_ids[d] for _, d in held if reduced.entries[:, d].sum() == 0}
    )
    for disease_id in excluded:
        log.warning(
            "holdout emptied positives of disease '%s'; excluded from report", disease_id
        )

    # a fresh copy: the grid search reruns on the reduced set
    hold_cfg = replace(cfg, chosen_c=None, chosen_gamma=None)
    prepared = prepare_from_matrix(reduced, hold_cfg)
    ens, model = train_final(prepared, hold_cfg)
    candidates = prepared.negatives  # includes the held-out pairs
    scores = score_pairs(prepared, ens, model, candidates)

    by_disease: dict[int, list[int]] = {}
    for idx, (_s, d) in enumerate(candidates):
        by_disease.setdefault(d, []).append(idx)
    cand_index = {pair: i for i, pair in enumerate(candidates)}

    rows = []
    for s, d in held:
        disease_id = am.disease_ids[d]
        if disease_id in excluded:
            continue
        idxs = by_disease[d]
        disease_scores = scores[idxs]
        mine = scores[cand_index[(s, d)]]
        below = int((disease_scores < mine).sum())
        ties = int((disease_scores == mine).sum())
        percentile = 100.0 * (below + 0.5 * ties) / len(idxs)
        rank = int((disease_scores > mine).sum()) + 1
        rows.append(
            {
                "snorna_id": am.snorna_ids[s],
                "disease_id": disease_id,
                "score": float(mine),
                "percentile": percentile,
                "rank_in_disease": rank,
                "n_candidates": len(idxs),
                "in_top_k": rank <= cfg.top_k,
            }
        )
    if not rows:
        raise DataError("holdout produced no scorable held-out pairs")
    return {
        "holdout_fraction": cfg.holdout_fraction,
        "seed": cfg.seed,
        "top_k": cfg.top_k,
        "n_held_out": n_hold,
        "n_reported": len(rows),
        "excluded_diseases": excluded,
        "mean_percentile": float(np.mean([r["percentile"] for r in rows])),
        "fraction_in_top_k": float(np.mean([1.0 if r["in_top_k"] else 0.0 for r in rows])),
        "pairs": rows,
    }


# ---------------------------------------------------------------------------
# artifact writers


def write_prepared(prepared: PreparedData, out_dir: str) -> list[str]:
    msfs_path = os.path.join(out_dir, "MSFS.csv")
    mdss_path = os.path.join(out_dir, "MDSS.csv")
    pairs_path = os.path.join(out_dir, "balanced_pairs.csv")
    similarity.save_similarity_matrix(prepared.msfs, msfs_path)
    similarity.save_similarity_matrix(prepared.mdss, mdss_path)
    lines = ["snorna_id,disease_id,label"]
    for (s, d), label in zip(prepared.pairs, prepared.labels):
        lines.append(
            f"{prepared.am.snorna_ids[s]},{prepared.am.disease_ids[d]},{int(label)}"
        )
    atomic_write_text(pairs_path, "\n".join(lines) + "\n")
    return [msfs_path, mdss_path, pairs_path]


def write_report(report: MetricsReport, out_dir: str) -> list[str]:
    report_path = os.path.join(out_dir, "report.json")
    atomic_write_text(
        report_path, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    roc_path = os.path.join(out_dir, "roc_points.csv")
    atomic_write_text(
        roc_path,
        "far,tar\n"
        + "".join(f"{fmt_float(x)},{fmt_float(y)}\n" for x, y in report.roc_curve),
    )
    pr_path = os.path.join(out_dir, "pr_points.csv")
    atomic_write_text(
        pr_path,
        "recall,precision\n"
        + "".join(f"{fmt_float(x)},{fmt_float(y)}\n" for x, y in report.pr_curve),
    )
    return [report_path, roc_path, pr_path]


def write_rankings(predictions: list[RankedPrediction], out_dir: str) -> str:
    path = os.path.join(out_dir, "rankings.csv")
    lines = ["disease_id,snorna_id,score,rank"]
    for p in predictions:
        lines.append(f"{p.disease_id},{p.snorna_id},{fmt_float(p.score)},{p.rank}")
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path
