"""End-to-end orchestration shared by the CLI subcommands: data preparation,
model fitting, cross-validated evaluation, candidate ranking, and holdout
recovery checks. One master seed governs every stochastic stage through
deterministic per-stage derivation.
"""

from __future__ import annotations

import logging
import os
import random
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import corpus, sampling, similarity
from .config import PipelineConfig
from .errors import ConfigError, DataError
from .model import Model, SvmParams, fit, select
from .util import atomic_write_text, derive_seed, fmt_float

if TYPE_CHECKING:  # the measures load with the commands that take them
    from collections.abc import Callable

    from .evaluation import MetricsReport

log = logging.getLogger(__name__)


PAIRS_HEADER = ("snorna_id", "disease_id", "label")  # balanced_pairs.csv

# The files each stage writes into the output directory. The writers below
# and the loader of a prepare run's files take their paths from here, and
# the CLI checks these targets before a command starts. ``prepare.json``
# records the k a prepare run clustered with.
ARTIFACTS = {
    "prepare": ("MSFS.csv", "MDSS.csv", "balanced_pairs.csv", "prepare.json"),
    "evaluate": ("report.json", "roc_points.csv", "pr_points.csv"),
    "rank": ("rankings.csv",),
    "holdout": ("holdout_report.json",),
}


def _artifact_paths(stage: str, out_dir: str) -> list[str]:
    return [os.path.join(out_dir, name) for name in ARTIFACTS[stage]]


class PreparedData(NamedTuple):
    """Everything the evaluation and ranking stages need.

    The pair features are never assembled: pair (a, b) stands for the
    snoRNA's row of ``msfs`` next to the disease's column of ``mdss``, the
    pair space of ``tables``.
    """

    am: corpus.AssociationMatrix
    sfs: np.ndarray | None  # base snoRNA similarity (nan where undefined), if any
    dss: np.ndarray | None  # base disease similarity (nan where undefined), if any
    msfs: np.ndarray  # fused snoRNA similarity, in ``am``'s snoRNA order
    mdss: np.ndarray  # fused disease similarity, in ``am``'s disease order
    negatives: np.ndarray  # the unknown cells: (n, 2) rows (snoRNA, disease), row-major
    pairs: np.ndarray  # balanced: positives then selected negatives
    labels: np.ndarray
    k_used: int

    @property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The pair space's left (snoRNA) and right (disease) entity tables."""
        return self.msfs, self.mdss.T

    def strict_fold_tables(
        self, test_idx: np.ndarray, cfg: PipelineConfig
    ) -> tuple[np.ndarray, np.ndarray]:
        """``tables`` with interaction profiles rebuilt from training-fold
        positives only: the GIP kernels (at ``cfg``'s bandwidth scales) are
        recomputed after zeroing the known associations among the test
        pairs ``test_idx``, so no test association leaks into the kernel."""
        ap = self.am.entries.astype(np.float64)
        held = self.pairs[test_idx][self.labels[test_idx] == 1]
        ap[held[:, 0], held[:, 1]] = 0.0
        msfs, mdss = _meshed(
            ap, self.sfs, self.dss, cfg.gamma_prime_snorna, cfg.gamma_prime_disease
        )
        return msfs, mdss.T


def _meshed(ap, sfs, dss, gamma_prime_s, gamma_prime_d):
    """MSFS and MDSS: the base similarities ``sfs`` and ``dss`` meshed with
    the GIP kernels of the interaction profiles ``ap`` (snoRNA rows) and
    ``ap.T`` (disease rows); a ``None`` base meshes to its GIP kernel."""
    gip_s = similarity.gip_similarity(ap, similarity.gip_bandwidth(ap, gamma_prime_s))
    gip_d = similarity.gip_similarity(ap.T, similarity.gip_bandwidth(ap.T, gamma_prime_d))
    return similarity.mesh_similarity(sfs, gip_s), similarity.mesh_similarity(dss, gip_d)


class RankedPrediction(NamedTuple):
    disease_id: str
    snorna_id: str
    score: float
    rank: int


def _base_similarities(cfg: PipelineConfig, am: corpus.AssociationMatrix):
    if cfg.feature_path:
        ft = corpus.load_feature_table(cfg.feature_path)
        corpus.check_feature_alignment(ft, am, strict=cfg.strict)
        sfs = similarity.snorna_functional_similarity(ft, ids=am.snorna_ids)
    else:
        log.info("no feature table given; snoRNA base similarity unavailable")
        sfs = None

    if cfg.disease_similarity_path:
        ids, values = similarity.load_similarity_matrix(cfg.disease_similarity_path)
        missing = len(set(am.disease_ids).difference(ids))
        if missing:
            corpus._warn(
                f"disease similarity file missing {missing} id(s); their pairs "
                "fall back to the interaction-profile kernel",
                cfg.strict,
            )
        dss = similarity.reindex(ids, values, am.disease_ids)
    elif cfg.dag_path:
        dag = corpus.load_disease_dag(cfg.dag_path)
        dss = similarity.disease_semantic_similarity(dag, cfg.delta, ids=am.disease_ids)
    else:
        log.info("no disease DAG or similarity given; disease base similarity unavailable")
        dss = None
    return sfs, dss


def prepare(cfg: PipelineConfig) -> PreparedData:
    """Load inputs from the configured paths, then build the balanced set.

    With ``prepared_dir`` set, the meshed similarity matrices and balanced
    pair list written by a previous prepare run are loaded instead of being
    recomputed (pairs are scored from the matrices; no pair features are stored).
    """
    am = _load_matrix(cfg)
    if cfg.prepared_dir:
        return load_prepared(am, cfg)
    return prepare_from_matrix(am, cfg)


def _load_matrix(cfg: PipelineConfig) -> corpus.AssociationMatrix:
    """The association matrix at ``cfg.association_path``."""
    if not cfg.association_path:
        raise DataError("association_path is required")
    return corpus.load_association_matrix(cfg.association_path, strict=cfg.strict)


def load_prepared(am: corpus.AssociationMatrix, cfg: PipelineConfig) -> PreparedData:
    """Rebuild PreparedData from a prepare run's artifacts. Every balanced
    pair must be listed once, with its cell's label in ``am``: a prepare run
    made before the association file changed would train on stale labels."""
    if cfg.mode == "strict-folds":
        raise ConfigError(
            "prepared_dir reuse supports paper-faithful mode only; strict-folds "
            "needs the base similarities to rebuild kernels per fold"
        )
    msfs_path, mdss_path, pairs_path, record_path = _artifact_paths(
        "prepare", cfg.prepared_dir
    )
    fused = []
    for path, am_ids in ((msfs_path, am.snorna_ids), (mdss_path, am.disease_ids)):
        ids, values = similarity.load_similarity_matrix(path)
        if ids != am_ids:
            raise DataError(
                f"{path}: prepared similarity ids do not match the association matrix ids"
            )
        if np.isnan(values).any():
            raise DataError(
                f"{similarity.mask_path(path)}: holds a 0, but a prepare run's "
                "fused similarities are defined at every pair"
            )
        fused.append(values)
    msfs, mdss = fused

    s_index = {s: i for i, s in enumerate(am.snorna_ids)}
    d_index = {d: i for i, d in enumerate(am.disease_ids)}
    pairs: list[tuple[int, int]] = []
    labels: list[int] = []
    listed: set[tuple[int, int]] = set()
    (line, header), *body = corpus.read_rows(pairs_path)
    if tuple(c.strip() for c in header) != PAIRS_HEADER:
        raise DataError(
            f"{pairs_path}:{line}: expected the header '{','.join(PAIRS_HEADER)}'"
        )
    for line, row in body:
        if len(row) != 3:
            raise DataError(f"{pairs_path}:{line}: row has {len(row)} cells, expected 3")
        snorna_id, disease_id, label = (c.strip() for c in row)
        if snorna_id not in s_index or disease_id not in d_index:
            raise DataError(f"{pairs_path}:{line}: unknown id in pair")
        if label not in ("0", "1"):
            raise DataError(f"{pairs_path}:{line}: label must be 0 or 1, got '{label}'")
        pair = (s_index[snorna_id], d_index[disease_id])
        if pair in listed:
            raise DataError(f"{pairs_path}:{line}: pair {snorna_id},{disease_id} listed twice")
        if int(label) != am.entries[pair]:
            raise DataError(
                f"{pairs_path}:{line}: pair {snorna_id},{disease_id} is labelled {label}, "
                f"but the association matrix has {am.entries[pair]} there"
            )
        listed.add(pair)
        pairs.append(pair)
        labels.append(int(label))
    if set(labels) != {0, 1}:
        raise DataError(f"{pairs_path}: needs rows of both labels, 0 and 1")

    _, negatives = corpus.split_known_unknown(am)
    return PreparedData(
        am=am, sfs=None, dss=None, msfs=msfs, mdss=mdss,
        negatives=negatives,
        pairs=np.array(pairs, dtype=np.int64),
        labels=np.asarray(labels, dtype=int),
        k_used=_load_k_used(record_path),
    )


def _load_k_used(path: str) -> int:
    """The cluster count a prepare run recorded in its ``prepare.json``."""
    import json  # here and in the other JSON helpers: a plain rank reads and writes none

    text = corpus.read_text(path)
    try:
        k = json.loads(text)["k"]
    except (ValueError, TypeError, KeyError) as exc:
        raise DataError(
            f"{path}: expected a JSON object with an integer 'k' ({exc})"
        ) from None
    if type(k) is not int or k < 1:
        raise DataError(f"{path}: 'k' must be a positive integer, got {k!r}")
    return k


def prepare_from_matrix(am: corpus.AssociationMatrix, cfg: PipelineConfig) -> PreparedData:
    """Build meshed similarities and the balanced set, its negatives drawn
    from ``cfg.k``'s one cluster count, or from the one ``_choose_k`` picks."""
    positives, negatives = corpus.split_known_unknown(am)
    if len(positives) == 0:
        raise DataError("association matrix has no known associations to learn from")
    if len(negatives) == 0:
        raise DataError("association matrix has no unknown pairs to sample from")
    if len(positives) > len(negatives):
        raise DataError(
            "cannot balance: more known associations than unknown pairs"
        )

    sfs, dss = _base_similarities(cfg, am)
    msfs, mdss = _meshed(
        am.entries.astype(np.float64), sfs, dss,
        cfg.gamma_prime_snorna, cfg.gamma_prime_disease,
    )

    def draw(k: int, seed: int, kmeans_label: str, select_label: str) -> PreparedData:
        """The balanced set of every positive and as many negatives, drawn
        from ``k`` k-means clusters of the unknown pairs. The clustering is
        seeded by ``kmeans_label`` and the per-cluster sampling by
        ``select_label``, each derived from ``seed``."""
        clustering = sampling.kmeans(
            msfs, mdss.T, negatives, k, seed=derive_seed(seed, kmeans_label)
        )
        selected = sampling.select_negatives(
            clustering, negatives, len(positives), seed=derive_seed(seed, select_label)
        )
        return PreparedData(
            am=am, sfs=sfs, dss=dss, msfs=msfs, mdss=mdss, negatives=negatives,
            pairs=np.concatenate([positives, selected]),
            labels=np.repeat([1, 0], len(positives)),  # as many negatives as positives
            k_used=k,
        )

    k = cfg.k[0]
    if len(cfg.k) > 1:
        k = _choose_k(draw, cfg)
        log.info("choose_k selected k=%d from %s", k, list(cfg.k))
    prepared = draw(k, cfg.seed, "kmeans", "select-negatives")
    log.info(
        "prepared %s: %d positives + %d sampled negatives (k=%d)",
        cfg.dataset_name, len(positives), len(positives), k,
    )
    return prepared


def _choose_k(draw: Callable[[int, int, str, str], PreparedData], cfg: PipelineConfig) -> int:
    """The entry of ``cfg.k`` whose balanced set, from
    ``draw(k, seed, kmeans_label, select_label)``, scores the highest mean
    ROC-AUC in a cheap CV; ties fall to the lower mean MSE, then to the
    smaller k.

    The cheap CV is ``evaluate`` with the SVM at the middle grid entries;
    the full grid search (if any) runs after k is fixed. In strict-folds
    mode the probe CV rebuilds its folds' tables over its own pairs.
    """
    probe = SvmParams(
        float(cfg.svm_c[len(cfg.svm_c) // 2]), cfg.svm_gamma[len(cfg.svm_gamma) // 2]
    )
    seed = derive_seed(cfg.seed, "choose-k")
    results = []
    for k in cfg.k:
        drawn = draw(k, seed, f"kmeans-k{k}", f"select-k{k}")
        mean = evaluate(drawn, cfg, probe).mean
        log.info("choose_k: k=%d roc_auc=%.4f mse=%.4f", k, mean["roc_auc"], mean["mse"])
        results.append((-mean["roc_auc"], mean["mse"], k))
    return min(results)[2]


def fit_model(prepared: PreparedData, cfg: PipelineConfig) -> Model:
    """The ranking model, fitted on 100% of the balanced set. Its SVM point
    is the configured one, or the pick of a grid search on the set."""
    return fit(*prepared.tables, prepared.pairs, prepared.labels, cfg)


def resolve_svm_params(prepared: PreparedData, cfg: PipelineConfig) -> SvmParams:
    """The SVM's (C, gamma) for the CV: the point ``fit_model`` would take,
    with no SVM trained at it (with one grid cell, nothing is fitted)."""
    return select(*prepared.tables, prepared.pairs, prepared.labels, cfg)


def evaluate(
    prepared: PreparedData, cfg: PipelineConfig, params: SvmParams
) -> MetricsReport:
    """The stratified k-fold CV of the boosted-trees + SVM pipeline on the
    balanced set, with the SVM at ``params``.

    Each fold fits the model (``model.fit``) on its training pairs and
    scores its test pairs; pooled test scores feed the exported curves.
    Every fold uses ``prepared.tables``, except in strict-folds mode, where
    ``strict_fold_tables`` rebuilds the two tables for each fold from
    training-fold positives only.
    """
    # here, not at module top: a rank at one SVM point computes no metric
    from .evaluation import MetricsReport, curves, fold_metrics, stratified_kfold

    pairs, labels = prepared.pairs, prepared.labels
    fold_index = stratified_kfold(labels, cfg.n_folds, derive_seed(cfg.seed, "cv-folds"))
    pooled = np.zeros(len(labels))
    folds: list[dict] = []

    for f in range(cfg.n_folds):
        test_idx = np.flatnonzero(fold_index == f)
        train_idx = np.flatnonzero(fold_index != f)

        if cfg.mode == "strict-folds":
            tables = prepared.strict_fold_tables(test_idx, cfg)
        else:
            tables = prepared.tables

        model = fit(*tables, pairs[train_idx], labels[train_idx], cfg, params)
        scores = model.score(*tables, pairs[test_idx])
        pooled[test_idx] = scores
        folds.append(
            {
                "fold": f,
                "n_train": int(len(train_idx)),
                "n_test": int(len(test_idx)),
                **fold_metrics(scores, labels[test_idx]),
                "svm_converged": model.svm.converged,
            }
        )
        log.info(
            "fold %d: roc_auc=%.4f auprc=%.4f acc=%.4f f1=%.4f",
            f, *(folds[-1][key] for key in ("roc_auc", "auprc", "accuracy", "f1")),
        )

    roc_curve, pr_curve = curves(pooled, labels)
    return MetricsReport(
        mode=cfg.mode,
        n_folds=cfg.n_folds,
        seed=cfg.seed,
        svm_c=params.c,
        svm_gamma=params.gamma,
        folds=folds,
        mean={
            key: float(np.mean([fd[key] for fd in folds]))
            for key in ("roc_auc", "auprc", "accuracy", "f1", "mse")
        },
        roc_curve=roc_curve,
        pr_curve=pr_curve,
    )


def _score_grid(prepared: PreparedData, model: Model) -> np.ndarray:
    """An (n_snornas, n_diseases) grid holding every unknown pair's decision
    score at its cell; the known cells are never read."""
    grid = np.zeros(prepared.am.entries.shape)
    negatives = prepared.negatives
    grid[negatives[:, 0], negatives[:, 1]] = model.score(*prepared.tables, negatives)
    return grid


def rank_candidates(
    prepared: PreparedData, cfg: PipelineConfig, model: Model
) -> tuple[list[RankedPrediction], list[str]]:
    """Top-k unknown pairs per disease by ``model``'s decision score.

    Unknown pairs used as balancing negatives are still scored (they remain
    candidates); only known positives are excluded. Returns the predictions
    sorted by (disease_id, rank) and the diseases with no unknown pairs left.
    Equal scores rank by ascending snoRNA id.
    """
    am = prepared.am
    grid = _score_grid(prepared, model)
    by_id = np.array(sorted(range(am.n_snornas), key=am.snorna_ids.__getitem__))
    unknown = am.entries[by_id] != 1  # rows in snoRNA id order
    predictions: list[RankedPrediction] = []
    exhausted: list[str] = []
    for d_idx, disease_id in sorted(enumerate(am.disease_ids), key=lambda t: t[1]):
        candidates = by_id[unknown[:, d_idx]]
        if len(candidates) == 0:
            exhausted.append(disease_id)
            continue
        scores = grid[candidates, d_idx]
        top = np.argsort(-scores, kind="stable")[: cfg.top_k]
        for rank, (s_idx, score) in enumerate(
            zip(candidates[top].tolist(), scores[top].tolist()), start=1
        ):
            predictions.append(RankedPrediction(disease_id, am.snorna_ids[s_idx], score, rank))
    return predictions, exhausted


def holdout_inference_check(cfg: PipelineConfig) -> dict:
    """Remove a seeded fraction of known positives, re-prepare on the
    reduced matrix and retrain, and measure how highly the held-out pairs
    score among each disease's unknowns."""
    am = _load_matrix(cfg)
    positives, _ = corpus.split_known_unknown(am)
    n_hold = int(round(cfg.holdout_fraction * len(positives)))
    if n_hold < 1:
        raise ConfigError(
            f"holdout of {cfg.holdout_fraction:.2%} of {len(positives)} positives is empty"
        )
    rng = random.Random(derive_seed(cfg.seed, "holdout"))
    held = positives[sorted(rng.sample(range(len(positives)), n_hold))]

    reduced = am._replace(entries=am.entries.copy())
    reduced.entries[held[:, 0], held[:, 1]] = 0
    unknown = reduced.entries != 1  # each disease's candidates, the held pairs among them

    emptied = unknown.all(axis=0)  # the diseases left with no positive
    excluded = sorted({am.disease_ids[d] for d in held[:, 1].tolist() if emptied[d]})
    for disease_id in excluded:
        log.warning(
            "holdout emptied positives of disease '%s'; excluded from report", disease_id
        )
    scorable = held[~emptied[held[:, 1]]]
    if len(scorable) == 0:
        raise DataError("holdout produced no scorable held-out pairs")

    prepared = prepare_from_matrix(reduced, cfg)
    grid = _score_grid(prepared, fit_model(prepared, cfg))

    from .evaluation import holdout_standing  # here, as in ``evaluate``

    rows = [
        {"snorna_id": am.snorna_ids[s], "disease_id": am.disease_ids[d], **standing}
        for (s, d), standing in zip(
            scorable.tolist(), holdout_standing(grid, unknown, scorable, cfg.top_k)
        )
    ]
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
    import json

    paths = _artifact_paths("prepare", out_dir)
    msfs_path, mdss_path, pairs_path, record_path = paths
    snorna_ids, disease_ids = prepared.am.snorna_ids, prepared.am.disease_ids
    # the fused similarities are defined for every pair: no mask files
    corpus.write_table(msfs_path, snorna_ids, snorna_ids, prepared.msfs, fmt_float)
    corpus.write_table(mdss_path, disease_ids, disease_ids, prepared.mdss, fmt_float)
    corpus.write_rows(
        pairs_path,
        [PAIRS_HEADER]
        + [(snorna_ids[s], disease_ids[d], str(label))
           for (s, d), label in zip(prepared.pairs.tolist(), prepared.labels.tolist())],
    )
    atomic_write_text(record_path, json.dumps({"k": prepared.k_used}) + "\n")
    return paths


def _write_json(path: str, obj) -> None:
    import json

    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_report(report: MetricsReport, out_dir: str) -> list[str]:
    paths = _artifact_paths("evaluate", out_dir)
    report_path, roc_path, pr_path = paths
    # A shallow dict: json writes the curves' tuples as arrays, with no copy.
    _write_json(report_path, report._asdict())
    for path, header, curve in (
        (roc_path, ("far", "tar"), report.roc_curve),
        (pr_path, ("recall", "precision"), report.pr_curve),
    ):
        corpus.write_rows(path, [header] + [tuple(map(fmt_float, point)) for point in curve])
    return paths


def write_rankings(predictions: list[RankedPrediction], out_dir: str) -> list[str]:
    paths = _artifact_paths("rank", out_dir)
    corpus.write_rows(
        paths[0],
        [("disease_id", "snorna_id", "score", "rank")]
        + [(p.disease_id, p.snorna_id, fmt_float(p.score), str(p.rank)) for p in predictions],
    )
    return paths


def write_holdout(result: dict, out_dir: str) -> list[str]:
    paths = _artifact_paths("holdout", out_dir)
    _write_json(paths[0], result)
    return paths
