"""Class balancing: cluster the unknown pairs and sample negatives
proportionally to cluster size, then assemble pair feature vectors.

A pair feature vector is the meshed snoRNA-similarity row of the pair's
snoRNA concatenated with the meshed disease-similarity column of its
disease, so clustering and the downstream classifiers share one space.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .similarity import SimilarityMatrix
from .util import derive_seed

log = logging.getLogger(__name__)


@dataclass
class Clustering:
    k: int
    assignments: np.ndarray  # (n,) int
    centroids: np.ndarray  # (k, f)
    inertia: float
    seed: int
    history: list[float] = field(default_factory=list)  # inertia per iteration


def assemble_feature_matrix(
    msfs: SimilarityMatrix, mdss: SimilarityMatrix, pairs
) -> np.ndarray:
    """Feature rows for many pairs at once, shape (len(pairs), n_s + n_d)."""
    pairs = np.asarray(pairs, dtype=int)
    if len(pairs) == 0:
        return np.zeros((0, msfs.n + mdss.n))
    if pairs[:, 0].max() >= msfs.n or pairs[:, 1].max() >= mdss.n:
        raise IndexError("pair index out of range")
    return np.hstack([msfs.values[pairs[:, 0], :], mdss.values[:, pairs[:, 1]].T])


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def kmeans(
    points,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> Clustering:
    """Lloyd's algorithm with farthest-first initialization.

    The first centroid is a seeded random point; each further centroid is the
    point farthest from the ones chosen so far. An emptied cluster is
    re-seeded at the point farthest from its nearest centroid. Deterministic
    for a given seed.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise DataError(f"k={k} exceeds the number of points ({n})")

    rng = np.random.default_rng(seed)
    first = int(rng.integers(n))
    chosen = [first]
    nearest = _squared_distances(points, points[[first]])[:, 0]
    while len(chosen) < k:
        nxt = int(np.argmax(nearest))
        chosen.append(nxt)
        nearest = np.minimum(nearest, _squared_distances(points, points[[nxt]])[:, 0])
    centroids = points[chosen].copy()

    history: list[float] = []
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        d2 = _squared_distances(points, centroids)
        assignments = np.argmin(d2, axis=1)
        min_d2 = d2[np.arange(n), assignments]

        # Re-seed empty clusters at the currently worst-served points.
        empty = [c for c in range(k) if not np.any(assignments == c)]
        for c in empty:
            far = int(np.argmax(min_d2))
            centroids[c] = points[far]
            assignments[far] = c
            min_d2[far] = 0.0
        history.append(float(min_d2.sum()))

        new_centroids = centroids.copy()
        for c in range(k):
            members = assignments == c
            if members.any():
                new_centroids[c] = points[members].mean(axis=0)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < tol:
            break

    # Final assignment so every point sits with its nearest centroid.
    d2 = _squared_distances(points, centroids)
    assignments = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), assignments].sum())
    history.append(inertia)
    return Clustering(k, assignments, centroids, inertia, seed, history)


def largest_remainder_counts(sizes: np.ndarray, total: int) -> np.ndarray:
    """Integer apportionment of ``total`` proportional to ``sizes``; sums exactly."""
    sizes = np.asarray(sizes, dtype=np.int64)
    quotas = total * sizes / sizes.sum()
    counts = np.floor(quotas).astype(np.int64)
    remainder = total - int(counts.sum())
    if remainder > 0:
        fractional = quotas - counts
        order = np.lexsort((np.arange(len(sizes)), -fractional))
        counts[order[:remainder]] += 1
    return counts


def select_negatives(
    clustering: Clustering,
    negatives: list[tuple[int, int]],
    n_pos: int,
    seed: int = 0,
) -> list[tuple[int, int]]:
    """Pick exactly ``n_pos`` negative pairs, apportioned across clusters by
    size (largest remainder) and uniform without replacement within each."""
    if len(negatives) != len(clustering.assignments):
        raise DataError("clustering does not cover the negative pair list")
    if n_pos < 1:
        raise ValueError("n_pos must be >= 1")
    if n_pos > len(negatives):
        raise DataError(
            f"cannot select {n_pos} negatives from {len(negatives)} unknown pairs"
        )
    sizes = np.bincount(clustering.assignments, minlength=clustering.k)
    counts = largest_remainder_counts(sizes, n_pos)
    rng = np.random.default_rng(seed)
    selected: list[int] = []
    for c in range(clustering.k):
        members = np.flatnonzero(clustering.assignments == c)
        take = int(counts[c])
        if take > 0:
            selected.extend(rng.choice(members, size=take, replace=False).tolist())
    selected.sort()
    return [negatives[i] for i in selected]


def choose_k(
    negative_points: np.ndarray,
    negatives: list[tuple[int, int]],
    k_range,
    evaluator,
    n_pos: int,
    seed: int = 0,
) -> int:
    """Evaluate candidate cluster counts and return the best one.

    ``evaluator(k, selected_negatives) -> (roc_auc, mse)`` runs a cheap CV on
    the balanced set built from that selection. Highest mean ROC-AUC wins;
    ties fall to lower MSE, then to the smaller k.
    """
    k_range = list(k_range)
    if not k_range:
        raise ValueError("k_range must be nonempty")
    results = []
    for k in k_range:
        clustering = kmeans(negative_points, k, seed=derive_seed(seed, f"kmeans-k{k}"))
        picked = select_negatives(
            clustering, negatives, n_pos, seed=derive_seed(seed, f"select-k{k}")
        )
        auc, mse = evaluator(k, picked)
        log.info("choose_k: k=%d roc_auc=%.4f mse=%.4f", k, auc, mse)
        results.append((k, auc, mse))
    results.sort(key=lambda t: (-t[1], t[2], t[0]))
    return results[0][0]
