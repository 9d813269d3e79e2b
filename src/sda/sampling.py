"""Class balancing: cluster the unknown pairs and sample negatives
proportionally to cluster size.

A pair's feature vector is the meshed snoRNA-similarity row of its snoRNA
next to the meshed disease-similarity column of its disease, so clustering
and the downstream classifiers share one space. No part of the program
builds those vectors: k-means here, like the tree ensemble of ``boost``,
works on the pair space in factored form, from the two per-entity tables
and the pair list.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .util import first_max

# Pairs whose distances to the centroids k-means holds at once: a pass over
# the pairs keeps memory in proportion to this, not to the pair count.
KMEANS_BLOCK = 1024


class Clustering(NamedTuple):
    k: int
    assignments: np.ndarray  # (n,) int
    centroids: np.ndarray  # (k, f)
    inertia: float
    seed: int
    history: list[float]  # inertia per iteration


def kmeans(
    left,
    right,
    pairs,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> Clustering:
    """Lloyd's algorithm with farthest-first initialization over the pair
    space whose point i is ``[left[a_i] | right[b_i]]`` for ``pairs[i] =
    (a_i, b_i)``.

    The first centroid is the point ``random.Random(seed).randrange(n)``
    (``seed`` a Python int); each further centroid is the point farthest
    from the ones chosen so far. An emptied cluster is re-seeded at the
    point farthest from its nearest centroid. Both picks take
    the lowest index among the points within a relative 1e-12 of the
    farthest, so ties that are exact in real arithmetic do not fall to
    rounding. Deterministic for a given seed.

    The points are never materialised: a squared distance splits into a
    ``left`` part and a ``right`` part, so norms, dot products with the
    centroids and centroid sums all come from per-entity tables gathered by
    ``pairs``. Each assignment pass gathers the distances of
    ``KMEANS_BLOCK`` pairs at a time, so beside the per-entity tables and
    the n-vectors of assignments and distances it holds one block.
    """
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    a, b = pairs[:, 0], pairs[:, 1]
    n, split = len(pairs), left.shape[1]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise DataError(f"k={k} exceeds the number of points ({n})")
    left_norms, right_norms = np.sum(left**2, axis=1), np.sum(right**2, axis=1)
    norm_scale = left_norms.max(initial=0.0) + right_norms.max(initial=0.0)
    # the flat offset of each row of a block's (pairs, k) distance table
    row_starts = np.arange(min(KMEANS_BLOCK, n)) * k

    def point(i: int) -> np.ndarray:
        return np.concatenate([left[a[i]], right[b[i]]])

    def assign(centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each point's nearest centroid and its squared distance to it,
        clamped at 0, from the pairs ``KMEANS_BLOCK`` at a time."""
        # |x|^2 - 2 x.c + |c|^2, each term split into a left and a right table
        left_part = left_norms[:, None] - 2.0 * (left @ centroids[:, :split].T)
        left_part += np.sum(centroids**2, axis=1)[None, :]
        right_part = right_norms[:, None] - 2.0 * (right @ centroids[:, split:].T)
        assigned, min_d2 = np.empty(n, dtype=np.int64), np.empty(n)
        for start in range(0, n, KMEANS_BLOCK):
            block = slice(start, start + KMEANS_BLOCK)
            d2 = np.take(left_part, a[block], axis=0)
            d2 += np.take(right_part, b[block], axis=0)
            np.maximum(d2, 0.0, out=d2)
            closest = d2.argmin(axis=1)
            assigned[block] = closest
            min_d2[block] = d2.take(row_starts[: len(closest)] + closest)
        return assigned, min_d2

    def distances_to(i: int) -> np.ndarray:
        return (
            np.sum((left - left[a[i]]) ** 2, axis=1)[a]
            + np.sum((right - right[b[i]]) ** 2, axis=1)[b]
        )

    def centroid_sums(table: np.ndarray, entity: np.ndarray, assignments) -> np.ndarray:
        m = len(table)
        counts = np.bincount(assignments * m + entity, minlength=k * m)
        return counts.reshape(k, m).astype(np.float64) @ table

    first = random.Random(seed).randrange(n)
    chosen = [first]
    nearest = distances_to(first)
    while len(chosen) < k:
        nxt = first_max(nearest, nearest.max())
        chosen.append(nxt)
        nearest = np.minimum(nearest, distances_to(nxt))
    centroids = np.array([point(i) for i in chosen])

    history: list[float] = []
    settled = False
    for _ in range(max_iter):
        assignments, min_d2 = assign(centroids)

        # Re-seed empty clusters at the currently worst-served points.
        sizes = np.bincount(assignments, minlength=k)
        empty = np.flatnonzero(sizes == 0)
        for c in empty:
            # the expanded form leaves noise at the scale of the squared norms
            far = first_max(min_d2, max(min_d2.max(), norm_scale))
            centroids[c] = point(far)
            assignments[far] = c
            min_d2[far] = 0.0
        history.append(float(min_d2.sum()))

        if len(empty):
            sizes = np.bincount(assignments, minlength=k)
        sums = np.hstack(
            [centroid_sums(left, a, assignments), centroid_sums(right, b, assignments)]
        )
        filled = sizes > 0
        new_centroids = centroids.copy()
        new_centroids[filled] = sums[filled] / sizes[filled, None]
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        # After a pass that re-seeded nothing and left every centroid's bits
        # as they were, another assignment pass would repeat this one.
        settled = not len(empty) and new_centroids.tobytes() == centroids.tobytes()
        centroids = new_centroids
        if shift < tol:
            break

    # Final assignment so every point sits with its nearest centroid; a
    # settled last pass already holds it.
    if not settled:
        assignments, min_d2 = assign(centroids)
    inertia = float(min_d2.sum())
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
    negatives,
    n_pos: int,
    seed: int = 0,
) -> np.ndarray:
    """Pick exactly ``n_pos`` negative pairs, apportioned across clusters by
    size (largest remainder) and uniform without replacement within each:
    one ``random.Random(seed)`` (``seed`` a Python int) samples the clusters
    in turn. Returns them as an (n_pos, 2) array in the order of
    ``negatives``."""
    negatives = np.asarray(negatives, dtype=np.int64).reshape(-1, 2)
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
    rng = random.Random(seed)
    selected: list[int] = []
    for c in range(clustering.k):
        members = np.flatnonzero(clustering.assignments == c)
        take = int(counts[c])
        if take > 0:
            selected.extend(rng.sample(members.tolist(), take))
    selected.sort()  # a list sort: np.sort maps ~0.2 MB more code into the peak RSS
    return negatives[selected]

