import hashlib
import itertools
import random

import numpy as np
import pytest

from sda import pipeline, sampling
from sda.errors import DataError
from sda.evaluation import MetricsReport
from sda.sampling import (
    Clustering,
    kmeans,
    largest_remainder_counts,
    select_negatives,
)

from conftest import pair_space


def two_blobs(seed=0, per=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.05, size=(per, 2))
    b = rng.normal(10.0, 0.05, size=(per, 2)) + np.array([0.0, 0.0])
    return np.vstack([a, b])


def bruteforce_best_two_partition(points):
    """Optimal 2-cluster inertia by exhaustive assignment enumeration."""
    n = len(points)
    best = np.inf
    for bits in itertools.product([0, 1], repeat=n):
        bits = np.array(bits)
        if bits.sum() in (0, n):
            continue
        inertia = 0.0
        for c in (0, 1):
            members = points[bits == c]
            inertia += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, inertia)
    return best


class TestKmeans:
    def test_k_equals_n_gives_zero_inertia(self):
        pts = np.arange(10.0).reshape(5, 2)
        result = kmeans(*pair_space(pts), 5, seed=1)
        assert result.inertia == pytest.approx(0.0, abs=1e-18)

    def test_two_blobs_match_bruteforce_partition(self):
        pts = two_blobs(seed=2)
        result = kmeans(*pair_space(pts), 2, seed=0)
        # blob membership must be homogeneous
        assert len(set(result.assignments[:4])) == 1
        assert len(set(result.assignments[4:])) == 1
        assert result.assignments[0] != result.assignments[-1]
        assert result.inertia <= bruteforce_best_two_partition(pts) + 1e-9

    def test_k1_centroid_is_mean(self):
        pts = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 1.0]])
        result = kmeans(*pair_space(pts), 1, seed=0)
        np.testing.assert_allclose(result.centroids[0], pts.mean(axis=0), atol=1e-12)

    def test_inertia_monotone_nonincreasing(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            pts = rng.random((40, 3))
            result = kmeans(*pair_space(pts), 4, seed=trial)
            hist = np.array(result.history)
            assert np.all(np.diff(hist) <= 1e-9)

    def test_converged_assignment_is_fixed_point(self):
        rng = np.random.default_rng(6)
        pts = rng.random((30, 2))
        result = kmeans(*pair_space(pts), 3, seed=9)
        d2 = ((pts[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(np.argmin(d2, axis=1), result.assignments)
        assert result.inertia == pytest.approx(
            d2[np.arange(len(pts)), result.assignments].sum(), rel=1e-12
        )

    def test_k_too_large_rejected(self):
        with pytest.raises(DataError):
            kmeans(*pair_space(np.zeros((3, 2))), 4, seed=0)

    def test_farthest_first_tie_takes_lowest_index(self):
        # Diseases whose similarity rows hold the same values in another
        # order are equally far from a constant row in exact arithmetic; the
        # rounding of each sum depends on the column order, the pick must not.
        rng = np.random.default_rng(0)
        vals = rng.random(6)
        right = np.vstack([np.full(6, 0.5), vals, vals[[3, 0, 5, 1, 4, 2]]])
        pairs = [(0, 0), (0, 1), (0, 2)]
        seed = 1  # the first centroid is pair 0
        assert random.Random(seed).randrange(3) == 0
        for perm in itertools.permutations(range(6)):
            table = right[:, perm]
            result = kmeans(np.zeros((1, 0)), table, pairs, 2, seed=seed, max_iter=0)
            np.testing.assert_array_equal(result.centroids, table[:2])

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(8)
        pts = rng.random((25, 3))
        a = kmeans(*pair_space(pts), 4, seed=3)
        b = kmeans(*pair_space(pts), 4, seed=3)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)


def fake_clustering(sizes):
    assignments = np.concatenate(
        [np.full(size, c, dtype=np.int64) for c, size in enumerate(sizes)]
    )
    return Clustering(
        k=len(sizes),
        assignments=assignments,
        centroids=np.zeros((len(sizes), 1)),
        inertia=0.0,
        seed=0,
        history=[],
    )


class TestSelectNegatives:
    def test_apportionment_60_40(self):
        clustering = fake_clustering([60, 40])
        negatives = [(i, 0) for i in range(100)]
        picked = select_negatives(clustering, negatives, 10, seed=1)
        assert len(picked) == 10
        first = sum(1 for s, _ in picked if s < 60)
        assert first == 6 and len(picked) - first == 4

    def test_single_cluster_uniform(self):
        clustering = fake_clustering([20])
        negatives = [(i, 0) for i in range(20)]
        picked = select_negatives(clustering, negatives, 7, seed=2)
        assert len(picked) == 7
        assert len(set(map(tuple, picked.tolist()))) == 7

    def test_exact_size_over_random_partitions(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n_clusters = int(rng.integers(1, 8))
            sizes = rng.integers(1, 30, size=n_clusters)
            total = int(sizes.sum())
            n_pos = int(rng.integers(1, total + 1))
            counts = largest_remainder_counts(sizes, n_pos)
            assert counts.sum() == n_pos
            assert np.all(counts >= 0)
            assert np.all(counts <= sizes)
            picked = select_negatives(
                fake_clustering(sizes.tolist()),
                [(i, 0) for i in range(total)],
                n_pos,
                seed=int(rng.integers(1 << 30)),
            )
            assert len(picked) == n_pos
            assert len(set(map(tuple, picked.tolist()))) == n_pos

    def test_overdraw_rejected(self):
        clustering = fake_clustering([3])
        with pytest.raises(DataError):
            select_negatives(clustering, [(0, 0), (1, 0), (2, 0)], 4, seed=0)

    def test_deterministic_under_seed(self):
        clustering = fake_clustering([15, 25])
        negatives = [(i, 0) for i in range(40)]
        a = select_negatives(clustering, negatives, 12, seed=5)
        b = select_negatives(clustering, negatives, 12, seed=5)
        assert np.array_equal(a, b)


class TestChooseK:
    """``pipeline._choose_k`` with the probe CV replaced by canned mean
    (ROC-AUC, MSE) values per k."""

    @staticmethod
    def choose(synth_config, monkeypatch, means):
        base = pipeline.prepare(synth_config)
        probed = []

        def evaluate(prepared, cfg, params):
            probed.append(prepared.k_used)
            auc, mse = means[prepared.k_used]
            return MetricsReport(
                cfg.mode, cfg.n_folds, cfg.seed, params.c, params.gamma,
                folds=[], mean={"roc_auc": auc, "mse": mse}, roc_curve=[], pr_curve=[],
            )

        monkeypatch.setattr(pipeline, "evaluate", evaluate)

        def draw(k, seed, kmeans_label, select_label):
            return base._replace(k_used=k)

        got = pipeline._choose_k(draw, synth_config._replace(k=tuple(means)))
        assert probed == list(means)  # one probe CV per candidate, in order
        return got

    def test_single_candidate(self, synth_config, monkeypatch):
        assert self.choose(synth_config, monkeypatch, {4: (0.9, 0.1)}) == 4

    def test_tiebreak_lower_mse_then_smaller_k(self, synth_config, monkeypatch):
        means = {2: (0.8, 0.30), 3: (0.8, 0.10), 5: (0.8, 0.10)}
        # same AUC everywhere; MSE prunes k=2, then smaller k wins
        assert self.choose(synth_config, monkeypatch, means) == 3

    def test_highest_auc_wins(self, synth_config, monkeypatch):
        means = {2: (0.7, 0.0), 4: (0.9, 0.5)}
        assert self.choose(synth_config, monkeypatch, means) == 4


def dense_squared_distances(points, centroids):
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def first_max(values, scale):
    """The lowest index within ``1e-12 * scale`` of the maximum."""
    return int(np.flatnonzero(values >= values.max() - 1e-12 * scale)[0])


def dense_kmeans(points, k, seed=0, max_iter=100, tol=1e-6):
    """Oracle: Lloyd's algorithm on materialised points, the implementation
    ``kmeans`` replaced. Returns the clustering and the number of empty
    clusters it re-seeded. Its picks follow the tie rule of ``kmeans``: the
    lowest index within a relative 1e-12 of the farthest point, where the
    re-seed's scale includes the squared norms, the noise scale of the
    expanded distances.

    One change: the farthest-first distances are summed squared differences,
    not ``dense_squared_distances``. A pair space makes exact ties there
    (pairs (a2, b1) and (a2, b2) are equally far from chosen (a1, b1) and
    (a1, b2)), and the expanded form breaks them by rounding noise."""
    n = points.shape[0]
    first = random.Random(seed).randrange(n)
    chosen = [first]
    nearest = np.sum((points - points[first]) ** 2, axis=1)
    while len(chosen) < k:
        nxt = first_max(nearest, nearest.max())
        chosen.append(nxt)
        nearest = np.minimum(nearest, np.sum((points - points[nxt]) ** 2, axis=1))
    centroids = points[chosen].copy()

    history = []
    reseeds = 0
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        d2 = dense_squared_distances(points, centroids)
        assignments = np.argmin(d2, axis=1)
        min_d2 = d2[np.arange(n), assignments]
        empty = [c for c in range(k) if not np.any(assignments == c)]
        norm_scale = np.sum(points**2, axis=1).max()
        for c in empty:
            far = first_max(min_d2, max(min_d2.max(), norm_scale))
            centroids[c] = points[far]
            assignments[far] = c
            min_d2[far] = 0.0
            reseeds += 1
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

    d2 = dense_squared_distances(points, centroids)
    assignments = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), assignments].sum())
    history.append(inertia)
    return Clustering(k, assignments, centroids, inertia, seed, history), reseeds


def random_pair_space(rng, n_left, n_right, n_pairs, dim_left=None, dim_right=None):
    """Random entity tables and ``n_pairs`` distinct pairs over them."""
    left = rng.random((n_left, dim_left or n_left))
    right = rng.random((n_right, dim_right or n_right))
    flat = rng.choice(n_left * n_right, size=n_pairs, replace=False)
    pairs = [(int(i) // n_right, int(i) % n_right) for i in sorted(flat)]
    return left, right, pairs


class TestKmeansMatchesDenseOracle:
    """The factored k-means gives the assignments of Lloyd's algorithm on the
    materialised pair features, and its sums agree to rounding."""

    def check(self, left, right, pairs, k, seed):
        got = kmeans(left, right, pairs, k, seed=seed)
        idx = np.asarray(pairs)
        points = np.hstack([left[idx[:, 0]], right[idx[:, 1]]])
        want, reseeds = dense_kmeans(points, k, seed=seed)
        np.testing.assert_array_equal(got.assignments, want.assignments)
        # k = n puts every point on its centroid: the inertia is rounding
        # noise of zero, hence the absolute floor at that noise's scale
        atol = 1e-12 * float(np.sum(points**2, axis=1).max())
        np.testing.assert_allclose(got.history, want.history, rtol=1e-12, atol=atol)
        np.testing.assert_allclose(got.centroids, want.centroids, rtol=1e-12)
        np.testing.assert_allclose(got.inertia, want.inertia, rtol=1e-12, atol=atol)
        return reseeds

    def test_random_pair_spaces(self):
        rng = np.random.default_rng(20)
        for trial in range(20):
            n_left, n_right = int(rng.integers(3, 15)), int(rng.integers(2, 8))
            n_pairs = int(rng.integers(n_left * n_right // 2, n_left * n_right + 1))
            left, right, pairs = random_pair_space(rng, n_left, n_right, n_pairs)
            k = int(rng.integers(2, min(12, n_pairs) + 1))
            self.check(left, right, pairs, k, seed=trial)

    def test_duplicate_entity_rows_tie_exactly(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            left, right, pairs = random_pair_space(rng, 8, 5, 30, dim_left=6, dim_right=4)
            left[1] = left[0]
            left[5] = left[4]
            right[3] = right[2]
            self.check(left, right, pairs, 6, seed=trial)

    def test_reseed_ties_at_rounding_noise(self):
        # k above the 6 distinct points: the emptied clusters are re-seeded
        # while every distance to the nearest centroid is rounding noise of
        # zero, which the two codes round differently
        rng = np.random.default_rng(25)
        pairs = [(i, j) for i in range(4) for j in range(3)]
        for seed in range(400):
            left, right = rng.random((4, 3)), rng.random((3, 2))
            left[1] = left[0]
            right[2] = right[1]
            self.check(left, right, pairs, 7, seed)

    def test_k1(self):
        rng = np.random.default_rng(22)
        left, right, pairs = random_pair_space(rng, 9, 6, 40)
        self.check(left, right, pairs, 1, seed=0)

    def test_k_equals_n(self):
        rng = np.random.default_rng(23)
        left, right, pairs = random_pair_space(rng, 5, 4, 14)
        self.check(left, right, pairs, len(pairs), seed=1)

    def test_empty_cluster_reseeded(self):
        # Farthest-first starts left no cluster empty on distinct random
        # points; here 12 pairs sit on 6 locations, so with k = 8 centroids
        # coincide and the later copies are emptied and re-seeded. Small
        # integers keep those distances exact on both sides.
        rng = np.random.default_rng(24)
        left = rng.integers(0, 10, size=(4, 2)).astype(float)
        right = rng.integers(0, 10, size=(3, 1)).astype(float)
        left[1] = left[0]
        pairs = [(i, j) for i in range(4) for j in range(3)]
        for seed in range(4):
            assert self.check(left, right, pairs, 8, seed) > 0


class TestKmeansBlocks:
    """Assignment passes walk the pairs a block at a time; the block size
    changes no bit of the result."""

    def check(self, monkeypatch, left, right, pairs, k, seed):
        want = kmeans(left, right, pairs, k, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(sampling, "KMEANS_BLOCK", 5)
            got = kmeans(left, right, pairs, k, seed=seed)
        assert np.array_equal(got.assignments, want.assignments)
        assert np.array_equal(got.centroids, want.centroids)
        assert got.history == want.history
        assert got.inertia == want.inertia

    @pytest.mark.parametrize("n_pairs", [3, 20, 23], ids=["under-one", "whole", "partial"])
    def test_block_size_changes_nothing(self, monkeypatch, n_pairs):
        rng = np.random.default_rng(30 + n_pairs)
        left, right, pairs = random_pair_space(rng, 7, 5, n_pairs, dim_left=4, dim_right=3)
        for seed in range(3):
            self.check(monkeypatch, left, right, pairs, min(3, n_pairs), seed)

    def test_reseeds_across_blocks(self, monkeypatch):
        # 12 pairs on 6 locations with k = 8: clusters are emptied and
        # re-seeded from distances gathered over three blocks
        rng = np.random.default_rng(24)
        left = rng.integers(0, 10, size=(4, 2)).astype(float)
        right = rng.integers(0, 10, size=(3, 1)).astype(float)
        left[1] = left[0]
        pairs = [(i, j) for i in range(4) for j in range(3)]
        for seed in range(4):
            self.check(monkeypatch, left, right, pairs, 8, seed)


def kmeans_digests(result):
    """sha256 of the assignments, centroids and history, and the inertia's hex."""
    return (
        hashlib.sha256(result.assignments.tobytes()).hexdigest(),
        hashlib.sha256(result.centroids.tobytes()).hexdigest(),
        result.inertia.hex(),
        hashlib.sha256(np.array(result.history).tobytes()).hexdigest(),
    )


class TestKmeansPinned:
    """Bit-level locks on three ways a run ends; the digests were pinned
    before the final assignment pass could be taken from the last Lloyd
    pass, which must change none of them."""

    def dense_space(self):
        rng = np.random.default_rng(40)
        left, right = rng.random((9, 4)), rng.random((6, 3))
        return left, right, [(i, j) for i in range(9) for j in range(6)]

    def test_ends_settled(self):
        # the third pass moves no centroid and re-seeds nothing
        result = kmeans(*self.dense_space(), 4, seed=2)
        assert len(result.history) == 4
        assert kmeans_digests(result) == (
            "68b85232fd42579cbd4de01f16264e274093c9d6e0bbee62d5ee7356e30b117f",
            "0fdeb004dad94926065f64f58dfee71258b840a3ce7c28290805833033d021cb",
            "0x1.1b97e8d787776p+3",
            "51815b1c9c83f69033e7f63eb2ccd5d4c921300efddb0b90dba21dba44e48528",
        )

    def test_stops_at_max_iter(self):
        result = kmeans(*self.dense_space(), 4, seed=2, max_iter=1)
        assert len(result.history) == 2
        assert kmeans_digests(result) == (
            "68b85232fd42579cbd4de01f16264e274093c9d6e0bbee62d5ee7356e30b117f",
            "9f457866d482e5ad5098b9a8083f0c463c4ddda0093410c68476514ac0e0455f",
            "0x1.29cd07cb998f6p+3",
            "e1b2f5a1f54a3a82ed3198e79224508ccda5e86c72b854642382ecafc461db2d",
        )

    def test_reseeds_on_its_last_pass(self):
        # k above the 6 distinct points: the one pass re-seeds and then
        # moves no centroid, yet the final assignment, from the same
        # centroids, reads another rounding noise than the re-seeded pass
        rng = np.random.default_rng(25)
        left, right = rng.random((4, 3)), rng.random((3, 2))
        left[1] = left[0]
        right[2] = right[1]
        pairs = [(i, j) for i in range(4) for j in range(3)]
        result = kmeans(left, right, pairs, 7, seed=0)
        assert result.history[0] != result.history[1]
        assert kmeans_digests(result) == (
            "c3cf697554c13f90e3c9ca62fc53db8ed11e7224a61a803a042299776b286f36",
            "149403876928ebc79874e5ebf67750b09b10c80ff6b8d9d907ab8dfb955d4a27",
            "0x1.8000000000000p-51",
            "db78eefdff18b73a96636b333e04a64b8e4812b0af15370b22b741d1073e7ea0",
        )
