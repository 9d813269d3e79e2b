import math

import numpy as np
import pytest

from sda.boost import (
    GbdtEnsemble,
    fit_regression_tree,
    gbdt_fit,
    gbdt_init,
    gbdt_leaf_encode,
    gbdt_predict_proba,
    gbdt_raw_score,
    load_gbdt,
    logistic_loss,
    residuals,
    save_gbdt,
)
from sda.errors import NumericError
from sda.util import sigmoid


class TestInit:
    def test_balanced_labels_zero(self):
        assert gbdt_init([0, 1, 0, 1]) == 0.0

    def test_log_odds_closed_form(self):
        assert gbdt_init([1, 1, 1, 0]) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(NumericError, match="degenerate"):
            gbdt_init([1, 1, 1])


class TestResiduals:
    def test_half_at_zero_score(self):
        np.testing.assert_allclose(residuals([1.0], [0.0]), [0.5], atol=1e-15)

    def test_stationary_point(self):
        f = 0.37
        np.testing.assert_allclose(residuals([sigmoid(f)], [f]), [0.0], atol=1e-15)

    def test_limit_minus_one(self):
        assert residuals([0.0], [50.0])[0] == pytest.approx(-1.0, abs=1e-9)


def sse_of_split(X, r, feature, threshold):
    """Direct-mask oracle arithmetic for the squared error of a split."""
    mask = X[:, feature] <= threshold
    left, right = r[mask], r[~mask]
    out = 0.0
    for part in (left, right):
        if len(part):
            out += float(((part - part.mean()) ** 2).sum())
    return out


def bruteforce_best_split(X, r, min_samples_leaf=1):
    """Enumerate every (feature, midpoint) candidate; lowest SSE wins,
    ties to the lowest feature then the lowest threshold."""
    best = None
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for lo, hi in zip(vals[:-1], vals[1:]):
            t = (lo + hi) / 2.0
            n_left = int((X[:, f] <= t).sum())
            if n_left < min_samples_leaf or len(X) - n_left < min_samples_leaf:
                continue
            sse = sse_of_split(X, r, f, t)
            if best is None or sse < best[0] - 1e-12:
                best = (sse, f, t)
    return best


class TestRegressionTree:
    def test_constant_residuals_single_leaf_newton_value(self):
        X = np.arange(12.0).reshape(6, 2)
        r = np.full(6, 0.5)
        h = np.full(6, 0.25)
        tree = fit_regression_tree(X, r, h, max_depth=3, min_samples_leaf=1)
        assert tree.n_leaves == 1
        expect = r.sum() / (h.sum() + 1e-6)
        assert tree.value[0] == pytest.approx(expect, rel=1e-12)

    def test_separable_depth_one_split_at_midpoint(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        r = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        h = np.full(6, 0.25)
        tree = fit_regression_tree(X, r, h, max_depth=1, min_samples_leaf=1)
        assert tree.n_leaves == 2
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(6.0, abs=1e-12)
        left_val = tree.predict(np.array([[0.0]]))[0]
        right_val = tree.predict(np.array([[11.0]]))[0]
        assert left_val == pytest.approx(-3.0 / (0.75 + 1e-6), rel=1e-9)
        assert right_val == pytest.approx(3.0 / (0.75 + 1e-6), rel=1e-9)

    def test_depth_zero_single_leaf(self):
        X = np.random.default_rng(0).random((8, 3))
        r = np.random.default_rng(1).random(8)
        tree = fit_regression_tree(X, r, np.full(8, 0.25), max_depth=0)
        assert tree.n_leaves == 1

    def test_min_samples_leaf_respected(self):
        X = np.arange(8.0).reshape(8, 1)
        r = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
        tree = fit_regression_tree(X, r, np.full(8, 0.25), max_depth=3, min_samples_leaf=3)
        leaves = tree.apply(X)
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 3

    def test_root_split_matches_bruteforce(self):
        rng = np.random.default_rng(13)
        for trial in range(30):
            n = int(rng.integers(4, 21))
            X = np.round(rng.random((n, 3)), 2)
            r = rng.normal(size=n)
            tree = fit_regression_tree(X, r, np.full(n, 0.25), max_depth=1,
                                       min_samples_leaf=1)
            best = bruteforce_best_split(X, r)
            if tree.n_leaves == 1:
                # no strictly improving candidate existed
                if best is not None:
                    base = float(((r - r.mean()) ** 2).sum())
                    assert best[0] >= base - 1e-9
                continue
            achieved = sse_of_split(X, r, int(tree.feature[0]), float(tree.threshold[0]))
            assert achieved <= best[0] + 1e-9

    def test_every_internal_split_matches_bruteforce(self):
        # Heavily tied features: 0/1 flags and a few repeated similarity
        # levels, so nodes deep in the tree see long runs of equal values.
        # Residuals are multiples of 1/8, which keeps every sum exact.
        rng = np.random.default_rng(31)
        levels = np.array([0.0, 0.2, 0.2, 0.5, 0.9])
        n_nodes = 0
        for trial in range(60):
            n = int(rng.integers(20, 60))
            X = np.column_stack([
                rng.integers(0, 2, n).astype(float),
                rng.choice(levels, n),
                rng.integers(0, 2, n).astype(float),
                rng.choice(levels[:3], n),
            ])
            r = rng.integers(-8, 9, n) / 8.0
            msl = (1, 3, 5)[trial % 3]
            depth = 3 + trial % 2
            tree = fit_regression_tree(X, r, np.full(n, 0.25), max_depth=depth,
                                       min_samples_leaf=msl)
            stack = [(0, np.arange(n), 0)]
            while stack:
                node, rows, d = stack.pop()
                best = bruteforce_best_split(X[rows], r[rows], msl)
                f = int(tree.feature[node])
                if f < 0:
                    # a leaf: depth cap, too few rows, pure, or no candidate
                    assert (d == depth or rows.size < 2 * msl
                            or np.all(r[rows] == r[rows][0]) or best is None)
                    continue
                n_nodes += 1
                t = float(tree.threshold[node])
                assert best is not None
                assert (f, t) == (best[1], best[2]), (trial, node)
                go_left = X[rows, f] <= t
                stack.append((int(tree.left[node]), rows[go_left], d + 1))
                stack.append((int(tree.right[node]), rows[~go_left], d + 1))
        assert n_nodes > 200

    def test_adjacent_float_split_keeps_both_sides(self):
        # (a + b) / 2 rounds up to b here; the split must still separate them
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert (a + b) / 2.0 == b
        X = np.array([[a], [a], [b], [b]])
        r = np.array([-1.0, -1.0, 1.0, 1.0])
        tree = fit_regression_tree(X, r, np.full(4, 0.25), max_depth=1,
                                   min_samples_leaf=1)
        assert tree.n_leaves == 2
        assert tree.threshold[0] == a
        leaves = tree.apply(X)
        assert leaves[0] == leaves[1] != leaves[2] == leaves[3]

    def test_tiebreak_lowest_feature_then_threshold(self):
        # features 1 and 2 both split perfectly; feature 0 is useless
        X = np.array(
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]
        )
        r = np.array([-1.0, -1.0, 1.0, 1.0])
        tree = fit_regression_tree(X, r, np.full(4, 0.25), max_depth=1,
                                   min_samples_leaf=1)
        assert tree.feature[0] == 1
        assert tree.threshold[0] == pytest.approx(0.5)


class TestGbdtFit:
    def _random_dataset(self, rng):
        n = int(rng.integers(12, 40))
        X = rng.random((n, int(rng.integers(2, 5))))
        y = (rng.random(n) < 0.5).astype(float)
        y[0], y[1] = 0.0, 1.0
        return X, y

    def test_default_tree_count(self):
        X = np.random.default_rng(0).random((20, 2))
        y = np.array([0, 1] * 10, dtype=float)
        ens = gbdt_fit(X, y)
        assert ens.n_trees == 10 and len(ens.trees) == 10

    def test_zero_learning_rate_constant_prediction(self):
        X = np.random.default_rng(0).random((10, 2))
        y = np.array([0, 1] * 5, dtype=float)
        ens = gbdt_fit(X, y, learning_rate=0.0)
        np.testing.assert_allclose(gbdt_predict_proba(ens, X), 0.5, atol=1e-15)

    def test_xor_pattern_fit_exactly(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        ens = gbdt_fit(X, y, max_depth=2, min_samples_leaf=1)
        proba = gbdt_predict_proba(ens, X)
        assert np.array_equal(proba > 0.5, y.astype(bool))

    def test_training_loss_nonincreasing_50_datasets(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            X, y = self._random_dataset(rng)
            ens = gbdt_fit(X, y, min_samples_leaf=2)
            hist = np.array(ens.loss_history)
            assert np.all(np.diff(hist) <= 1e-9)

    def test_loss_history_agrees_with_recomputation(self):
        rng = np.random.default_rng(5)
        X, y = self._random_dataset(rng)
        ens = gbdt_fit(X, y)
        assert ens.loss_history[-1] == pytest.approx(
            logistic_loss(y, gbdt_raw_score(ens, X)), rel=1e-12
        )

    def test_degenerate_labels_rejected(self):
        with pytest.raises(NumericError):
            gbdt_fit(np.zeros((4, 1)), np.ones(4))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        X, y = self._random_dataset(rng)
        a = gbdt_fit(X, y, seed=3)
        b = gbdt_fit(X, y, seed=3)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
            assert np.array_equal(ta.value, tb.value)


class TestLeafEncoding:
    def _fitted(self, seed=0, **kw):
        rng = np.random.default_rng(seed)
        X = rng.random((30, 3))
        y = (X[:, 0] > 0.5).astype(float)
        y[:2] = [0.0, 1.0]
        return X, y, gbdt_fit(X, y, min_samples_leaf=2, **kw)

    def test_popcount_equals_n_trees(self):
        X, y, ens = self._fitted()
        enc = gbdt_leaf_encode(ens, X)
        assert enc.shape == (30, ens.total_leaves)
        np.testing.assert_array_equal(enc.sum(axis=1), np.full(30, ens.n_trees))

    def test_per_tree_blocks_one_hot(self):
        X, y, ens = self._fitted(seed=1)
        enc = gbdt_leaf_encode(ens, X)
        offsets = ens.leaf_offsets + [ens.total_leaves]
        for t in range(ens.n_trees):
            block = enc[:, offsets[t]:offsets[t + 1]]
            np.testing.assert_array_equal(block.sum(axis=1), np.ones(30))

    def test_identical_routing_identical_encoding(self):
        X, y, ens = self._fitted(seed=2)
        x = X[4:5]
        a = gbdt_leaf_encode(ens, x)
        b = gbdt_leaf_encode(ens, x.copy())
        np.testing.assert_array_equal(a, b)

    def test_depth3_trees_at_most_eight_leaves(self):
        X, y, ens = self._fitted(seed=3, max_depth=3)
        assert all(t.n_leaves <= 8 for t in ens.trees)
        assert ens.total_leaves == sum(t.n_leaves for t in ens.trees) <= 80

    def test_unfitted_rejected(self):
        empty = GbdtEnsemble([], 0.0, 0.1, 10)
        with pytest.raises(ValueError, match="no fitted trees"):
            gbdt_leaf_encode(empty, np.zeros((1, 3)))


def manual_tree_value(tree, x):
    """Traversal oracle: follow thresholds by hand."""
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return tree.value[node]


class TestPrediction:
    def test_matches_manual_traversal(self):
        rng = np.random.default_rng(21)
        X = rng.random((25, 3))
        y = (X[:, 1] > 0.4).astype(float)
        y[:2] = [0.0, 1.0]
        ens = gbdt_fit(X, y, min_samples_leaf=2)
        for x in X[:10]:
            expect = ens.init_score + ens.learning_rate * sum(
                manual_tree_value(t, x) for t in ens.trees
            )
            got = gbdt_raw_score(ens, x[None, :])[0]
            assert got == pytest.approx(expect, abs=1e-12)
            assert gbdt_predict_proba(ens, x[None, :])[0] == pytest.approx(
                sigmoid(expect), abs=1e-12
            )

    def test_monotone_in_added_positive_tree(self):
        rng = np.random.default_rng(22)
        X = rng.random((20, 2))
        y = np.array([0, 1] * 10, dtype=float)
        ens = gbdt_fit(X, y, n_trees=3, min_samples_leaf=2)
        before = gbdt_predict_proba(ens, X)
        bonus = fit_regression_tree(X, np.full(20, 1.0), np.full(20, 0.25), max_depth=0)
        ens.trees.append(bonus)
        after = gbdt_predict_proba(ens, X)
        assert np.all(after > before)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(30)
        X = rng.random((20, 2))
        y = np.array([0, 1] * 10, dtype=float)
        ens = gbdt_fit(X, y, min_samples_leaf=2)
        path = str(tmp_path / "model.json")
        save_gbdt(ens, path)
        back = load_gbdt(path)
        np.testing.assert_allclose(
            gbdt_raw_score(back, X), gbdt_raw_score(ens, X), atol=0
        )
        np.testing.assert_array_equal(
            gbdt_leaf_encode(back, X), gbdt_leaf_encode(ens, X)
        )

    def test_version_field(self, tmp_path):
        import json

        X = np.random.default_rng(0).random((10, 2))
        y = np.array([0, 1] * 5, dtype=float)
        path = str(tmp_path / "model.json")
        save_gbdt(gbdt_fit(X, y, n_trees=2, min_samples_leaf=2), path)
        doc = json.loads(open(path).read())
        assert doc["version"] == "gbdt-v1"
