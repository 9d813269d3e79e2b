import math

import numpy as np
import pytest

from sda import boost
from sda.boost import (
    GbdtEnsemble,
    RegressionTree,
    fit_regression_tree,
    gbdt_fit,
    gbdt_init,
    gbdt_leaf_encode,
    logistic_loss,
)
from sda.errors import NumericError
from sda.util import sigmoid

from conftest import assemble, pair_space


class TestInit:
    def test_balanced_labels_zero(self):
        assert gbdt_init([0, 1, 0, 1]) == 0.0

    def test_log_odds_closed_form(self):
        assert gbdt_init([1, 1, 1, 0]) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(NumericError, match="degenerate"):
            gbdt_init([1, 1, 1])


def raw_score(ens, X):
    """The ensemble's additive score: init plus every tree's scaled value."""
    scores = np.full(len(X), ens.init_score)
    for tree in ens.trees:
        scores += ens.learning_rate * tree.predict(*pair_space(X))
    return scores


def predict_proba(ens, X):
    return sigmoid(raw_score(ens, X))


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
        tree = fit_regression_tree(*pair_space(X), r, h, max_depth=3, min_samples_leaf=1)
        assert tree.n_leaves == 1
        expect = r.sum() / (h.sum() + 1e-6)
        assert tree.value[0] == pytest.approx(expect, rel=1e-12)

    def test_separable_depth_one_split_at_midpoint(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        r = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        h = np.full(6, 0.25)
        tree = fit_regression_tree(*pair_space(X), r, h, max_depth=1, min_samples_leaf=1)
        assert tree.n_leaves == 2
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(6.0, abs=1e-12)
        left_val = tree.predict(*pair_space([[0.0]]))[0]
        right_val = tree.predict(*pair_space([[11.0]]))[0]
        assert left_val == pytest.approx(-3.0 / (0.75 + 1e-6), rel=1e-9)
        assert right_val == pytest.approx(3.0 / (0.75 + 1e-6), rel=1e-9)

    def test_depth_zero_single_leaf(self):
        X = np.random.default_rng(0).random((8, 3))
        r = np.random.default_rng(1).random(8)
        tree = fit_regression_tree(*pair_space(X), r, np.full(8, 0.25), max_depth=0)
        assert tree.n_leaves == 1

    def test_min_samples_leaf_respected(self):
        X = np.arange(8.0).reshape(8, 1)
        r = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
        tree = fit_regression_tree(*pair_space(X), r, np.full(8, 0.25), max_depth=3, min_samples_leaf=3)
        leaves = tree.apply(*pair_space(X))
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 3

    def test_root_split_matches_bruteforce(self):
        rng = np.random.default_rng(13)
        for trial in range(30):
            n = int(rng.integers(4, 21))
            X = np.round(rng.random((n, 3)), 2)
            r = rng.normal(size=n)
            tree = fit_regression_tree(*pair_space(X), r, np.full(n, 0.25), max_depth=1,
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
            tree = fit_regression_tree(*pair_space(X), r, np.full(n, 0.25), max_depth=depth,
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
        tree = fit_regression_tree(*pair_space(X), r, np.full(4, 0.25), max_depth=1,
                                   min_samples_leaf=1)
        assert tree.n_leaves == 2
        assert tree.threshold[0] == a
        leaves = tree.apply(*pair_space(X))
        assert leaves[0] == leaves[1] != leaves[2] == leaves[3]

    def test_tiebreak_lowest_feature_then_threshold(self):
        # features 1 and 2 both split perfectly; feature 0 is useless
        X = np.array(
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]
        )
        r = np.array([-1.0, -1.0, 1.0, 1.0])
        tree = fit_regression_tree(*pair_space(X), r, np.full(4, 0.25), max_depth=1,
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
        ens, _ = gbdt_fit(*pair_space(X), y)
        assert ens.n_trees == 10 and len(ens.trees) == 10

    def test_zero_learning_rate_constant_prediction(self):
        X = np.random.default_rng(0).random((10, 2))
        y = np.array([0, 1] * 5, dtype=float)
        ens, _ = gbdt_fit(*pair_space(X), y, learning_rate=0.0)
        np.testing.assert_allclose(predict_proba(ens, X), 0.5, atol=1e-15)

    def test_xor_pattern_fit_exactly(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        ens, _ = gbdt_fit(*pair_space(X), y, max_depth=2, min_samples_leaf=1)
        proba = predict_proba(ens, X)
        assert np.array_equal(proba > 0.5, y.astype(bool))

    def test_training_loss_nonincreasing_50_datasets(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            X, y = self._random_dataset(rng)
            ens, _ = gbdt_fit(*pair_space(X), y, min_samples_leaf=2)
            hist = np.array(ens.loss_history)
            assert np.all(np.diff(hist) <= 1e-9)

    def test_loss_history_agrees_with_recomputation(self):
        rng = np.random.default_rng(5)
        X, y = self._random_dataset(rng)
        ens, _ = gbdt_fit(*pair_space(X), y)
        assert ens.loss_history[-1] == pytest.approx(
            logistic_loss(y, raw_score(ens, X)), rel=1e-12
        )

    def test_degenerate_labels_rejected(self):
        with pytest.raises(NumericError):
            gbdt_fit(*pair_space(np.zeros((4, 1))), np.ones(4))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        X, y = self._random_dataset(rng)
        a, _ = gbdt_fit(*pair_space(X), y)
        b, _ = gbdt_fit(*pair_space(X), y)
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
        ens, _ = gbdt_fit(*pair_space(X), y, min_samples_leaf=2, **kw)
        return X, y, ens

    def test_popcount_equals_n_trees(self):
        # one leaf index per tree, all distinct: the one-hot row has
        # n_trees ones
        X, y, ens = self._fitted()
        enc = gbdt_leaf_encode(ens, *pair_space(X))
        assert enc.shape == (30, ens.n_trees)
        assert all(len(set(row)) == ens.n_trees for row in enc.tolist())
        assert enc.min() >= 0 and enc.max() < ens.total_leaves

    def test_per_tree_blocks_one_hot(self):
        # column t is tree t's leaf: inside its block of the one-hot width
        X, y, ens = self._fitted(seed=1)
        enc = gbdt_leaf_encode(ens, *pair_space(X))
        for t, (offset, tree) in enumerate(zip(ens.leaf_offsets, ens.trees)):
            column = enc[:, t]
            assert np.all((column >= offset) & (column < offset + tree.n_leaves))
            np.testing.assert_array_equal(
                column, offset + tree.leaf_ordinal[tree.apply(*pair_space(X))]
            )

    def test_identical_routing_identical_encoding(self):
        X, y, ens = self._fitted(seed=2)
        x = X[4:5]
        a = gbdt_leaf_encode(ens, *pair_space(x))
        b = gbdt_leaf_encode(ens, *pair_space(x.copy()))
        np.testing.assert_array_equal(a, b)

    def test_depth3_trees_at_most_eight_leaves(self):
        X, y, ens = self._fitted(seed=3, max_depth=3)
        assert all(t.n_leaves <= 8 for t in ens.trees)
        assert ens.total_leaves == sum(t.n_leaves for t in ens.trees) <= 80

    def test_unfitted_rejected(self):
        empty = GbdtEnsemble([], 0.0, 0.1, 10)
        with pytest.raises(ValueError, match="no fitted trees"):
            gbdt_leaf_encode(empty, *pair_space(np.zeros((1, 3))))


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
        ens, _ = gbdt_fit(*pair_space(X), y, min_samples_leaf=2)
        for x in X[:10]:
            expect = ens.init_score + ens.learning_rate * sum(
                manual_tree_value(t, x) for t in ens.trees
            )
            got = raw_score(ens, x[None, :])[0]
            assert got == pytest.approx(expect, abs=1e-12)
            assert predict_proba(ens, x[None, :])[0] == pytest.approx(
                sigmoid(expect), abs=1e-12
            )

    def test_monotone_in_added_positive_tree(self):
        rng = np.random.default_rng(22)
        X = rng.random((20, 2))
        y = np.array([0, 1] * 10, dtype=float)
        ens, _ = gbdt_fit(*pair_space(X), y, n_trees=3, min_samples_leaf=2)
        before = predict_proba(ens, X)
        bonus = fit_regression_tree(*pair_space(X), np.full(20, 1.0), np.full(20, 0.25), max_depth=0)
        ens.trees.append(bonus)
        after = predict_proba(ens, X)
        assert np.all(after > before)



def dense_apply(tree, X):
    """Oracle: route assembled feature rows, one depth at a time."""
    node = np.zeros(len(X), dtype=np.int64)
    while True:
        active = np.flatnonzero(tree.feature[node] >= 0)
        if active.size == 0:
            return node
        at = node[active]
        go_left = X[active, tree.feature[at]] <= tree.threshold[at]
        node[active] = np.where(go_left, tree.left[at], tree.right[at])


def random_tree(rng, left, right, depth):
    """A random tree whose thresholds are exact values of the tested column,
    so pairs sitting on a threshold exercise the ``<=``."""
    width = left.shape[1]
    nodes = []

    def build(d):
        node = len(nodes)
        nodes.append([-1, np.nan, -1, -1, float(rng.normal())])
        if d < depth and rng.random() < 0.8:
            f = int(rng.integers(width + right.shape[1]))
            column = left[:, f] if f < width else right[:, f - width]
            nodes[node][:2] = f, float(rng.choice(column))
            nodes[node][2] = build(d + 1)
            nodes[node][3] = build(d + 1)
        return node

    build(0)
    feature, threshold, lo, hi, value = (np.array(c) for c in zip(*nodes))
    leaf = feature < 0
    return RegressionTree(
        feature.astype(np.int32), threshold, lo.astype(np.int32), hi.astype(np.int32),
        value, np.where(leaf, np.cumsum(leaf) - 1, -1).astype(np.int32), int(leaf.sum()),
    )


def tie_prone_pair_space(rng, n_pairs):
    """Entity tables on a coarse grid, with a duplicated entity row and a
    right column that copies a left column's partition, so nodes see many
    gains that tie in exact arithmetic."""
    n_left, n_right = int(rng.integers(3, 12)), int(rng.integers(2, 7))
    left = np.round(rng.random((n_left, int(rng.integers(1, 5)))), 1)
    right = np.round(rng.random((n_right, int(rng.integers(1, 5)))), 1)
    left[-1] = left[0]
    pairs = np.column_stack([
        rng.integers(0, n_left, n_pairs), rng.integers(0, n_right, n_pairs)
    ])
    return left, right, pairs


def tie_rule_best_split(X, r, min_samples_leaf):
    """Oracle on assembled rows: every (feature, midpoint) candidate; among
    gains within a relative 1e-12 of the largest, the lowest feature wins,
    then the lowest threshold."""
    candidates = []
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for lo, hi in zip(vals[:-1], vals[1:]):
            t = (lo + hi) / 2.0
            t = t if t < hi else lo
            mask = X[:, f] <= t
            n_left = int(mask.sum())
            if min(n_left, len(X) - n_left) < min_samples_leaf:
                continue
            gain = r[mask].sum() ** 2 / n_left + r[~mask].sum() ** 2 / (len(X) - n_left)
            candidates.append((gain, f, t))
    if not candidates:
        return None
    top = max(g for g, _, _ in candidates)
    return min((f, t) for g, f, t in candidates if g >= top * (1.0 - 1e-12))


class TestPairSpace:
    def test_routing_matches_dense_rows(self):
        rng = np.random.default_rng(41)
        for trial in range(60):
            left, right, pairs = tie_prone_pair_space(rng, int(rng.integers(1, 50)))
            if trial % 5 == 0:
                right = np.zeros((len(right), 0))  # a zero-width side
            tree = random_tree(rng, left, right, depth=int(rng.integers(0, 5)))
            np.testing.assert_array_equal(
                tree.apply(left, right, pairs),
                dense_apply(tree, assemble(left, right, pairs)),
            )

    def test_every_split_follows_the_tie_rule(self):
        rng = np.random.default_rng(43)
        n_nodes = 0
        for trial in range(60):
            n = int(rng.integers(20, 80))
            left, right, pairs = tie_prone_pair_space(rng, n)
            X = assemble(left, right, pairs)
            # multiples of 1/8 half the time (exact sums), else arbitrary floats
            r = rng.integers(-8, 9, n) / 8.0 if trial % 2 else rng.normal(size=n)
            msl, depth = (1, 2, 5)[trial % 3], 3 + trial % 2
            tree = fit_regression_tree(left, right, pairs, r, np.full(n, 0.25),
                                       max_depth=depth, min_samples_leaf=msl)
            stack = [(0, np.arange(n), 0)]
            while stack:
                node, rows, d = stack.pop()
                best = tie_rule_best_split(X[rows], r[rows], msl)
                f = int(tree.feature[node])
                if f < 0:
                    assert (d == depth or rows.size < 2 * msl
                            or np.all(r[rows] == r[rows][0]) or best is None)
                    continue
                n_nodes += 1
                t = float(tree.threshold[node])
                assert (f, t) == best, (trial, node)
                go_left = X[rows, f] <= t
                stack.append((int(tree.left[node]), rows[go_left], d + 1))
                stack.append((int(tree.right[node]), rows[~go_left], d + 1))
        assert n_nodes > 300


def walk_tie_rule(left, right, pairs, r, msl, depth):
    """Fit a tree and check each node against ``tie_rule_best_split`` on
    the assembled rows. Returns the tree and, per visited node, its rows and
    its children's rows (none at a leaf)."""
    X = assemble(left, right, pairs)
    tree = fit_regression_tree(left, right, pairs, r, np.full(len(r), 0.25),
                               max_depth=depth, min_samples_leaf=msl)
    visited = []
    stack = [(0, np.arange(len(r)), 0)]
    while stack:
        node, rows, d = stack.pop()
        best = tie_rule_best_split(X[rows], r[rows], msl)
        f = int(tree.feature[node])
        if f < 0:
            visited.append((rows, ()))
            assert (d == depth or rows.size < 2 * msl
                    or np.all(r[rows] == r[rows][0]) or best is None)
            continue
        t = float(tree.threshold[node])
        assert (f, t) == best, node
        go_left = X[rows, f] <= t
        visited.append((rows, (rows[go_left], rows[~go_left])))
        stack.append((int(tree.left[node]), rows[go_left], d + 1))
        stack.append((int(tree.right[node]), rows[~go_left], d + 1))
    return tree, visited


class TestSplitSearch:
    """The dense gain tables and the entity restriction behind each split."""

    @staticmethod
    def _sides(table):
        order = np.argsort(table.T, axis=1, kind="stable")
        return order, np.take_along_axis(table.T, order, axis=1)

    def test_keep_present_restricts_in_order(self):
        table = np.round(np.random.default_rng(3).random((7, 3)), 1)
        order, vals = self._sides(table)
        kept, kept_vals = boost._keep_present(order, vals, np.array([4, 1, 4, 6]), 7)
        assert kept.shape == kept_vals.shape == (3, 3)
        for f in range(3):
            expect = [e for e in order[f] if e in (1, 4, 6)]
            assert kept[f].tolist() == expect
            assert kept_vals[f].tolist() == table[expect, f].tolist()

    def test_keep_present_returns_unchanged_orders(self):
        # no entity dropped out: the parent's arrays, not copies
        table = np.round(np.random.default_rng(4).random((5, 2)), 1)
        order, vals = self._sides(table)
        kept, kept_vals = boost._keep_present(order, vals, np.array([3, 0, 1, 4, 2, 0]), 5)
        assert kept is order and kept_vals is vals

    @pytest.mark.parametrize("msl", (1, 2, 4))
    def test_side_gains_every_position(self, msl):
        rng = np.random.default_rng(5 + msl)
        table = np.round(rng.random((6, 3)), 1)
        ent = rng.integers(0, 6, 25)
        r = rng.normal(size=25)
        order, vals = boost._keep_present(*self._sides(table), ent, 6)
        gains = boost._side_gains(order, vals, ent, r, float(r.sum()), msl)
        m, width = len(r), order.shape[1]
        assert gains.shape == order.shape and width == len(set(ent.tolist()))
        for f in range(len(order)):
            for q in range(width):
                left = np.isin(ent, order[f, : q + 1])
                n_left = int(left.sum())
                if (q < width - 1 and vals[f, q] < vals[f, q + 1]
                        and msl <= n_left <= m - msl):
                    expect = (r[left].sum() ** 2 / n_left
                              + r[~left].sum() ** 2 / (m - n_left))
                    assert gains[f, q] == pytest.approx(expect, rel=1e-12)
                else:
                    assert gains[f, q] == -np.inf

    def test_min_samples_leaf_leaves_no_candidate(self):
        # the one threshold puts 3 rows left: a candidate at 3, none at 4
        X = np.array([[0.0]] * 3 + [[1.0]] * 7)
        r = np.array([-1.0, 1.0] * 5)
        for msl, n_leaves in ((3, 2), (4, 1)):
            tree = fit_regression_tree(*pair_space(X), r, np.full(10, 0.25),
                                       max_depth=2, min_samples_leaf=msl)
            assert tree.n_leaves == n_leaves
        tables, ents, sides = boost._prepare(*pair_space(X))
        gains = boost._side_gains(*sides[0][1:], ents[0], r, float(r.sum()), 4)
        assert np.all(gains == -np.inf)
        assert boost._best_split(sides, ents, r, 4) is None

    @staticmethod
    def _drops(pairs, visited):
        """For each child of a split: whether it lost entities on the left
        side and on the right side, against its parent."""
        pairs = np.asarray(pairs)

        def present(rows):
            return [set(pairs[rows, side].tolist()) for side in (0, 1)]

        return [
            tuple(c < p for c, p in zip(present(child), present(rows)))
            for rows, children in visited
            for child in children
        ]

    def test_entities_drop_out_on_the_split_side_only(self):
        # every left entity meets every right one: a split on one side keeps
        # all of the other side's entities in both children
        rng = np.random.default_rng(8)
        left = np.round(rng.random((9, 2)), 1)
        right = np.round(rng.random((4, 2)), 1)
        pairs = [(a, b) for a in range(9) for b in range(4)]
        X = assemble(left, right, pairs)
        r = np.sign(X[:, 0] - 0.5) + 0.5 * X[:, 2] + rng.integers(-2, 3, len(pairs)) / 8.0
        _, visited = walk_tie_rule(left, right, pairs, r, msl=2, depth=4)
        drops = self._drops(pairs, visited)
        assert drops and all(sum(d) == 1 for d in drops)
        assert set(drops) == {(True, False), (False, True)}

    def test_entities_drop_out_on_both_sides(self):
        # left entities below 5 meet right entities 0-2 only, the rest 3-5:
        # a split between the blocks drops entities on both sides
        rng = np.random.default_rng(9)
        left = np.round(rng.random((10, 2)), 1)
        left[:, 0] = np.arange(10) >= 5
        right = np.round(rng.random((6, 2)), 1)
        pairs = [(a, b) for a in range(10) for b in range(6) if (a >= 5) == (b >= 3)]
        X = assemble(left, right, pairs)
        r = 2.0 * X[:, 0] - 1.0 + rng.integers(-4, 5, len(pairs)) / 8.0
        _, visited = walk_tie_rule(left, right, pairs, r, msl=2, depth=3)
        assert (True, True) in self._drops(pairs, visited)

    def test_zero_width_left_side(self):
        # the left table has no column, so every split tests the right one
        rng = np.random.default_rng(10)
        X = np.round(rng.random((40, 3)), 1)
        r = rng.integers(-8, 9, 40) / 8.0
        pairs = [(0, i) for i in range(40)]
        tree, visited = walk_tie_rule(np.zeros((1, 0)), X, pairs, r, msl=2, depth=3)
        assert sum(bool(children) for _, children in visited) > 3
        mirrored = fit_regression_tree(*pair_space(X), r, np.full(40, 0.25),
                                       max_depth=3, min_samples_leaf=2)
        assert np.array_equal(tree.feature, mirrored.feature)
        assert np.array_equal(tree.threshold, mirrored.threshold, equal_nan=True)

    def test_repeated_columns_follow_the_tie_rule(self):
        # a column equal to an earlier one is never searched; the earlier one
        # wins every tie it would have made
        rng = np.random.default_rng(11)
        base = np.round(rng.random((12, 3)), 1)
        left = base[:, [1, 0, 1, 2, 0]]
        right = np.round(rng.random((5, 2)), 1)[:, [0, 0, 1]]
        pairs = np.column_stack([rng.integers(0, 12, 70), rng.integers(0, 5, 70)])
        r = rng.integers(-8, 9, 70) / 8.0
        tree, visited = walk_tie_rule(left, right, pairs, r, msl=2, depth=4)
        assert sum(bool(children) for _, children in visited) > 5
        assert not set(tree.feature[tree.feature >= 0].tolist()) & {2, 4, 6}

    def test_grower_records_each_training_rows_leaf(self):
        rng = np.random.default_rng(12)
        left, right, pairs = tie_prone_pair_space(rng, 60)
        r = rng.normal(size=60)
        tables, ents, sides = boost._prepare(left, right, pairs)
        tree, leaf_of_row = boost._grow_tree(
            tables, ents, sides, r, np.full(60, 0.25), 4, 2, 1e-6
        )
        np.testing.assert_array_equal(leaf_of_row, tree.apply(left, right, pairs))

    def test_training_scores_equal_summed_predictions(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            left, right, pairs = tie_prone_pair_space(rng, int(rng.integers(20, 80)))
            y = (rng.random(len(pairs)) < 0.5).astype(float)
            y[:2] = [0.0, 1.0]
            ens, _ = gbdt_fit(left, right, pairs, y, n_trees=6, min_samples_leaf=2)
            scores = np.full(len(y), ens.init_score)
            for t, tree in enumerate(ens.trees):
                scores = scores + ens.learning_rate * tree.predict(left, right, pairs)
                assert ens.loss_history[t + 1] == logistic_loss(y, scores)

    def test_fit_returns_training_leaves_as_encoded(self):
        rng = np.random.default_rng(14)
        left, right, pairs = tie_prone_pair_space(rng, 70)
        y = (rng.random(len(pairs)) < 0.5).astype(float)
        y[:2] = [0.0, 1.0]
        ens, leaves = gbdt_fit(left, right, pairs, y, n_trees=5, min_samples_leaf=2)
        encoded = gbdt_leaf_encode(ens, left, right, pairs)
        assert leaves.dtype == encoded.dtype
        np.testing.assert_array_equal(leaves, encoded)

    def test_fit_needs_a_tree(self):
        left, right, pairs = tie_prone_pair_space(np.random.default_rng(15), 10)
        with pytest.raises(ValueError, match="n_trees"):
            gbdt_fit(left, right, pairs, np.arange(10) % 2, n_trees=0)
