import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sda import svm
from sda.errors import DataError, NumericError
from sda.model import grid_search
from sda.svm import (
    SvmModel,
    leaf_kernel,
    smo_train,
    svm_decision,
)


def rbf_kernel(x, y, gamma):
    """exp(-gamma * ||x - y||^2) for one pair of points."""
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.exp(-gamma * np.dot(d, d)))


def one_hot(leaves, width):
    """The one-hot encoding of leaf rows, one block of ``width`` per tree."""
    leaves = np.atleast_2d(leaves)
    out = np.zeros((len(leaves), leaves.shape[1], width))
    np.put_along_axis(out, leaves[:, :, None], 1.0, axis=2)
    return out.reshape(len(leaves), -1)


def rbf_oracle(A, B, gamma):
    """The RBF kernel between the one-hot encodings of leaf rows A and B."""
    width = int(max(np.max(A), np.max(B))) + 1
    return np.array(
        [[rbf_kernel(x, y, gamma) for y in one_hot(B, width)] for x in one_hot(A, width)]
    )


def leaf_rows(rng, n, n_trees=4, n_leaves=4):
    """``n`` random leaf rows, tree t's leaves numbered from t * n_leaves as
    ``gbdt_leaf_encode`` numbers them."""
    return rng.integers(0, n_leaves, size=(n, n_trees)) + n_leaves * np.arange(n_trees)


class TestRbfKernel:
    def test_same_point(self):
        assert leaf_kernel(np.array([[1, 6]]), np.array([[1, 6]]), 0.7)[0, 0] == 1.0

    def test_zero_gamma(self):
        assert leaf_kernel(np.array([[0, 4]]), np.array([[3, 7]]), 0.0)[0, 0] == 1.0

    def test_hand_value(self):
        # one of two leaves differs: ||x - y||^2 = 2
        assert leaf_kernel(np.array([[0, 4]]), np.array([[1, 4]]), 0.5)[0, 0] == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    @pytest.mark.parametrize("n_trees", [1, 2, 7])
    @pytest.mark.parametrize("gamma", [0.0, 0.05, 0.5, 3.0])
    def test_equals_one_hot_rbf_exactly(self, n_trees, gamma):
        rng = np.random.default_rng(n_trees)
        A = leaf_rows(rng, 9, n_trees, n_leaves=3)
        A = np.vstack([A, A[:4]])  # duplicate rows
        B = np.vstack([leaf_rows(rng, 6, n_trees, n_leaves=3), A[5:7]])
        assert np.array_equal(leaf_kernel(A, B, gamma), rbf_oracle(A, B, gamma))
        assert np.array_equal(leaf_kernel(A, A, gamma), rbf_oracle(A, A, gamma))

    def test_gram_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(0)
        X = leaf_rows(rng, 12, n_trees=4, n_leaves=2)  # 16 patterns: repeats
        K = leaf_kernel(X, X, 0.8)
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == 1.0)
        assert np.all(K > 0.0) and np.all(K <= 1.0)


def grid_dual_max(K, y, C, steps):
    """Brute-force dual maximization over a alpha-grid on the constraint
    manifold: free coordinates on a lattice, the last solved exactly from
    sum(alpha_i y_i) = 0 and box-checked."""
    n = len(y)
    vals = np.linspace(0.0, C, steps + 1)
    best = -np.inf
    Q = np.outer(y, y) * K
    chunk_dims = n - 1
    for head in itertools.product(vals, repeat=max(0, chunk_dims - 3)):
        tail_dims = min(3, chunk_dims)
        grids = np.meshgrid(*([vals] * tail_dims), indexing="ij")
        tail = np.stack([g.ravel() for g in grids], axis=1)
        lead = np.tile(np.array(head), (len(tail), 1)) if head else np.zeros((len(tail), 0))
        free = np.hstack([lead, tail])  # (m, n-1)
        a_last = -y[-1] * (free @ y[:-1])
        ok = (a_last >= -1e-12) & (a_last <= C + 1e-12)
        if not ok.any():
            continue
        alphas = np.hstack([free[ok], np.clip(a_last[ok], 0.0, C)[:, None]])
        w = alphas.sum(axis=1) - 0.5 * np.einsum("ij,jk,ik->i", alphas, Q, alphas)
        best = max(best, float(w.max()))
    return best


def random_problem(rng, n, gamma=0.5, C=1.0):
    """``n`` distinct random leaf rows, labels of both classes, and the
    one-hot RBF Gram of the rows."""
    codes = rng.choice(4**4, size=n, replace=False)
    X = (codes[:, None] // 4 ** np.arange(4)) % 4 + 4 * np.arange(4)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    K = rbf_oracle(X, X, gamma)
    return X, y, K


class TestSmoTraining:
    def test_two_point_separable_analytic(self):
        # one tree, two leaves: ||x1 - x2||^2 = 2, so K12 = exp(-2) at
        # gamma = 1; symmetric pair: alpha* = 1/(1 - e^-2), b = 0
        X = np.array([[0], [1]])
        y = np.array([-1.0, 1.0])
        model = smo_train(X, y, C=1e6, gamma=1.0, tol=1e-6)
        assert model.converged
        expect_alpha = 1.0 / (1.0 - math.exp(-2.0))
        assert len(model.alphas) == 2
        np.testing.assert_allclose(model.alphas, expect_alpha, rtol=1e-4)
        assert model.bias == pytest.approx(0.0, abs=1e-4)
        # a third leaf is equidistant from both: decision 0 by symmetry
        assert svm_decision(model, np.array([[2]]))[0] == pytest.approx(0.0, abs=1e-6)

    def test_duplicate_conflicting_labels_hit_bound(self):
        X = np.array([[1, 4], [1, 4]])
        y = np.array([1.0, -1.0])
        C = 2.0
        model = smo_train(X, y, C=C, gamma=0.3, tol=1e-6)
        # dual: W = a1 + a2 - 0.5 (a1 - a2)^2, constraint a1 = a2 -> max at C
        K = rbf_oracle(X, X, 0.3)
        expect = grid_dual_max(K, y, C, steps=200)
        np.testing.assert_allclose(np.sort(model.alphas), [C, C], atol=1e-8)
        assert model.dual_objective == pytest.approx(expect, abs=1e-4)

    def test_vanishing_c_gives_constant_decision(self):
        rng = np.random.default_rng(3)
        X, y, _ = random_problem(rng, 10)
        C = 1e-8
        model = smo_train(X, y, C=C, gamma=0.5)
        assert np.all(model.alphas <= C + 1e-18)
        probe = leaf_rows(rng, 5)
        np.testing.assert_allclose(
            svm_decision(model, probe), model.bias, atol=len(y) * C
        )

    def test_decision_matches_manual_expansion(self):
        rng = np.random.default_rng(4)
        X, y, _ = random_problem(rng, 14)
        model = smo_train(X, y, C=1.0, gamma=0.5)
        probe = leaf_rows(rng, 6)
        for x in probe:
            expect = model.bias + sum(
                a * l * rbf_oracle(sv, x, model.gamma)[0, 0]
                for a, l, sv in zip(model.alphas, model.labels, model.support_vectors)
            )
            assert svm_decision(model, x[None, :])[0] == pytest.approx(expect, abs=1e-12)

    def test_zero_alpha_points_do_not_matter(self):
        rng = np.random.default_rng(5)
        X, y, _ = random_problem(rng, 16)
        model = smo_train(X, y, C=1.0, gamma=0.5)
        # stored support set already excludes zero alphas; padding them back
        # must leave the decision untouched
        pad_sv = np.vstack([model.support_vectors, X[:3]])
        pad_alpha = np.concatenate([model.alphas, np.zeros(3)])
        pad_label = np.concatenate([model.labels, y[:3]])
        probe = leaf_rows(rng, 4)
        K = rbf_oracle(pad_sv, probe, model.gamma)
        padded = (pad_alpha * pad_label) @ K + model.bias
        np.testing.assert_allclose(svm_decision(model, probe), padded, atol=1e-12)

    def test_free_support_vector_sits_on_margin(self):
        rng = np.random.default_rng(6)
        X, y, _ = random_problem(rng, 20)
        model = smo_train(X, y, C=5.0, gamma=0.5, tol=1e-3)
        assert model.converged
        free = (model.alphas > 1e-9) & (model.alphas < 5.0 - 1e-9)
        if free.any():
            f = svm_decision(model, model.support_vectors[free])
            margins = model.labels[free] * f
            np.testing.assert_allclose(margins, 1.0, atol=2e-3)

    def test_single_class_rejected(self):
        with pytest.raises(NumericError):
            smo_train(np.zeros((3, 1), dtype=int), np.ones(3), C=1.0, gamma=0.1)


def kkt_violations(model, X, y, C, tol):
    """Worst violation of each KKT case, recomputed from scratch."""
    f = svm_decision(model, X)
    # reconstruct full alpha vector over X rows by matching support rows
    alphas = np.zeros(len(X))
    used = np.zeros(len(model.alphas), dtype=bool)
    for i, x in enumerate(X):
        for j in range(len(model.alphas)):
            if not used[j] and np.array_equal(model.support_vectors[j], x):
                alphas[i] = model.alphas[j]
                used[j] = True
                break
    worst = 0.0
    for i in range(len(X)):
        m = y[i] * f[i]
        if alphas[i] <= 1e-12:
            worst = max(worst, (1.0 - tol) - m)
        elif alphas[i] >= C - 1e-12:
            worst = max(worst, m - (1.0 + tol))
        else:
            worst = max(worst, abs(m - 1.0) - tol)
    return worst


class TestKktAndDual:
    def test_kkt_and_constraint_on_50_random_datasets(self):
        rng = np.random.default_rng(7)
        tol = 1e-3
        for trial in range(50):
            n = int(rng.integers(6, 26))
            X, y, _ = random_problem(rng, n)
            C = float(rng.choice([0.5, 1.0, 5.0]))
            model = smo_train(X, y, C=C, gamma=0.5, tol=tol)
            assert model.converged, f"trial {trial} failed to converge"
            assert np.all(model.alphas >= 0.0)
            assert np.all(model.alphas <= C + 1e-12)
            assert abs(np.dot(model.alphas, model.labels)) <= 1e-6
            assert kkt_violations(model, X, y, C, tol) <= 1e-9

    def test_dual_matches_fine_grid_small_n(self):
        rng = np.random.default_rng(8)
        for trial, (n, steps) in enumerate([(3, 400), (3, 400), (4, 120), (4, 120)]):
            X, y, K = random_problem(rng, n)
            C = 1.0
            model = smo_train(X, y, C=C, gamma=0.5, tol=1e-6)
            expect = grid_dual_max(K, y, C, steps)
            assert model.dual_objective == pytest.approx(expect, abs=1e-4)

    def test_dual_at_least_coarse_grid_n56(self):
        rng = np.random.default_rng(9)
        for n in (5, 6):
            X, y, K = random_problem(rng, n)
            C = 1.0
            model = smo_train(X, y, C=C, gamma=0.5, tol=1e-6)
            coarse = grid_dual_max(K, y, C, steps=20)
            assert model.dual_objective >= coarse - 1e-4


def solver_state(model, X, y):
    """Full alpha vector over the rows of X (support rows matched by vector
    and label) and v = y - g, recomputed from scratch."""
    alphas = np.zeros(len(X))
    used = np.zeros(len(model.alphas), dtype=bool)
    for i, (x, label) in enumerate(zip(X, y)):
        for j in np.flatnonzero(~used):
            if model.labels[j] == label and np.array_equal(model.support_vectors[j], x):
                alphas[i] = model.alphas[j]
                used[j] = True
                break
    assert used.all()
    v = y - (svm_decision(model, X) - model.bias)
    return alphas, v


def violating_pair_gap(alphas, v, y, C):
    """max over I_up of v minus min over I_low of v."""
    up = np.where(y > 0, alphas < C, alphas > 0)
    low = np.where(y > 0, alphas > 0, alphas < C)
    return float(v[up].max() - v[low].min())


def kkt_excess(alphas, v, y, bias, C, tol):
    """Worst KKT violation beyond ``tol`` under the model's bias."""
    margin = 1.0 + y * (bias - v)  # y * f
    lower = np.where(alphas > 0, -np.inf, 1.0 - tol)  # alpha == 0: margin >= 1 - tol
    upper = np.where(alphas < C, np.inf, 1.0 + tol)  # alpha == C: margin <= 1 + tol
    free = (alphas > 0) & (alphas < C)
    lower[free], upper[free] = 1.0 - tol, 1.0 + tol
    return float(max(np.max(lower - margin), np.max(margin - upper), 0.0))


class TestWss2Solver:
    def test_gap_below_tol_recomputed_from_scratch(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            n = int(rng.integers(6, 40))
            X, y, _ = random_problem(rng, n)
            C = float(rng.choice([0.5, 5.0, 100.0]))
            tol = float(rng.choice([1e-3, 1e-6]))
            model = smo_train(X, y, C=C, gamma=0.5, tol=tol)
            assert model.converged
            alphas, v = solver_state(model, X, y)
            assert violating_pair_gap(alphas, v, y, C) < tol, trial

    @pytest.mark.parametrize("gamma", (0.1, 1e-14, 1e-17))
    def test_precomputed_counts_and_gram_change_no_bit(self, gamma):
        # the grid search passes each fold's shared-leaf counts and Gram;
        # at 1e-14 every curvature off the diagonal lies in (0, TAU), and at
        # 1e-17 every kernel value rounds to 1, so every curvature is TAU
        rng = np.random.default_rng(34)
        X = leaf_rows(rng, 30, n_trees=2, n_leaves=3)
        y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        X = np.vstack([X, X[:8], X[:8]])
        y = np.concatenate([y, -y[:8], y[:8]])
        table = svm.kernel_table(X.shape[1], gamma)
        curv = 2.0 - 2.0 * table[:-1]
        if gamma == 1e-14:
            assert np.all((curv > 0.0) & (curv < svm.TAU))
        elif gamma == 1e-17:
            assert np.all(table == 1.0)
        S = svm.shared_leaves(X, X)
        K = leaf_kernel(X, X, gamma)
        got = smo_train(X, y, 10.0, gamma, gram=K, shared=S)
        want = smo_train(X, y, 10.0, gamma)
        assert np.array_equal(got.alphas, want.alphas)
        assert np.array_equal(got.support, want.support)
        assert got.bias.hex() == want.bias.hex()
        assert got.dual_objective.hex() == want.dual_objective.hex()
        assert got.n_sweeps == want.n_sweeps

    def test_two_calls_bitwise_equal(self):
        rng = np.random.default_rng(18)
        X, y, _ = random_problem(rng, 30)
        a = smo_train(X, y, C=5.0, gamma=0.5)
        b = smo_train(X, y, C=5.0, gamma=0.5)
        for field in ("support_vectors", "alphas", "labels"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert (a.bias, a.n_sweeps, a.dual_objective) == (b.bias, b.n_sweeps, b.dual_objective)

    @pytest.mark.filterwarnings("error")  # no 0/0 or x/0 on the tau path
    @pytest.mark.parametrize("conflicting", [False, True])
    def test_duplicate_rows_converge(self, conflicting):
        # Repeated rows give zero curvature between them (the tau path);
        # with conflicting labels the repeated pair can only sit at C.
        rng = np.random.default_rng(19)
        X, y, _ = random_problem(rng, 16)
        X = np.vstack([X, X[:6], X[:6]])
        y = np.concatenate([y, -y[:6] if conflicting else y[:6], y[:6]])
        C, tol = 2.0, 1e-3
        model = smo_train(X, y, C=C, gamma=0.5, tol=tol)
        assert model.converged
        alphas, v = solver_state(model, X, y)
        assert np.all((alphas >= 0.0) & (alphas <= C))
        assert abs(np.dot(alphas, y)) <= 1e-9
        assert violating_pair_gap(alphas, v, y, C) < tol
        assert kkt_excess(alphas, v, y, model.bias, C, tol) <= 1e-9

    def test_one_gradient_from_scratch_per_converged_fit(self, monkeypatch):
        # The stop test reads a gradient summed from scratch over every
        # training row, and the bias and dual objective reuse it.
        X, y, _ = random_problem(np.random.default_rng(31), 60)
        sums = []
        row_sums = svm._decision

        def counted(n, kernel_rows, weights):
            sums.append(n)
            return row_sums(n, kernel_rows, weights)

        monkeypatch.setattr(svm, "_decision", counted)
        model = smo_train(X, y, C=10.0, gamma=0.3)
        assert model.converged and model.n_sweeps > 0
        assert sums == [len(y)]

    def test_step_cap_reports_unconverged_feasible_duals(self, caplog):
        rng = np.random.default_rng(21)
        X, y, _ = random_problem(rng, 20)
        assert smo_train(X, y, C=100.0, gamma=2.0).n_sweeps > 1
        with caplog.at_level("WARNING"):
            model = smo_train(X, y, C=100.0, gamma=2.0, max_passes=1)
        assert not model.converged
        assert model.n_sweeps == 1
        assert any("did not converge" in r.message for r in caplog.records)
        assert np.all((model.alphas >= 0.0) & (model.alphas <= 100.0))
        assert abs(np.dot(model.alphas, model.labels)) <= 1e-9

    # (n_sweeps, converged, sha256 of alphas, sha256 of support vectors,
    # bias.hex(), dual_objective.hex()): a rewrite of the step loop must keep
    # every iterate, so these must not move.
    PINNED = {
        "random-60": (
            4, True,
            "eff5f25ce3bdbef5950e6dfe3ab7102cc78aed89f6dd5b933153fa2ee936b22d",
            "ad74987fa76514bcd46b4a8f7526fab67d73006a2a6d676acaa424911ae84a46",
            "0x1.73afe683a5346p-4", "0x1.08cd98ac16126p+6",
        ),
        "conflicting-repeats": (
            2, True,
            "a7e017d983cbf32682e35efbd905526332c24eff8e481345eea37e4b4f049588",
            "bb118ea0cf75adb01f20856220c77e7713c926230297021cf8c8453523842e9c",
            "-0x1.311734eac498ap-6", "0x1.5e88158db9bd6p+5",
        ),
        "capped": (
            1, False,
            "bab6a1e498508345b56b460c46d374530abf6ec30dc920595371da3880644c91",
            "2816aba44d0f7ce6326d0d8d6683c75d0ded15a8eb9758a81fc3ab026d158f85",
            "0x1.9d283b700ad2ap-4", "0x1.3bcb9bfae4a2ap+4",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_iterates_pinned(self, case):
        if case == "random-60":
            X, y, _ = random_problem(np.random.default_rng(31), 60)
            model = smo_train(X, y, C=10.0, gamma=0.3)
        elif case == "conflicting-repeats":
            X, y, _ = random_problem(np.random.default_rng(32), 24)
            X = np.vstack([X, X[:8], X[:8]])
            y = np.concatenate([y, -y[:8], y[:8]])
            model = smo_train(X, y, C=2.0, gamma=0.5)
        else:
            X, y, _ = random_problem(np.random.default_rng(33), 40)
            model = smo_train(X, y, C=100.0, gamma=2.0, max_passes=1)
        assert (
            model.n_sweeps,
            model.converged,
            hashlib.sha256(model.alphas.tobytes()).hexdigest(),
            hashlib.sha256(model.support_vectors.tobytes()).hexdigest(),
            model.bias.hex(),
            model.dual_objective.hex(),
        ) == self.PINNED[case]


def separable(rng, n=40):
    # two centre patterns; each leaf moves to a random one w.p. 0.3
    centers = np.array([[0, 4, 8, 12], [1, 5, 9, 13]])
    y = np.array([0, 1] * (n // 2))
    X = np.where(rng.random((n, 4)) < 0.3, leaf_rows(rng, n), centers[y])
    return X, y


class TestGridSearch:
    def test_singleton_grid_returns_it(self):
        rng = np.random.default_rng(10)
        X, y = separable(rng)
        c, g, scores = grid_search(X, y, [2.0], [0.3], seed=0)
        assert (c, g) == (2.0, 0.3)
        assert list(scores) == [(2.0, 0.3)]
        assert len(scores[(2.0, 0.3)]) == 5  # five folds by default

    def test_choice_maximizes_mean_fold_auc(self):
        rng = np.random.default_rng(11)
        X, y = separable(rng, n=50)
        c, g, scores = grid_search(X, y, [0.01, 1.0, 10.0], [0.01, 0.8], seed=1)
        means = {cell: float(np.mean(v)) for cell, v in scores.items()}
        assert means[(c, g)] == max(means.values())

    def test_tie_breaks_to_smaller_c_then_gamma(self):
        # one perfectly separable blob pair: many cells reach AUC 1.0
        rng = np.random.default_rng(12)
        y = np.array([0, 1] * 15)
        X = np.column_stack([y, 2 + y, 4 + rng.integers(0, 2, 30)])
        c, g, scores = grid_search(X, y, [1.0, 10.0], [0.1, 1.0], seed=2)
        means = {cell: round(float(np.mean(v)), 12) for cell, v in scores.items()}
        top = max(means.values())
        winners = sorted([cell for cell, m in means.items() if m == top])
        assert (c, g) == winners[0]

    def test_scores_equal_per_cell_training_exactly(self):
        # The shared (fold, gamma) Gram must give bit-for-bit the scores of
        # training every cell on its own.
        from sda.evaluation import roc_auc, stratified_kfold

        rng = np.random.default_rng(20)
        X, y = separable(rng, n=50)
        cs, gammas = [0.1, 1.0, 10.0], [0.05, 0.8]
        _, _, scores = grid_search(X, y, cs, gammas, seed=7)
        fold_index = stratified_kfold(y, 5, 7)
        expect = {}
        for C in cs:
            for gamma in gammas:
                expect[(C, gamma)] = []
                for f in range(5):
                    test = fold_index == f
                    model = smo_train(X[~test], y[~test], C=C, gamma=gamma)
                    expect[(C, gamma)].append(
                        roc_auc(svm_decision(model, X[test]), y[test])
                    )
        assert scores == expect

    # The search folds as the CV does: each class needs a row per fold, and
    # with fewer it stops before training any cell.
    def test_class_below_n_folds_is_data_error(self, monkeypatch):
        y = np.array([1, 1, 1] + [0] * 9)  # 3 positives < 5 folds
        self._assert_no_fit_data_error(monkeypatch, y, "class 1 has 3 samples")

    def test_lone_positive_is_data_error(self, monkeypatch):
        y = np.array([1] + [0] * 7)
        self._assert_no_fit_data_error(monkeypatch, y, "class 1 has 1 samples")

    @staticmethod
    def _assert_no_fit_data_error(monkeypatch, y, message):
        fits = []
        monkeypatch.setattr("sda.model.smo_train", lambda *args, **kwargs: fits.append(args))
        X = leaf_rows(np.random.default_rng(13), len(y))
        with pytest.raises(DataError, match=f"{message}, fewer than 5 folds"):
            grid_search(X, y, [1.0, 10.0], [0.5], seed=3)
        assert fits == []


class TestScoreBlocks:
    """Scoring, and the solver's gradient, walk the rows a block at a time;
    the block size changes no bit of a score or a fit."""

    def test_svm_decision(self, monkeypatch):
        rng = np.random.default_rng(31)
        X, y, _ = random_problem(rng, 30)
        model = smo_train(X, y, C=1.0, gamma=0.5)
        # empty, under one block, one whole block, a final partial block
        probes = [leaf_rows(rng, n) for n in (0, 2, 3, 10)]
        with monkeypatch.context() as patch:
            patch.setattr(svm, "SCORE_BLOCK", 3)
            got = [svm_decision(model, probe) for probe in probes]
        for probe, scores in zip(probes, got):
            assert np.array_equal(scores, svm_decision(model, probe))

    def test_smo_train(self, monkeypatch):
        # the solver's gradient is summed over the Gram's rows the same way
        X, y, _ = random_problem(np.random.default_rng(33), 40)
        want = smo_train(X, y, C=10.0, gamma=0.3)
        monkeypatch.setattr(svm, "SCORE_BLOCK", 3)
        got = smo_train(X, y, C=10.0, gamma=0.3)
        assert np.array_equal(got.alphas, want.alphas)
        assert (got.bias.hex(), got.dual_objective.hex()) == (
            want.bias.hex(), want.dual_objective.hex()
        )

    @pytest.mark.parametrize("n", [10, 50], ids=["under-one", "partial"])
    def test_grid_search_score_table(self, monkeypatch, n):
        # test folds of 2 and of 10 rows
        X, y = separable(np.random.default_rng(32), n=n)
        grid = [0.1, 10.0], [0.05, 0.8]
        want = grid_search(X, y, *grid, seed=3)
        monkeypatch.setattr(svm, "SCORE_BLOCK", 3)
        assert grid_search(X, y, *grid, seed=3) == want


class TestMemory:
    def test_smo_peak_below_two_grams(self):
        # The Gram is the one n x n float64 array; the shared-leaf counts
        # beside it are one byte per entry.
        rng = np.random.default_rng(22)
        n = 800
        X = leaf_rows(rng, n, n_trees=10)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        tracemalloc.start()
        try:
            smo_train(X, y, C=1.0, gamma=0.1, max_passes=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n * 8

    def test_decision_peak_independent_of_row_count(self):
        # Scoring holds one block of kernel rows beside the scores: at 200
        # support vectors that is under 1 MB, where the kernel of all
        # 20,000 rows would take 32 MB.
        rng = np.random.default_rng(23)
        n, n_sv = 20_000, 200
        X = leaf_rows(rng, n, n_trees=10, n_leaves=8)
        model = SvmModel(
            support_vectors=leaf_rows(rng, n_sv, n_trees=10, n_leaves=8),
            support=np.arange(n_sv),
            alphas=rng.random(n_sv), labels=np.where(rng.random(n_sv) < 0.5, 1.0, -1.0),
            bias=0.1, gamma=0.05,
        )
        tracemalloc.start()
        try:
            svm_decision(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * 8 + 2 * 2**20
