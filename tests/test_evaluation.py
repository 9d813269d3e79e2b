from types import SimpleNamespace

import numpy as np
import pytest

from sda import evaluation, pipeline
from sda.config import PipelineConfig
from sda.errors import DataError, NumericError
from sda.evaluation import (
    curves,
    fold_metrics,
    holdout_standing,
    roc_auc,
    stratified_kfold,
)
from sda.model import SvmParams
from sda.util import sigmoid

from conftest import pair_space


def roc_auc_oracle(scores, labels):
    """Brute force: count positive-negative pairs, ties worth one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def pr_auc_oracle(scores, labels):
    """Direct step sum over distinct descending thresholds."""
    thresholds = sorted(set(scores), reverse=True)
    n_pos = sum(labels)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def curves_oracle(scores, labels):
    """Direct (FAR, TAR) and (recall, precision) at each distinct
    descending threshold, the ROC curve from (0, 0)."""
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    roc, pr = [(0.0, 0.0)], []
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
        roc.append((fp / n_neg, tp / n_pos))
        pr.append((tp / n_pos, tp / (tp + fp)))
    return roc, pr


def standing_oracle(grid, candidates, s, d, top_k):
    """One pair's standing, counted over its disease's candidates one by one."""
    mine = float(grid[s, d])
    column = [float(grid[i, d]) for i in range(grid.shape[0]) if candidates[i, d]]
    below = sum(1 for v in column if v < mine)
    ties = sum(1 for v in column if v == mine)
    rank = 1 + sum(1 for v in column if v > mine)
    return {
        "score": mine,
        "percentile": 100.0 * (below + 0.5 * ties) / len(column),
        "rank_in_disease": rank,
        "n_candidates": len(column),
        "in_top_k": rank <= top_k,
    }


def auprc(scores, labels):
    return fold_metrics(scores, labels)["auprc"]


def random_instance(rng, max_n=50):
    """Random scores with deliberate ties and at least one of each class."""
    n = int(rng.integers(4, max_n + 1))
    scores = rng.choice(np.round(rng.random(6), 2), size=n).astype(float)
    labels = (rng.random(n) < 0.5).astype(int)
    labels[0], labels[1] = 1, 0
    return scores, labels


class TestRocAuc:
    def test_perfectly_ranked(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_perfectly_inverted(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_hand_counted_ties(self):
        # pairs: (0.9 vs 0.8) 1 + (0.9 vs 0.1) 1 + (0.8 vs 0.8) 0.5 +
        #        (0.8 vs 0.1) 1 = 3.5 of 4
        assert roc_auc([0.9, 0.8, 0.8, 0.1], [1, 0, 1, 0]) == pytest.approx(
            0.875, abs=1e-15
        )

    def test_matches_bruteforce_200_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            scores, labels = random_instance(rng)
            got = roc_auc(scores, labels)
            assert got == pytest.approx(
                roc_auc_oracle(scores.tolist(), labels.tolist()), abs=1e-12
            )
            assert fold_metrics(scores, labels)["roc_auc"] == got

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            scores, labels = random_instance(rng)
            a = roc_auc(scores, labels)
            b = roc_auc(np.exp(3.0 * scores) + 1.0, labels)
            assert a == pytest.approx(b, abs=1e-12)

    def test_single_class_rejected(self):
        # raised before a class count divides anything: a RuntimeWarning
        # from a division by zero would fail the test first
        for labels in ([1, 1], [0, 0], []):
            scores = [0.1, 0.2][: len(labels)]
            for measure in (roc_auc, fold_metrics, curves):
                with pytest.raises(NumericError, match=f"{measure.__name__} needs both classes"):
                    measure(scores, labels)


class TestPrAuc:
    def test_perfect_ranking(self):
        assert auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_hand_step_sum(self):
        # threshold 0.9: P=0, R=0; threshold 0.1: P=1/2, R=1 -> AP = 0.5
        assert auprc([0.9, 0.1], [0, 1]) == pytest.approx(0.5, abs=1e-15)

    def test_single_positive_on_top(self):
        assert auprc([0.9, 0.5, 0.4, 0.3], [1, 0, 0, 0]) == 1.0

    def test_matches_step_sum_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            scores, labels = random_instance(rng)
            assert auprc(scores, labels) == pytest.approx(
                pr_auc_oracle(scores.tolist(), labels.tolist()), abs=1e-12
            )

    def test_zero_positives_rejected(self):
        with pytest.raises(NumericError):
            auprc([0.5, 0.4], [0, 0])

    def test_random_scores_average_to_prevalence(self):
        # average precision under random ranking is upward-biased ~1/n,
        # so the prevalence property needs a respectable n
        rng = np.random.default_rng(101)
        prevalence = 0.3
        values = []
        for _ in range(1000):
            n = 200
            labels = (rng.random(n) < prevalence).astype(int)
            if labels.sum() == 0:
                labels[0] = 1
            values.append(auprc(rng.random(n), labels))
        assert np.mean(values) == pytest.approx(prevalence, abs=0.05)


class TestThresholdMetrics:
    """Accuracy, F1 and MSE of sigmoid(score), predicted positive at 0.5,
    which a decision value reaches at 0."""

    def test_all_correct(self):
        fm = fold_metrics([2.2, 1.4, -2.2, -1.4], [1, 1, 0, 0])
        assert fm["accuracy"] == 1.0 and fm["f1"] == 1.0 and fm["f1_defined"]

    def test_confusion_arithmetic(self):
        # predictions (1,0,0,0) vs labels (1,1,0,0): acc 3/4, f1 = 2/3
        fm = fold_metrics([2.2, -0.8, -1.4, -2.2], [1, 1, 0, 0])
        assert fm["accuracy"] == 0.75
        assert fm["f1"] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_no_predicted_positives_flagged(self):
        fm = fold_metrics([-2.2, -1.4, -0.8], [1, 0, 1])
        assert fm["f1"] == 0.0 and not fm["f1_defined"]

    def test_zero_score_predicts_positive(self):
        fm = fold_metrics([0.0, -0.5], [1, 0])
        assert fm["accuracy"] == 1.0 and fm["f1"] == 1.0

    def test_mse_of_the_probabilities(self):
        scores, labels = [2.0, -1.0, 0.5, -3.0], [1, 0, 0, 1]
        expect = np.mean((sigmoid(np.array(scores)) - np.array(labels)) ** 2)
        assert fold_metrics(scores, labels)["mse"] == float(expect)


class TestRunCv:
    """The CV loop (``pipeline.evaluate``) on a plain separable point set.

    ``evaluate`` reads only the balanced pairs, their labels and the two
    entity tables, so a stand-in carrying those three drives it here.
    """

    PARAMS = SvmParams(10.0, 0.1)

    def _separable(self, n=60, seed=2):
        rng = np.random.default_rng(seed)
        y = np.array([1] * (n // 2) + [0] * (n // 2))
        X = rng.random((n, 4)) + y[:, None] * 1.5
        left, right, pairs = pair_space(X)
        data = SimpleNamespace(tables=(left, right), pairs=np.array(pairs), labels=y)
        return data, y

    def test_report_structure_and_fold_sizes(self):
        data, y = self._separable()
        report = pipeline.evaluate(data, PipelineConfig(seed=5), self.PARAMS)
        assert len(report.folds) == 5
        assert sum(f["n_test"] for f in report.folds) == len(y)
        for key in ("roc_auc", "auprc", "accuracy", "f1", "mse"):
            assert key in report.mean
        assert report.mode == "paper-faithful"
        assert report.roc_curve[0] == (0.0, 0.0)
        assert report.roc_curve[-1] == (1.0, 1.0)

    def test_each_score_set_is_ranked_once(self, monkeypatch):
        # one ranking per fold's test scores, serving all of its ranked
        # measures, and one of the pooled scores for both curves
        ranked = []
        real = evaluation._ranked

        def spy(scores, labels, name):
            ranked.append((len(scores), name))
            return real(scores, labels, name)

        monkeypatch.setattr(evaluation, "_ranked", spy)
        data, y = self._separable()
        report = pipeline.evaluate(data, PipelineConfig(seed=5), self.PARAMS)
        assert ranked == [(f["n_test"], "fold_metrics") for f in report.folds] + [
            (len(y), "curves")
        ]

    def test_separable_data_scores_high(self):
        data, _ = self._separable()
        report = pipeline.evaluate(data, PipelineConfig(seed=5), self.PARAMS)
        assert report.mean["roc_auc"] > 0.95


class TestStratifiedKfold:
    def test_balanced_ten_samples(self):
        labels = [1] * 5 + [0] * 5
        fold_index = stratified_kfold(labels, 5, 0)
        for f in range(5):
            idx = np.flatnonzero(fold_index == f)
            assert len(idx) == 2
            assert sum(labels[i] for i in idx) == 1

    def test_deterministic_under_seed(self):
        labels = [1] * 9 + [0] * 13
        a = stratified_kfold(labels, 4, 7)
        b = stratified_kfold(labels, 4, 7)
        assert np.array_equal(a, b)

    def test_ratio_within_one_sample(self):
        rng = np.random.default_rng(3)
        labels = (rng.random(53) < 0.4).astype(int)
        fold_index = stratified_kfold(labels, 5, 11)
        n_pos = labels.sum()
        for f in range(5):
            idx = np.flatnonzero(fold_index == f)
            expected = n_pos * len(idx) / len(labels)
            assert abs(labels[idx].sum() - expected) <= 1.0

    def test_small_class_rejected(self):
        with pytest.raises(DataError):
            stratified_kfold([1, 1, 0, 0, 0, 0, 0], 3, 0)


class TestCurvePoints:
    def test_roc_endpoints(self):
        roc, _ = curves([0.9, 0.7, 0.3, 0.1], [1, 0, 1, 0])
        assert roc[0] == (0.0, 0.0)
        assert roc[-1] == (1.0, 1.0)

    def test_pr_points_descending_thresholds(self):
        _, pr = curves([0.9, 0.7, 0.3], [1, 0, 1])
        assert pr[0] == (0.5, 1.0)  # top score is a positive
        assert pr[-1][0] == 1.0

    def test_matches_threshold_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            scores, labels = random_instance(rng)
            assert curves(scores, labels) == curves_oracle(scores.tolist(), labels.tolist())


class TestHoldoutStanding:
    def test_hand_counted(self):
        # disease 0's candidates are rows 0-3; row 1 (0.5) has one below
        # (0.2), one tie besides itself (row 3) and one above (0.9)
        grid = np.array([[0.9, 0.0], [0.5, 0.0], [0.2, 0.0], [0.5, 0.0], [7.0, 0.0]])
        candidates = np.array([[1, 0], [1, 0], [1, 0], [1, 0], [0, 1]], dtype=bool)
        (standing,) = holdout_standing(grid, candidates, np.array([[1, 0]]), 1)
        assert standing == {
            "score": 0.5, "percentile": 50.0, "rank_in_disease": 2,
            "n_candidates": 4, "in_top_k": False,
        }

    def test_matches_oracle_on_tied_grids(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n_s, n_d = (int(v) for v in rng.integers(2, 12, size=2))
            grid = rng.choice(np.round(rng.normal(size=4), 1), size=(n_s, n_d))
            candidates = rng.random((n_s, n_d)) < 0.6
            cells = np.argwhere(candidates)
            pairs = cells[rng.choice(len(cells), size=min(5, len(cells)), replace=False)]
            top_k = int(rng.integers(1, 4))
            got = holdout_standing(grid, candidates, pairs, top_k)
            for standing, (s, d) in zip(got, pairs.tolist()):
                expect = standing_oracle(grid, candidates, s, d, top_k)
                assert {k: (v, type(v)) for k, v in standing.items()} == {
                    k: (v, type(v)) for k, v in expect.items()
                }
