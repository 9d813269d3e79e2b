"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria tied to the distributed MDRF/LSGT/PsnoD files run only when those
files are present (see ``dataset_dir`` in conftest: $SDA_DATA_DIR/<name>/ or
./data/<name>/ with association.csv plus optional features.csv,
disease_similarity.csv, dag.csv). In this sandbox they are skipped with an
explicit message; everything else runs unconditionally.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from sda import pipeline
from sda.boost import gbdt_fit, gbdt_leaf_encode
from sda.cli import main
from sda.config import PipelineConfig
from sda.evaluation import fold_metrics, roc_auc
from sda.similarity import (
    disease_semantic_similarity,
    gip_bandwidth,
    gip_similarity,
    mesh_similarity,
)
from sda.svm import smo_train
from sda.util import derive_seed

from conftest import dataset_dir, pair_space, write_config_file
from test_boost import bruteforce_best_split, sse_of_split
from test_evaluation import pr_auc_oracle, random_instance, roc_auc_oracle
from test_similarity import dss_oracle, random_dag
from test_svm import grid_dual_max, kkt_violations, random_problem


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def dataset_config(directory: str, out_dir: str, name: str) -> PipelineConfig:
    cfg = PipelineConfig(
        association_path=os.path.join(directory, "association.csv"),
        dataset_name=name,
        output_dir=out_dir,
    )
    features = os.path.join(directory, "features.csv")
    if os.path.exists(features):
        cfg = cfg._replace(feature_path=features)
    disease_sim = os.path.join(directory, "disease_similarity.csv")
    dag = os.path.join(directory, "dag.csv")
    if os.path.exists(disease_sim):
        cfg = cfg._replace(disease_similarity_path=disease_sim)
    elif os.path.exists(dag):
        cfg = cfg._replace(dag_path=dag)
    return cfg


def require_dataset(name: str):
    directory = dataset_dir(name)
    if directory is None:
        pytest.skip(
            f"distributed {name.upper()} files not present (set SDA_DATA_DIR "
            f"or place them under data/{name}/); cannot run this criterion here"
        )
    return directory


class TestCriterion1MdrfReproduction:
    def test_mdrf_auroc_auprc_and_runtime(self, tmp_path):
        directory = require_dataset("mdrf")
        cfg = dataset_config(directory, str(tmp_path / "out"), "MDRF")
        start = time.time()
        prepared = pipeline.prepare(cfg)
        result = pipeline.evaluate(
            prepared, cfg, pipeline.resolve_svm_params(prepared, cfg)
        )
        elapsed = time.time() - start
        am = prepared.am
        print(f"[criterion 1 data] {am.n_snornas} x {am.n_diseases}, {am.n_known} known")
        ok = (
            result.mean["roc_auc"] >= 0.93
            and result.mean["auprc"] >= 0.92
            and elapsed <= 300.0
        )
        report(
            "1",
            ok,
            f"MDRF roc_auc={result.mean['roc_auc']:.4f} (>=0.93) "
            f"auprc={result.mean['auprc']:.4f} (>=0.92) runtime={elapsed:.0f}s (<=300)",
        )


class TestCriterion2MultiDataset:
    def test_lsgt(self, tmp_path):
        directory = require_dataset("lsgt")
        cfg = dataset_config(directory, str(tmp_path / "out"), "LSGT")
        prepared = pipeline.prepare(cfg)
        result = pipeline.evaluate(
            prepared, cfg, pipeline.resolve_svm_params(prepared, cfg)
        )
        report("2-LSGT", result.mean["roc_auc"] >= 0.89,
               f"LSGT roc_auc={result.mean['roc_auc']:.4f} (>=0.89)")

    def test_psnod(self, tmp_path):
        directory = require_dataset("psnod")
        cfg = dataset_config(directory, str(tmp_path / "out"), "PsnoD")
        prepared = pipeline.prepare(cfg)
        result = pipeline.evaluate(
            prepared, cfg, pipeline.resolve_svm_params(prepared, cfg)
        )
        report("2-PsnoD", result.mean["roc_auc"] >= 0.91,
               f"PsnoD roc_auc={result.mean['roc_auc']:.4f} (>=0.91)")


class TestCriterion3MetricOracles:
    def test_roc_auc_matches_bruteforce(self):
        rng = np.random.default_rng(1301)
        worst = 0.0
        for _ in range(200):
            scores, labels = random_instance(rng)
            got = roc_auc(scores, labels)
            expect = roc_auc_oracle(scores.tolist(), labels.tolist())
            worst = max(worst, abs(got - expect))
        report("3-roc", worst <= 1e-12, f"max |diff| = {worst:.2e} over 200 instances")

    def test_pr_auc_matches_step_sum(self):
        rng = np.random.default_rng(1302)
        worst = 0.0
        for _ in range(200):
            scores, labels = random_instance(rng)
            got = fold_metrics(scores, labels)["auprc"]
            expect = pr_auc_oracle(scores.tolist(), labels.tolist())
            worst = max(worst, abs(got - expect))
        report("3-pr", worst <= 1e-12, f"max |diff| = {worst:.2e} over 200 instances")


class TestCriterion4SimilarityOracles:
    def test_dss_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1401)
        worst = 0.0
        for _ in range(100):
            dag = random_dag(rng)
            delta = float(rng.uniform(0.2, 1.0))
            sim = disease_semantic_similarity(dag, delta)
            for i, d1 in enumerate(dag.nodes):
                for j, d2 in enumerate(dag.nodes):
                    worst = max(worst, abs(sim[i, j] - dss_oracle(dag, d1, d2, delta)))
        report("4-dss", worst <= 1e-12, f"max |diff| = {worst:.2e} over 100 DAGs")

    def test_gip_hand_cases(self):
        profiles = np.array([[1.0, 0.0], [0.0, 1.0]])
        gip = gip_similarity(profiles, gip_bandwidth(profiles, 1.0))
        diff = abs(gip[0, 1] - math.exp(-2.0))
        ok = diff <= 1e-12 and gip[0, 0] == 1.0 and gip[1, 1] == 1.0
        report("4-gip", ok, f"2x2 identity off-diagonal err = {diff:.2e}")

    def test_mesh_branch_behavior_exact(self):
        nan = np.nan  # an undefined base pair
        base_vals = np.array([
            [1.0, 0.8, nan],
            [0.8, 1.0, nan],
            [nan, nan, nan],
        ])
        gip_vals = np.array([
            [1.0, 0.4, 0.7],
            [0.4, 1.0, 0.2],
            [0.7, 0.2, 1.0],
        ])
        out = mesh_similarity(base_vals, gip_vals)
        ok = (
            out[0, 1] == (0.8 + 0.4) / 2.0  # mean branch, exact
            and out[0, 2] == 0.7  # fallback branch copies GIP
            and out[2, 2] == 1.0
        )
        report("4-mesh", ok, "mean and fallback branches exact")


class TestCriterion5GbdtInvariants:
    def test_loss_monotone_and_encoding_cardinality(self):
        rng = np.random.default_rng(1501)
        worst_rise = -np.inf
        for _ in range(50):
            n = int(rng.integers(12, 40))
            X = rng.random((n, int(rng.integers(2, 5))))
            y = (rng.random(n) < 0.5).astype(float)
            y[0], y[1] = 0.0, 1.0
            ens, _ = gbdt_fit(*pair_space(X), y, min_samples_leaf=2)
            rises = np.diff(ens.loss_history)
            worst_rise = max(worst_rise, float(rises.max()))
            enc = gbdt_leaf_encode(ens, *pair_space(X))
            # one leaf per tree, each inside its tree's block of the one-hot
            offsets = np.array(ens.leaf_offsets)
            widths = np.array([t.n_leaves for t in ens.trees])
            assert enc.shape == (n, ens.n_trees)
            assert np.all((enc >= offsets) & (enc < offsets + widths))
        report(
            "5-loss", worst_rise <= 1e-9,
            f"max per-iteration loss rise = {worst_rise:.2e} over 50 datasets",
        )

    def test_root_split_matches_bruteforce(self):
        rng = np.random.default_rng(1502)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(6, 21))
            X = np.round(rng.random((n, 3)), 2)
            r = rng.normal(size=n)
            from sda.boost import fit_regression_tree

            tree = fit_regression_tree(
                *pair_space(X), r, np.full(n, 0.25), max_depth=1, min_samples_leaf=1
            )
            best = bruteforce_best_split(X, r)
            if tree.n_leaves == 1 or best is None:
                continue
            achieved = sse_of_split(X, r, int(tree.feature[0]), float(tree.threshold[0]))
            worst = max(worst, achieved - best[0])
        report("5-split", worst <= 1e-9, f"max SSE excess over brute force = {worst:.2e}")


class TestCriterion6SvmInvariants:
    def test_kkt_and_dual_constraint_50_datasets(self):
        rng = np.random.default_rng(1601)
        tol = 1e-3
        worst_kkt, worst_sum = 0.0, 0.0
        for trial in range(50):
            n = int(rng.integers(6, 26))
            X, y, _ = random_problem(rng, n)
            C = float(rng.choice([0.5, 1.0, 5.0]))
            model = smo_train(X, y, C=C, gamma=0.5, tol=tol)
            assert model.converged
            worst_sum = max(worst_sum, abs(float(np.dot(model.alphas, model.labels))))
            worst_kkt = max(worst_kkt, kkt_violations(model, X, y, C, tol))
        ok = worst_kkt <= 1e-9 and worst_sum <= 1e-6
        report(
            "6-kkt", ok,
            f"worst KKT excess = {worst_kkt:.2e}, worst |sum(a*y)| = {worst_sum:.2e}",
        )

    def test_dual_within_1e4_of_grid_bruteforce(self):
        rng = np.random.default_rng(1602)
        worst = 0.0
        for trial, (n, steps) in enumerate([(3, 400), (4, 120), (3, 400), (4, 120)]):
            X, y, K = random_problem(rng, n)
            model = smo_train(X, y, C=1.0, gamma=0.5, tol=1e-6)
            expect = grid_dual_max(K, y, 1.0, steps)
            worst = max(worst, abs(model.dual_objective - expect))
        for n in (5, 6):
            X, y, K = random_problem(rng, n)
            model = smo_train(X, y, C=1.0, gamma=0.5, tol=1e-6)
            coarse = grid_dual_max(K, y, 1.0, steps=20)
            worst = max(worst, coarse - model.dual_objective)
        report("6-dual", worst <= 1e-4, f"worst dual gap vs grid = {worst:.2e}")


class TestCriterion7PlantedSignal:
    def test_block_structure_learnable_and_permuted_null(self, synth_dataset, tmp_path):
        p = synth_dataset["paths"]
        cfg = PipelineConfig(
            association_path=p["association"],
            feature_path=p["features"],
            dag_path=p["dag"],
            output_dir=str(tmp_path / "out"),
            seed=7,
            k=(10,),
        )
        prepared = pipeline.prepare(cfg)
        params = pipeline.resolve_svm_params(prepared, cfg)  # one grid search
        result = pipeline.evaluate(prepared, cfg, params)
        auc = result.mean["roc_auc"]

        rng = np.random.default_rng(derive_seed(cfg.seed, "permuted-control"))
        permuted = prepared.labels.copy()
        rng.shuffle(permuted)

        null = pipeline.evaluate(prepared._replace(labels=permuted), cfg, params)
        null_auc = null.mean["roc_auc"]
        ok = auc >= 0.90 and abs(null_auc - 0.5) <= 0.05
        report(
            "7", ok,
            f"planted roc_auc={auc:.4f} (>=0.90), permuted={null_auc:.4f} (0.5 +/- 0.05)",
        )


class TestCriterion8Determinism:
    def test_run_all_twice_byte_identical(self, synth_dataset, tmp_path):
        p = synth_dataset["paths"]
        outputs = []
        for run in (1, 2):
            out = str(tmp_path / f"run{run}")
            cfg = write_config_file(
                tmp_path / f"cfg{run}.txt",
                association_path=p["association"],
                feature_path=p["features"],
                dag_path=p["dag"],
                output_dir=out,
                seed=13,
                k=10,
            )
            assert main(["run-all", "--config", cfg]) == 0
            outputs.append(out)
        same = True
        for name in ("report.json", "rankings.csv", "roc_points.csv", "pr_points.csv"):
            a = Path(outputs[0], name).read_bytes()
            b = Path(outputs[1], name).read_bytes()
            same = same and a == b
        report("8", same, "report.json and rankings.csv byte-identical across reruns")


class TestCriterion9HoldoutRecovery:
    def test_mdrf_holdout_percentile(self, tmp_path):
        directory = require_dataset("mdrf")
        cfg = dataset_config(directory, str(tmp_path / "out"), "MDRF")
        cfg = cfg._replace(holdout_fraction=0.1)
        result = pipeline.holdout_inference_check(cfg)
        report(
            "9", result["mean_percentile"] >= 85.0,
            f"held-out mean percentile = {result['mean_percentile']:.2f} (>=85)",
        )

    def test_holdout_mechanism_on_synthetic(self, synth_dataset, tmp_path):
        # not the numbered criterion (that needs MDRF); keeps the machinery
        # exercised end to end in every environment
        p = synth_dataset["paths"]
        cfg = PipelineConfig(
            association_path=p["association"],
            feature_path=p["features"],
            dag_path=p["dag"],
            output_dir=str(tmp_path / "out"),
            seed=5,
            k=(10,),
            svm_c=(10.0,),
            svm_gamma=(0.1,),
            holdout_fraction=0.1,
        )
        result = pipeline.holdout_inference_check(cfg)
        print(
            f"[synthetic holdout] mean percentile = {result['mean_percentile']:.2f}, "
            f"{result['fraction_in_top_k']:.2%} in top {result['top_k']}"
        )
        assert result["mean_percentile"] >= 85.0
