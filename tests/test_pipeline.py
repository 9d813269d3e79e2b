import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sda import model, pipeline
from sda.boost import gbdt_leaf_encode
from sda.cli import main
from sda.config import PipelineConfig
from sda.corpus import AssociationMatrix
from sda.errors import ConfigError
from sda.svm import svm_decision
from sda.synth import make_block_dataset, write_dataset_files

from conftest import assemble, write_config_file


class TestPrepare:
    def test_balanced_set_is_half_positive(self, synth_config):
        prepared = pipeline.prepare(synth_config)
        n = len(prepared.labels)
        assert prepared.labels.sum() * 2 == n
        assert n == 2 * len(prepared.positives)
        assert assemble(*prepared.tables, prepared.pairs).shape == (
            n, prepared.am.n_snornas + prepared.am.n_diseases
        )

    def test_selected_negatives_are_unknown_pairs(self, synth_config):
        prepared = pipeline.prepare(synth_config)
        known = set(map(tuple, prepared.positives.tolist()))
        negatives = list(map(tuple, prepared.pairs[len(prepared.positives):].tolist()))
        assert not known & set(negatives)
        assert len(set(negatives)) == len(negatives)

    def test_strict_fold_features_differ_on_affected_pairs(self, synth_config):
        prepared = pipeline.prepare(synth_config)
        test_idx = np.arange(10)  # first ten samples are positives
        strict = assemble(*prepared.strict_fold_tables(test_idx), prepared.pairs)
        features = assemble(*prepared.tables, prepared.pairs)
        assert strict.shape == features.shape
        assert not np.array_equal(strict, features)

    def test_score_pairs_scores_distinct_patterns_as_rows(self, synth_config, monkeypatch):
        prepared = pipeline.prepare(synth_config)
        fitted = pipeline.fit_model(prepared, synth_config)
        scored = []

        def spy(svm, X):
            scored.append(len(X))
            return svm_decision(svm, X)

        monkeypatch.setattr(model, "svm_decision", spy)
        candidates = prepared.negatives
        for pairs in (candidates, np.tile(candidates, (10, 1)), candidates[:1], []):
            leaves = gbdt_leaf_encode(fitted.ens, *prepared.tables, pairs)
            want = svm_decision(fitted.svm, leaves)
            got = fitted.score(*prepared.tables, pairs)
            assert got.shape == (len(pairs),)
            assert np.array_equal(got, want)
        # one SVM row per distinct leaf pattern, however often it repeats
        assert scored[0] == scored[1] < len(candidates)


class TestBatchIndependentScores:
    def test_a_pairs_score_does_not_depend_on_its_batch(self, tmp_path):
        """Scored alone, in the full candidate batch, in a permuted batch or
        once per distinct leaf pattern, a pair gets the same bits."""
        am, ft, dag = make_block_dataset(160, 48, within=0.10, across=0.002, seed=3)
        p = write_dataset_files(str(tmp_path), am, ft, dag)
        cfg = PipelineConfig(
            association_path=p["association"], feature_path=p["features"],
            dag_path=p["dag"], output_dir=str(tmp_path / "out"),
            svm_c=(10.0,), svm_gamma=(0.1,),
        )
        prepared = pipeline.prepare(cfg)
        fitted = pipeline.fit_model(prepared, cfg)
        leaves = gbdt_leaf_encode(fitted.ens, *prepared.tables, prepared.negatives)
        batch = svm_decision(fitted.svm, leaves)
        perm = np.random.default_rng(0).permutation(len(leaves))
        assert np.array_equal(svm_decision(fitted.svm, leaves[perm]), batch[perm])
        alone = np.array([svm_decision(fitted.svm, row[None])[0] for row in leaves])
        assert np.array_equal(alone, batch)
        assert np.array_equal(fitted.score(*prepared.tables, prepared.negatives), batch)


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPrepareMemory:
    @pytest.mark.parametrize("k_range", [(), (2, 3)], ids=["k", "k-range"])
    @pytest.mark.parametrize("mode", ["paper-faithful", "strict-folds"])
    def test_no_feature_matrix_over_the_negatives(self, mode, k_range):
        """k-means clusters the unknown pairs from per-entity tables: prepare
        never holds as much memory as one feature matrix over the negatives
        (it peaks below half of one on this sparse 120 x 40 problem)."""
        am, _ft, _dag = make_block_dataset(
            n_snornas=120, n_diseases=40, n_blocks=4, within=0.1, across=0.002, seed=3
        )
        cfg = PipelineConfig(
            k=3, k_range=k_range, mode=mode, n_folds=3, seed=5,
            svm_c=(10.0,), svm_gamma=(0.1,),
        )
        prepared, peak = traced_peak(pipeline.prepare_from_matrix, am, cfg)
        n_neg = len(prepared.negatives)
        assert peak < n_neg * (am.n_snornas + am.n_diseases) * 8


class TestRankMemory:
    def test_no_feature_matrix_over_the_candidates(self, tmp_path):
        """rank routes and scores the candidates from the entity tables:
        the whole command never holds as much memory as one feature matrix
        over the candidates (it peaks below half of one at 160 x 48)."""
        am, ft, dag = make_block_dataset(
            n_snornas=160, n_diseases=48, n_blocks=5, within=0.1, across=0.002, seed=3
        )
        paths = write_dataset_files(str(tmp_path), am, ft, dag)
        cfg = write_config_file(
            tmp_path / "cfg.txt", association_path=paths["association"],
            feature_path=paths["features"], dag_path=paths["dag"],
            output_dir=str(tmp_path / "out"), seed=3, svm_c="10", svm_gamma="0.1",
        )
        rc, peak = traced_peak(main, ["rank", "--config", cfg])
        assert rc == 0
        n_candidates = int((am.entries == 0).sum())
        assert peak < n_candidates * (am.n_snornas + am.n_diseases) * 8


class TestRankCandidates:
    def test_ties_rank_by_snorna_id_per_disease(self):
        """A one-split ensemble gives at most two distinct scores, so most
        candidates tie. Against an oracle that sorts each disease's unknown
        cells by (-score, snoRNA id): ties go to the smaller id (the ids are
        not in matrix order), known cells never rank, a fully known disease
        is exhausted and ``top_k`` cuts every disease."""
        rng = np.random.default_rng(4)
        ids = ["s7", "s2", "s9", "s0", "s5", "s1", "s8", "s3", "s6", "s4"]
        entries = (rng.random((10, 5)) < 0.3).astype(np.int8)
        entries[:, 3] = 1
        am = AssociationMatrix(ids, ["d3", "d0", "d4", "d1", "d2"], entries)
        cfg = PipelineConfig(
            k=2, n_trees=1, max_depth=1, min_samples_leaf=1, seed=1,
            svm_c=(10.0,), svm_gamma=(0.1,),
        )
        prepared = pipeline.prepare_from_matrix(am, cfg)
        fitted = pipeline.fit_model(prepared, cfg)
        scores = fitted.score(*prepared.tables, prepared.negatives).tolist()
        assert len(set(scores)) < len(scores)
        by_cell = {(s, d): x for (s, d), x in zip(prepared.negatives.tolist(), scores)}

        for top_k in (3, 10):
            predictions, exhausted = pipeline.rank_candidates(
                prepared, replace(cfg, top_k=top_k), fitted
            )
            want = []
            for d, disease_id in sorted(enumerate(am.disease_ids), key=lambda t: t[1]):
                cells = [(-x, ids[s], x) for (s, dd), x in by_cell.items() if dd == d]
                for rank, (_, snorna_id, x) in enumerate(sorted(cells)[:top_k], start=1):
                    want.append((disease_id, snorna_id, x, rank))
            got = [(p.disease_id, p.snorna_id, p.score, p.rank) for p in predictions]
            assert got == want
            assert exhausted == ["d1"]
            known = {(ids[s], am.disease_ids[d]) for s, d in zip(*np.nonzero(entries))}
            assert not known & {(p.snorna_id, p.disease_id) for p in predictions}
            per_disease = {}
            for p in predictions:
                per_disease[p.disease_id] = per_disease.get(p.disease_id, 0) + 1
            n_unknown = (entries != 1).sum(axis=0)
            assert per_disease == {
                am.disease_ids[d]: min(top_k, int(n)) for d, n in enumerate(n_unknown) if n
            }


class TestPrecomputedDiseaseSimilarity:
    def test_similarity_file_replaces_dag(self, synth_dataset, tmp_path):
        from sda.similarity import disease_semantic_similarity, save_similarity_matrix

        am = synth_dataset["am"]
        dag = synth_dataset["dag"]
        # precomputed matrix covering all but the last two diseases
        covered = am.disease_ids[:-2]
        dss = disease_semantic_similarity(dag, 0.5, ids=covered)
        sim_path = str(tmp_path / "disease_sim.csv")
        save_similarity_matrix(dss, sim_path)

        p = synth_dataset["paths"]
        cfg = PipelineConfig(
            association_path=p["association"],
            feature_path=p["features"],
            disease_similarity_path=sim_path,
            output_dir=str(tmp_path / "out"),
            k=10,
            seed=6,
            svm_c=(10.0,),
            svm_gamma=(0.1,),
        )
        prepared = pipeline.prepare(cfg)
        # uncovered diseases fall back to the interaction-profile kernel
        assert not prepared.dss.available[-1, -1]
        assert prepared.mdss.available.all()
        i = am.disease_ids.index(covered[0])
        j = am.disease_ids.index(covered[1])
        assert prepared.dss.available[i, j]
        params = pipeline.resolve_svm_params(prepared, cfg)
        report = pipeline.evaluate(prepared, cfg, params)
        assert report.mean["roc_auc"] > 0.8

    def test_malformed_mask_is_data_error(self, synth_dataset, tmp_path):
        from sda.similarity import disease_semantic_similarity, save_similarity_matrix

        am = synth_dataset["am"]
        sim_path = str(tmp_path / "disease_sim.csv")
        save_similarity_matrix(
            disease_semantic_similarity(synth_dataset["dag"], 0.5, ids=am.disease_ids),
            sim_path,
        )
        mask_path = str(tmp_path / "disease_sim.mask.csv")
        with open(mask_path, "a", encoding="utf-8") as fh:
            fh.write("extra" + ",1" * len(am.disease_ids) + "\n")
        p = synth_dataset["paths"]
        cfg = write_config_file(
            tmp_path / "cfg.txt",
            association_path=p["association"],
            disease_similarity_path=sim_path,
            output_dir=str(tmp_path / "out"),
        )
        assert main(["prepare", "--config", cfg]) == 2


class TestStrictFolds:
    def test_strict_mode_runs_and_is_deterministic(self, synth_dataset, tmp_path):
        p = synth_dataset["paths"]

        def run():
            cfg = PipelineConfig(
                association_path=p["association"],
                feature_path=p["features"],
                dag_path=p["dag"],
                output_dir=str(tmp_path / "out"),
                k=10,
                seed=9,
                svm_c=(10.0,),
                svm_gamma=(0.1,),
                mode="strict-folds",
            )
            prepared = pipeline.prepare(cfg)
            return pipeline.evaluate(
                prepared, cfg, pipeline.resolve_svm_params(prepared, cfg)
            )

        a, b = run(), run()
        assert a.mode == "strict-folds"
        assert a.mean == b.mean
        # kernels built from training folds only still carry the block signal
        assert a.mean["roc_auc"] > 0.8

    def test_strict_features_rebuild_drops_test_positives(self, synth_config):
        prepared = pipeline.prepare(synth_config)
        n_pos = len(prepared.positives)
        test_idx = np.arange(n_pos // 5)
        strict = assemble(*prepared.strict_fold_tables(test_idx), prepared.pairs)
        # rows of untouched pairs may still shift (bandwidth is global), but
        # every pair feature must remain a valid similarity value
        assert np.all(strict >= 0.0) and np.all(strict <= 1.0)
        assert strict.shape == assemble(*prepared.tables, prepared.pairs).shape


    def test_strict_tables_zero_exactly_the_test_positives(self, synth_config):
        prepared = pipeline.prepare(synth_config)
        rng = np.random.default_rng(2)
        test_idx = np.sort(rng.choice(len(prepared.pairs), size=25, replace=False))
        ap = prepared.am.entries.astype(np.float64)
        for i in test_idx:
            if prepared.labels[i] == 1:
                s, d = prepared.pairs[i]
                ap[s, d] = 0.0
        assert 0 < (ap != prepared.am.entries).sum() < 25
        msfs, mdss = pipeline._meshed(
            ap, prepared.sfs, prepared.dss,
            prepared.gamma_prime_snorna, prepared.gamma_prime_disease,
        )
        left, right = prepared.strict_fold_tables(test_idx)
        assert np.array_equal(left, msfs.values)
        assert np.array_equal(right, mdss.values.T)


class TestConfigIsInputOnly:
    def test_grid_runs_leave_config_unchanged(self, synth_config):
        cfg = replace(synth_config, svm_c=(1.0, 10.0), svm_gamma=("1/d", 0.1))
        before = replace(cfg)
        prepared = pipeline.prepare(cfg)
        params = pipeline.fit_model(prepared, cfg).params
        assert params.c in cfg.svm_c
        pipeline.evaluate(prepared, cfg, params)
        pipeline.holdout_inference_check(cfg)
        assert cfg == before


class TestChooseKWiring:
    def test_k_range_selects_and_runs(self, synth_dataset, tmp_path):
        p = synth_dataset["paths"]
        cfg = PipelineConfig(
            association_path=p["association"],
            feature_path=p["features"],
            dag_path=p["dag"],
            output_dir=str(tmp_path / "out"),
            k_range=(3, 6),
            seed=2,
            svm_c=(10.0,),
            svm_gamma=(0.1,),
        )
        prepared = pipeline.prepare(cfg)
        assert prepared.k_used in (3, 6)
        assert prepared.labels.sum() * 2 == len(prepared.labels)


class TestPreparedReuse:
    def test_reuse_gives_identical_report(self, synth_dataset, tmp_path):
        p = synth_dataset["paths"]
        base = dict(
            association_path=p["association"],
            feature_path=p["features"],
            dag_path=p["dag"],
            k=10,
            seed=3,
            svm_c="10",
            svm_gamma="0.1",
        )
        prep_out = str(tmp_path / "prep")
        cfg1 = write_config_file(tmp_path / "c1.txt", output_dir=prep_out, **base)
        assert main(["prepare", "--config", cfg1]) == 0

        direct_out = str(tmp_path / "direct")
        cfg2 = write_config_file(tmp_path / "c2.txt", output_dir=direct_out, **base)
        assert main(["evaluate", "--config", cfg2]) == 0

        reuse_out = str(tmp_path / "reuse")
        cfg3 = write_config_file(
            tmp_path / "c3.txt", output_dir=reuse_out, prepared_dir=prep_out, **base
        )
        assert main(["evaluate", "--config", cfg3]) == 0

        a = open(os.path.join(direct_out, "report.json"), "rb").read()
        b = open(os.path.join(reuse_out, "report.json"), "rb").read()
        assert a == b

    def test_reuse_rejects_strict_folds(self, synth_dataset, tmp_path):
        p = synth_dataset["paths"]
        cfg = PipelineConfig(
            association_path=p["association"],
            prepared_dir=str(tmp_path / "nonexistent"),
            mode="strict-folds",
        )
        with pytest.raises(ConfigError, match="paper-faithful"):
            pipeline.prepare(cfg)


class TestRankArtifacts:
    def test_rank_writes_only_config_and_rankings(self, synth_dataset, tmp_path):
        p = synth_dataset["paths"]
        out = str(tmp_path / "out")
        cfg = write_config_file(
            tmp_path / "cfg.txt",
            association_path=p["association"],
            feature_path=p["features"],
            dag_path=p["dag"],
            output_dir=out,
            k=10,
            seed=4,
            svm_c="10",
            svm_gamma="0.1",
            top_k=3,
        )
        assert main(["rank", "--config", cfg]) == 0
        assert sorted(os.listdir(out)) == ["effective-config.txt", "rankings.csv"]


class TestUsageErrors:
    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["prepare", "--no-such-flag"])
        assert exc.value.code == 1
