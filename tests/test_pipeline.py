import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sda import cli, model, pipeline, sampling, svm
from sda.boost import GbdtEnsemble, gbdt_leaf_encode
from sda.cli import main
from sda.config import PipelineConfig
from sda.corpus import AssociationMatrix, write_table
from sda.errors import ConfigError
from sda.similarity import disease_semantic_similarity
from sda.svm import svm_decision
from sda.synth import make_block_dataset, write_dataset_files
from sda.util import derive_seed, fmt_float

from conftest import assemble, random_tree, write_config_file


class TestPrepare:
    def test_balanced_set_is_half_positive(self, synth_config):
        prepared = pipeline.prepare(synth_config)
        n = len(prepared.labels)
        assert prepared.labels.sum() * 2 == n
        positives = prepared.pairs[prepared.labels == 1]
        assert len(positives) == prepared.am.n_known
        assert n == 2 * len(positives)
        assert assemble(*prepared.tables, prepared.pairs).shape == (
            n, prepared.am.n_snornas + prepared.am.n_diseases
        )

    def test_selected_negatives_are_unknown_pairs(self, synth_config):
        prepared = pipeline.prepare(synth_config)
        known = set(map(tuple, prepared.pairs[prepared.labels == 1].tolist()))
        negatives = list(map(tuple, prepared.pairs[prepared.labels == 0].tolist()))
        assert not known & set(negatives)
        assert len(set(negatives)) == len(negatives)

    @pytest.mark.parametrize("ks", [(5, 10), (10,)])
    def test_one_kmeans_per_draw(self, synth_config, monkeypatch, ks):
        """Each probed k clusters once under the ``choose-k`` seeds; then the
        picked k clusters again under the ``kmeans`` seed (the probe's draw
        is not reused)."""
        runs = []
        kmeans = sampling.kmeans

        def spy(left, right, pairs, k, seed):
            runs.append((k, seed))
            return kmeans(left, right, pairs, k, seed)

        monkeypatch.setattr(sampling, "kmeans", spy)
        prepared = pipeline.prepare(synth_config._replace(k=ks))
        probe = derive_seed(synth_config.seed, "choose-k")
        probes = [(k, derive_seed(probe, f"kmeans-k{k}")) for k in ks] if len(ks) > 1 else []
        assert runs == probes + [(prepared.k_used, derive_seed(synth_config.seed, "kmeans"))]

    def test_strict_fold_features_differ_on_affected_pairs(self, synth_config):
        prepared = pipeline.prepare(synth_config)
        test_idx = np.arange(10)  # first ten samples are positives
        strict = assemble(*prepared.strict_fold_tables(test_idx, synth_config), prepared.pairs)
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

    def test_score_block_size_changes_nothing(self, synth_config, monkeypatch):
        prepared = pipeline.prepare(synth_config)
        fitted = pipeline.fit_model(prepared, synth_config)
        candidates = prepared.negatives
        # the candidates' distinct leaf patterns fill whole blocks of 3, the
        # first seven pairs' end in a partial block, and one pair is under a
        # block
        batches = [candidates, candidates[:7], candidates[:1]]
        want = [fitted.score(*prepared.tables, pairs) for pairs in batches]
        monkeypatch.setattr(svm, "SCORE_BLOCK", 3)
        for pairs, expect in zip(batches, want):
            assert np.array_equal(fitted.score(*prepared.tables, pairs), expect)


class TestPatternKeys:
    def test_keys_renumber_past_the_int64_span(self, monkeypatch):
        """17 trees of 16 leaves give 16**17 > 2**63 leaf patterns, more than
        an int64 key can number: the SVM still scores one row per distinct
        leaf pattern, and every pair gets its score as if alone. The last
        16 trees are one tree repeated, so patterns that differ only in the
        first tree's leaf would merge if the key lost that tree."""
        rng = np.random.default_rng(61)
        left, right = rng.random((12, 3)), rng.random((7, 2))
        first, rest = (random_tree(rng, left, right, depth=4, split=1.0) for _ in range(2))
        trees = [first] + [rest] * 16
        assert {t.n_leaves for t in trees} == {16}
        ens = GbdtEnsemble(trees, 0.0, 0.1, len(trees), [])
        cells = np.indices((12, 7)).reshape(2, -1).T
        pairs = np.vstack([cells, cells[::5]])
        leaves = gbdt_leaf_encode(ens, left, right, pairs)
        labels = (np.arange(len(pairs)) % 2).astype(float)
        fitted = model.Model(
            ens, svm.smo_train(leaves, labels, C=1.0, gamma=0.05), model.SvmParams(1.0, 0.05)
        )
        alone = [fitted.score(left, right, pairs[i : i + 1])[0] for i in range(len(pairs))]
        scored = []

        def spy(svm_model, X):
            scored.append(len(X))
            return svm_decision(svm_model, X)

        monkeypatch.setattr(model, "svm_decision", spy)
        assert np.array_equal(fitted.score(left, right, pairs), alone)
        assert scored == [len(np.unique(leaves, axis=0))]
        assert fitted.score(left, right, pairs[:0]).shape == (0,)


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPrepareMemory:
    @pytest.mark.parametrize("k", [(3,), (2, 3)], ids=["k", "k-range"])
    @pytest.mark.parametrize("mode", ["paper-faithful", "strict-folds"])
    def test_no_feature_matrix_over_the_negatives(self, mode, k):
        """k-means clusters the unknown pairs from per-entity tables: prepare
        never holds as much memory as one feature matrix over the negatives
        (it peaks below half of one on this sparse 120 x 40 problem)."""
        am, _ft, _dag = make_block_dataset(
            n_snornas=120, n_diseases=40, n_blocks=4, within=0.1, across=0.002, seed=3
        )
        cfg = PipelineConfig(
            k=k, mode=mode, n_folds=3, seed=5,
            svm_c=(10.0,), svm_gamma=(0.1,),
        )
        prepared, peak = traced_peak(pipeline.prepare_from_matrix, am, cfg)
        n_neg = len(prepared.negatives)
        assert peak < n_neg * (am.n_snornas + am.n_diseases) * 8


class TestKmeansMemory:
    def test_peak_independent_of_pair_count(self):
        """k-means holds one block of pair-to-centroid distances beside its
        n-vectors: on 50,000 pairs at k = 20 it stays under eight n-vectors
        plus 2 MB for the entity-sized tables and the block, where the
        distances of all pairs would take 8 MB."""
        rng = np.random.default_rng(4)
        n_s, n_d = 250, 200
        left, right = rng.random((n_s, n_s)), rng.random((n_d, n_d))
        pairs = np.stack(np.divmod(np.arange(n_s * n_d), n_d), axis=1)
        _, peak = traced_peak(
            lambda: sampling.kmeans(left, right, pairs, 20, seed=1, max_iter=5)
        )
        assert peak < 8 * len(pairs) * 8 + 2 * 2**20


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
            k=(2,), n_trees=1, max_depth=1, min_samples_leaf=1, seed=1,
            svm_c=(10.0,), svm_gamma=(0.1,),
        )
        prepared = pipeline.prepare_from_matrix(am, cfg)
        fitted = pipeline.fit_model(prepared, cfg)
        scores = fitted.score(*prepared.tables, prepared.negatives).tolist()
        assert len(set(scores)) < len(scores)
        by_cell = {(s, d): x for (s, d), x in zip(prepared.negatives.tolist(), scores)}

        for top_k in (3, 10):
            predictions, exhausted = pipeline.rank_candidates(
                prepared, cfg._replace(top_k=top_k), fitted
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
        am = synth_dataset["am"]
        dag = synth_dataset["dag"]
        # precomputed matrix covering all but the last two diseases
        covered = am.disease_ids[:-2]
        dss = disease_semantic_similarity(dag, 0.5, ids=covered)
        sim_path = str(tmp_path / "disease_sim.csv")
        write_table(sim_path, covered, covered, dss, fmt_float)

        p = synth_dataset["paths"]
        cfg = PipelineConfig(
            association_path=p["association"],
            feature_path=p["features"],
            disease_similarity_path=sim_path,
            output_dir=str(tmp_path / "out"),
            k=(10,),
            seed=6,
            svm_c=(10.0,),
            svm_gamma=(0.1,),
        )
        prepared = pipeline.prepare(cfg)
        # uncovered diseases fall back to the interaction-profile kernel
        assert np.isnan(prepared.dss[-1, -1])
        i = am.disease_ids.index(covered[0])
        j = am.disease_ids.index(covered[1])
        assert not np.isnan(prepared.dss[i, j])
        params = pipeline.resolve_svm_params(prepared, cfg)
        report = pipeline.evaluate(prepared, cfg, params)
        assert report.mean["roc_auc"] > 0.8

    def test_malformed_mask_is_data_error(self, synth_dataset, tmp_path):
        am = synth_dataset["am"]
        ids = am.disease_ids
        sim_path = str(tmp_path / "disease_sim.csv")
        dss = disease_semantic_similarity(synth_dataset["dag"], 0.5, ids=ids)
        write_table(sim_path, ids, ids, dss, fmt_float)
        mask_path = str(tmp_path / "disease_sim.mask.csv")
        write_table(mask_path, ids, ids, (~np.isnan(dss)).astype(np.int8))
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


class TestEvaluate:
    PARAMS = model.SvmParams(10.0, 0.1)

    def test_report_structure_and_fold_sizes(self, synth_config):
        """Also the planted blocks are learnt (criterion 7's bound)."""
        prepared = pipeline.prepare(synth_config)
        report = pipeline.evaluate(prepared, synth_config, self.PARAMS)
        assert len(report.folds) == 5
        assert sum(f["n_test"] for f in report.folds) == len(prepared.labels)
        assert all(f["n_train"] + f["n_test"] == len(prepared.labels) for f in report.folds)
        for key in ("roc_auc", "auprc", "accuracy", "f1", "mse"):
            assert key in report.mean
        assert report.mode == "paper-faithful"
        assert (report.svm_c, report.svm_gamma) == (10.0, 0.1)
        assert report.roc_curve[0] == (0.0, 0.0)
        assert report.roc_curve[-1] == (1.0, 1.0)
        assert report.mean["roc_auc"] >= 0.90

    @pytest.mark.parametrize("mode", ("paper-faithful", "strict-folds"))
    def test_strict_mode_rebuilds_tables_per_fold(self, mode, synth_config, monkeypatch):
        cfg = synth_config._replace(mode=mode)
        prepared = pipeline.prepare(cfg)
        rebuild = pipeline.PreparedData.strict_fold_tables
        seen = []

        def spy(self, test_idx, cfg):
            seen.append(test_idx)
            return rebuild(self, test_idx, cfg)

        monkeypatch.setattr(pipeline.PreparedData, "strict_fold_tables", spy)
        report = pipeline.evaluate(prepared, cfg, self.PARAMS)
        assert report.mode == mode
        if mode == "paper-faithful":
            assert seen == []
        else:
            assert len(seen) == cfg.n_folds
            assert sorted(np.concatenate(seen).tolist()) == list(range(len(prepared.labels)))

    def test_permuted_labels_near_half(self, synth_config):
        prepared = pipeline.prepare(synth_config)
        permuted = prepared.labels.copy()
        np.random.default_rng(99).shuffle(permuted)
        report = pipeline.evaluate(
            prepared._replace(labels=permuted), synth_config, self.PARAMS
        )
        assert abs(report.mean["roc_auc"] - 0.5) < 0.12


class TestStrictFolds:
    def test_strict_mode_runs_and_is_deterministic(self, synth_dataset, tmp_path):
        p = synth_dataset["paths"]

        def run():
            cfg = PipelineConfig(
                association_path=p["association"],
                feature_path=p["features"],
                dag_path=p["dag"],
                output_dir=str(tmp_path / "out"),
                k=(10,),
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
        n_pos = len(prepared.pairs[prepared.labels == 1])
        test_idx = np.arange(n_pos // 5)
        strict = assemble(*prepared.strict_fold_tables(test_idx, synth_config), prepared.pairs)
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
            synth_config.gamma_prime_snorna, synth_config.gamma_prime_disease,
        )
        left, right = prepared.strict_fold_tables(test_idx, synth_config)
        assert np.array_equal(left, msfs)
        assert np.array_equal(right, mdss.T)


class TestConfigIsInputOnly:
    def test_grid_runs_leave_config_unchanged(self, synth_config):
        cfg = synth_config._replace(svm_c=(1.0, 10.0), svm_gamma=("1/d", 0.1))
        before = cfg._replace()
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
            k=(3, 6),
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

        a = Path(direct_out, "report.json").read_bytes()
        b = Path(reuse_out, "report.json").read_bytes()
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

    def test_missing_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "3"])
        assert exc.value.code == 1
        assert "required: command" in capsys.readouterr().err

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for name, (_, _, help_text) in cli._COMMANDS.items():
            assert [name, help_text] in [line.split(None, 1) for line in lines]

    def test_options_in_any_order(self, synth_dataset, tmp_path):
        p = synth_dataset["paths"]
        out = tmp_path / "out"
        cfg = write_config_file(
            tmp_path / "cfg.txt", association_path=p["association"],
            feature_path=p["features"], dag_path=p["dag"], k=4, svm_c="10",
            svm_gamma="0.1",
        )
        # -v after the command word, and an option before it
        argv = ["--output-dir", str(out), "rank", "-v", "--config", cfg]
        assert cli._build_parser().parse_args(argv).verbose
        assert main(argv) == 0
        assert (out / "rankings.csv").is_file()
