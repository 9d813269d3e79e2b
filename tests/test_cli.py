import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sda
from sda import model, pipeline
from sda.cli import main
from sda.config import PipelineConfig, parse_config_text
from sda.corpus import (
    AssociationMatrix, load_association_matrix, load_disease_dag, load_feature_table,
    save_association_matrix, write_table,
)
from sda.errors import ConfigError, DataError
from sda.similarity import load_similarity_matrix
from sda.synth import make_block_dataset, write_dataset_files
from sda.util import fmt_float

from conftest import write_config_file


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """Small, fast dataset for CLI exercises."""
    directory = tmp_path_factory.mktemp("cli-data")
    am, ft, dag = make_block_dataset(
        n_snornas=30, n_diseases=10, n_blocks=2, within=0.7, across=0.02,
        n_features=12, seed=3,
    )
    return write_dataset_files(str(directory), am, ft, dag)


def base_keys(paths, out_dir, **extra):
    keys = dict(
        association_path=paths["association"],
        feature_path=paths["features"],
        dag_path=paths["dag"],
        output_dir=out_dir,
        k=4,
        seed=11,
        svm_c="10",
        svm_gamma="0.1",
        top_k=3,
    )
    keys.update(extra)
    return keys


class TestPrepare:
    def test_outputs_and_balance(self, small_dataset, tmp_path, capsys):
        out = str(tmp_path / "out")
        cfg = write_config_file(tmp_path / "cfg.txt", **base_keys(small_dataset, out))
        assert main(["prepare", "--config", cfg]) == 0
        lines = Path(out, "balanced_pairs.csv").read_text().splitlines()
        body = lines[1:]
        labels = [int(row.rsplit(",", 1)[1]) for row in body]
        assert sum(labels) * 2 == len(labels)  # exactly 50% positives
        assert sorted(os.listdir(out)) == [
            "MDSS.csv", "MSFS.csv", "balanced_pairs.csv", "effective-config.txt",
            "prepare.json",
        ]
        assert "known associations" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, small_dataset, tmp_path):
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        cfg1 = write_config_file(tmp_path / "c1.txt", **base_keys(small_dataset, out1))
        cfg2 = write_config_file(tmp_path / "c2.txt", **base_keys(small_dataset, out2))
        assert main(["prepare", "--config", cfg1]) == 0
        assert main(["prepare", "--config", cfg2]) == 0
        for name in ("MSFS.csv", "MDSS.csv", "balanced_pairs.csv"):
            a = Path(out1, name).read_bytes()
            b = Path(out2, name).read_bytes()
            assert a == b, name

    def test_missing_file_is_data_error(self, small_dataset, tmp_path):
        keys = base_keys(small_dataset, str(tmp_path / "out"))
        keys["feature_path"] = str(tmp_path / "nope.csv")
        cfg = write_config_file(tmp_path / "cfg.txt", **keys)
        assert main(["prepare", "--config", cfg]) == 2


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("no_such_key = 1\n", encoding="utf-8")
        assert main(["prepare", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("case", ("directory", "non-utf8"))
    def test_unreadable_config_is_config_error(self, case, tmp_path, caplog):
        path = tmp_path / "cfg.txt"
        if case == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"dataset_name = caf\xe9\n")  # Latin-1 e-acute
        with caplog.at_level("ERROR"):
            assert main(["prepare", "--config", str(path)]) == 1
        assert any(str(path) in r.message for r in caplog.records)

    def test_flag_overrides_win(self, small_dataset, tmp_path):
        out = str(tmp_path / "out")
        cfg = write_config_file(tmp_path / "cfg.txt", **base_keys(small_dataset, out))
        assert main(["prepare", "--config", cfg, "--seed", "99"]) == 0
        echoed = Path(out, "effective-config.txt").read_text()
        assert "seed = 99" in echoed

    def test_empty_config_defaults_echoed(self, tmp_path):
        cfg = tmp_path / "empty.txt"
        cfg.write_text("", encoding="utf-8")
        out = str(tmp_path / "out")
        rc = main(["run-all", "--config", str(cfg), "--output-dir", out])
        assert rc == 2  # no association path: data error after the echo
        echoed = Path(out, "effective-config.txt").read_text()
        assert "n_trees = 10" in echoed
        assert "n_folds = 5" in echoed
        assert "delta = 0.5" in echoed

    def test_top_k_below_one_rejected(self, small_dataset, tmp_path):
        cfg = write_config_file(
            tmp_path / "cfg.txt", **base_keys(small_dataset, str(tmp_path / "out"))
        )
        assert main(["rank", "--config", cfg, "--top-k", "0"]) == 1

    @pytest.mark.parametrize(
        "item", ["k=abc", "svm_c=x", "svm_c=1/d", "k=1,a", "n_folds=2.5", "seed=1e3"]
    )
    def test_malformed_set_value_exits_one(self, item, small_dataset, tmp_path, caplog):
        cfg = write_config_file(
            tmp_path / "cfg.txt", **base_keys(small_dataset, str(tmp_path / "out"))
        )
        assert main(["evaluate", "--config", cfg, "--set", item]) == 1
        key = item.split("=", 1)[0]
        assert f"bad value for '{key}'" in caplog.text
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize(
        "item, named",
        [("svm_gamma=nan", "svm_gamma"), ("svm_gamma=inf", "svm_gamma"),
         ("svm_c=nan", "svm_c"), ("learning_rate=nan", "learning_rate"),
         ("learning_rate=inf", "learning_rate"),
         ("gamma_prime_snorna=nan", "gamma_prime"),
         ("gamma_prime_disease=inf", "gamma_prime")],
    )
    def test_non_finite_value_exits_one(self, item, named, small_dataset, tmp_path, caplog):
        out = tmp_path / "out"
        cfg = write_config_file(tmp_path / "cfg.txt", **base_keys(small_dataset, str(out)))
        assert main(["evaluate", "--config", cfg, "--set", item]) == 1
        assert named in caplog.text
        assert "Traceback" not in caplog.text
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("item", ["k=3,3", "svm_c=10,10", "svm_gamma=1/d,1/d"])
    def test_repeated_list_entry_exits_one(self, item, small_dataset, tmp_path, caplog):
        # a repeat would run the k probe's CV twice on one k, or a grid
        # search over a single cell
        out = tmp_path / "out"
        cfg = write_config_file(tmp_path / "cfg.txt", **base_keys(small_dataset, str(out)))
        assert main(["evaluate", "--config", cfg, "--set", item]) == 1
        assert f"{item.split('=', 1)[0]} repeats an entry" in caplog.text
        assert "Traceback" not in caplog.text
        assert not (out / "report.json").exists()

    def test_comment_needs_whitespace_before_it(self):
        parsed = parse_config_text("# note\nk = 5 # five\ndataset_name = run#2\t# x\n")
        assert parsed == {"k": (5,), "dataset_name": "run#2"}

    @pytest.mark.parametrize("value", ["a #b", "#b", "a\tb\n#c", "a\nb"])
    def test_value_the_echo_cannot_hold_exits_one(
        self, value, small_dataset, tmp_path, caplog
    ):
        out = tmp_path / "out"
        cfg = write_config_file(tmp_path / "cfg.txt", **base_keys(small_dataset, str(out)))
        assert main(["rank", "--config", cfg, "--set", f"dataset_name={value}"]) == 1
        assert "dataset_name: " in caplog.text and "after whitespace" in caplog.text
        assert not out.exists()

    def test_rerun_from_echo_in_a_directory_named_with_a_hash(
        self, small_dataset, tmp_path
    ):
        data = tmp_path / "data#1"
        shutil.copytree(os.path.dirname(small_dataset["association"]), data)
        paths = {key: str(data / os.path.basename(p)) for key, p in small_dataset.items()}
        out1, out2 = tmp_path / "out#1", tmp_path / "out#2"
        cfg = write_config_file(tmp_path / "cfg.txt", **base_keys(paths, str(out1)))
        assert main(["rank", "--config", cfg]) == 0
        echoed = str(out1 / "effective-config.txt")
        assert main(["rank", "--config", echoed, "--output-dir", str(out2)]) == 0
        assert (out1 / "rankings.csv").read_bytes() == (out2 / "rankings.csv").read_bytes()

    @pytest.mark.parametrize(
        "key, value",
        [("svm_tol", -1.0), ("svm_tol", 0.0), ("svm_tol", float("nan")),
         ("svm_max_passes", 0),
         ("svm_max_passes", -1)],
    )
    def test_solver_limits_validated(self, key, value):
        with pytest.raises(ConfigError, match=key):
            PipelineConfig(**{key: value}).validate()


@pytest.mark.parametrize("keys", ({"k": "1000"}, {"k": "2,1000"}))
def test_k_above_the_unknown_pairs_exits_two(keys, small_dataset, tmp_path, caplog):
    # 300 cells, so fewer than 1000 unknown pairs to cluster
    base = base_keys(small_dataset, str(tmp_path / "out"))
    del base["k"]
    cfg = write_config_file(tmp_path / "cfg.txt", **base, **keys)
    assert main(["prepare", "--config", cfg]) == 2
    assert "data error: k=1000 exceeds the number of points" in caplog.text
    assert "Traceback" not in caplog.text


@pytest.mark.parametrize("n_pos", (2, 3, 4))
@pytest.mark.parametrize("command", ("rank", "evaluate", "holdout", "run-all"))
def test_grid_with_a_class_below_n_folds_exits_two(
    command, n_pos, tmp_path, monkeypatch, caplog
):
    """The grid search folds as the CV does, so a balanced set with fewer
    rows of a class than n_folds is a data error before any SMO fit. The
    positives share one disease, so holdout leaves it one to score."""
    fits = []
    monkeypatch.setattr(model, "smo_train", lambda *args, **kwargs: fits.append(args))
    entries = np.zeros((8, 4), dtype=np.int8)
    entries[:n_pos, 0] = 1
    assoc = str(tmp_path / "assoc.csv")
    save_association_matrix(
        AssociationMatrix([f"s{i}" for i in range(8)], [f"d{j}" for j in range(4)], entries),
        assoc,
    )
    cfg = write_config_file(
        tmp_path / "cfg.txt", association_path=assoc, output_dir=str(tmp_path / "out"),
        svm_c="1,10", svm_gamma="0.1,1", k=2, holdout_fraction=0.5,
    )
    assert main([command, "--config", cfg]) == 2
    assert "fewer than 5 folds" in caplog.text
    assert fits == []


class TestOutputLocation:
    """An output location that cannot be written is a config error (exit 1):
    no traceback, no temporary file left, nothing written to the working
    directory."""

    @pytest.mark.parametrize("case", ("file", "under-file", "rankings-dir", "empty"))
    def test_unwritable_output_exits_one(
        self, case, small_dataset, tmp_path, monkeypatch, caplog
    ):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        out = {
            "file": blocker, "under-file": blocker / "out",
            "rankings-dir": tmp_path / "out", "empty": "",
        }[case]
        if case == "rankings-dir":
            (out / "rankings.csv").mkdir(parents=True)
        keys = base_keys(small_dataset, str(out))
        args = [f"--set={k}={v}" for k, v in keys.items() if k != "output_dir"]
        with caplog.at_level("ERROR"):
            assert main(["rank", *args, "--output-dir", str(out)]) == 1
        assert list(cwd.iterdir()) == []
        assert not list(tmp_path.rglob(".tmp-*"))
        if case != "empty":
            assert any("cannot write" in r.message and str(out) in r.message
                       for r in caplog.records)


    @pytest.mark.parametrize("command, target", (
        ("rank", "rankings.csv"), ("evaluate", "report.json"),
    ))
    def test_directory_target_fails_before_the_pipeline(
        self, command, target, small_dataset, tmp_path, monkeypatch, caplog
    ):
        out = tmp_path / "out"
        (out / target).mkdir(parents=True)
        prepares = []
        monkeypatch.setattr(pipeline, "prepare", lambda cfg: prepares.append(cfg))
        cfg = write_config_file(tmp_path / "cfg.txt", **base_keys(small_dataset, str(out)))
        with caplog.at_level("ERROR"):
            assert main([command, "--config", cfg]) == 1
        assert prepares == []
        assert any(f"cannot write {out / target}" in r.message for r in caplog.records)

    def test_artifacts_take_the_umask_mode(self, small_dataset, tmp_path):
        # as a plain open(path, "w") makes them, not the temp file's 0600
        out = tmp_path / "out"
        cfg = write_config_file(tmp_path / "cfg.txt", **base_keys(small_dataset, str(out)))
        umask = os.umask(0o022)
        try:
            assert main(["run-all", "--config", cfg]) == 0
        finally:
            os.umask(umask)
        modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
        assert "report.json" in modes and "rankings.csv" in modes
        assert modes == dict.fromkeys(modes, 0o644)


class TestDiseaseSimilarityFile:
    """A similarity file that lacks some of the matrix's diseases warns, and
    under --strict that warning is a data error, as for the feature table."""

    @pytest.fixture()
    def partial_dss(self, small_dataset, tmp_path):
        ids = load_association_matrix(small_dataset["association"]).disease_ids[2:]
        path = str(tmp_path / "dss.csv")
        write_table(path, ids, ids, np.eye(len(ids)), fmt_float)
        return path

    def test_missing_ids_warn(self, small_dataset, partial_dss, tmp_path, caplog):
        keys = base_keys(
            small_dataset, str(tmp_path / "out"), disease_similarity_path=partial_dss
        )
        cfg = write_config_file(tmp_path / "cfg.txt", **keys)
        with caplog.at_level("WARNING"):
            assert main(["prepare", "--config", cfg]) == 0
        assert "disease similarity file missing 2 id(s)" in caplog.text

    def test_missing_ids_strict_exits_two(
        self, small_dataset, partial_dss, tmp_path, caplog
    ):
        keys = base_keys(
            small_dataset, str(tmp_path / "out"), disease_similarity_path=partial_dss
        )
        cfg = write_config_file(tmp_path / "cfg.txt", **keys)
        assert main(["prepare", "--config", cfg, "--strict"]) == 2
        assert "disease similarity file missing 2 id(s)" in caplog.text

    @pytest.mark.parametrize("in_mask", (False, True), ids=("values", "mask"))
    def test_repeated_id_exits_two(self, in_mask, small_dataset, tmp_path, caplog):
        """A repeated id is a data error, not a silent pick of one of its
        rows: a repeated column id in the values, a repeated row id in the
        mask."""
        a, b = load_association_matrix(small_dataset["association"]).disease_ids[:2]
        path = tmp_path / "dss.csv"
        if in_mask:
            path.write_text(f",{a},{b}\n{a},1.0,0.5\n{b},0.5,1.0\n", encoding="utf-8")
            (tmp_path / "dss.mask.csv").write_text(
                f",{a},{b}\n{a},1,1\n{a},1,1\n", encoding="utf-8"
            )
            where = f"{tmp_path / 'dss.mask.csv'}:3: duplicate row id '{a}'"
        else:
            path.write_text(
                f",{a},{b},{a}\n{a},1,0.3,1\n{b},0.3,1,0.3\n{a},1,0.3,1\n",
                encoding="utf-8",
            )
            where = f"{path}:1: duplicate column id '{a}'"
        keys = base_keys(
            small_dataset, str(tmp_path / "out"), disease_similarity_path=str(path)
        )
        cfg = write_config_file(tmp_path / "cfg.txt", **keys)
        assert main(["prepare", "--config", cfg]) == 2
        assert where in caplog.text


class TestEvaluate:
    def test_report_fields_and_seed_determinism(self, small_dataset, tmp_path):
        out1, out2 = str(tmp_path / "e1"), str(tmp_path / "e2")
        cfg1 = write_config_file(tmp_path / "c1.txt", **base_keys(small_dataset, out1))
        cfg2 = write_config_file(tmp_path / "c2.txt", **base_keys(small_dataset, out2))
        assert main(["evaluate", "--config", cfg1, "--seed", "7"]) == 0
        assert main(["evaluate", "--config", cfg2, "--seed", "7"]) == 0
        r1 = Path(out1, "report.json").read_bytes()
        r2 = Path(out2, "report.json").read_bytes()
        assert r1 == r2
        doc = json.loads(r1)
        assert doc["mode"] == "paper-faithful"
        assert doc["n_folds"] == 5
        assert len(doc["folds"]) == 5
        assert set(doc["mean"]) >= {"roc_auc", "auprc", "accuracy", "f1"}
        assert os.path.exists(os.path.join(out1, "roc_points.csv"))
        assert os.path.exists(os.path.join(out1, "pr_points.csv"))

    def test_strict_folds_mode_labelled(self, small_dataset, tmp_path):
        out = str(tmp_path / "out")
        cfg = write_config_file(tmp_path / "cfg.txt", **base_keys(small_dataset, out))
        assert main(["evaluate", "--config", cfg, "--mode", "strict-folds"]) == 0
        doc = json.loads(Path(out, "report.json").read_text())
        assert doc["mode"] == "strict-folds"

    def test_strict_folds_with_k_range(self, small_dataset, tmp_path, capsys):
        # the k probe's CV must rebuild strict per-fold features over its own
        # pairs; it once reached for a method its stand-in data lacked
        out = str(tmp_path / "out")
        cfg = write_config_file(tmp_path / "cfg.txt", **base_keys(small_dataset, out))
        argv = ["evaluate", "--config", cfg,
                "--set", "mode=strict-folds", "--set", "k=5,10"]
        assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads(Path(out, "report.json").read_text())
        assert doc["mode"] == "strict-folds"


class TestRank:
    def test_ranking_shape_and_exclusions(self, small_dataset, tmp_path):
        out = str(tmp_path / "out")
        cfg = write_config_file(tmp_path / "cfg.txt", **base_keys(small_dataset, out))
        assert main(["rank", "--config", cfg]) == 0
        rows = Path(out, "rankings.csv").read_text().splitlines()
        assert rows[0] == "disease_id,snorna_id,score,rank"
        body = [r.split(",") for r in rows[1:]]

        am = load_association_matrix(small_dataset["association"])
        known = {
            (am.snorna_ids[s], am.disease_ids[d])
            for s, d in zip(*np.nonzero(am.entries))
        }
        per_disease = {}
        for disease_id, snorna_id, score, rank in body:
            assert (snorna_id, disease_id) not in known
            per_disease.setdefault(disease_id, []).append((float(score), int(rank)))
        for disease_id, entries in per_disease.items():
            assert len(entries) <= 3
            ranks = [r for _, r in entries]
            assert ranks == sorted(ranks) == list(range(1, len(entries) + 1))
            scores = [s for s, _ in entries]
            assert scores == sorted(scores, reverse=True)
        # global ordering: by disease id, then rank
        keys = [(d, int(r)) for d, _, _, r in body]
        assert keys == sorted(keys)

    def test_comma_in_an_id_survives_a_prepare_run(self, small_dataset, tmp_path):
        """A disease id read from a quoted cell is written back quoted, in
        the prepare run's files and in ``rankings.csv``."""
        data = tmp_path / "data"
        shutil.copytree(os.path.dirname(small_dataset["association"]), data)
        paths = {key: str(data / os.path.basename(p)) for key, p in small_dataset.items()}
        for key, old, new in (("association", ",dis000,", ',"dis,000",'),
                              ("dag", "\ndis000,", '\n"dis,000",')):
            text = Path(paths[key]).read_text(encoding="utf-8")
            assert text.count(old) == 1
            Path(paths[key]).write_text(text.replace(old, new), encoding="utf-8")
        prep, out = str(tmp_path / "prep"), tmp_path / "out"
        cfg = write_config_file(tmp_path / "c1.txt", **base_keys(paths, prep))
        assert main(["prepare", "--config", cfg]) == 0
        keys = base_keys(paths, str(out), prepared_dir=prep)
        cfg = write_config_file(tmp_path / "c2.txt", **keys)
        assert main(["rank", "--config", cfg]) == 0
        with open(out / "rankings.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 4 for row in rows)
        assert "dis,000" in {row[0] for row in rows}

    def test_carriage_return_in_an_id_survives_a_prepare_run(self, small_dataset, tmp_path):
        """A disease id holding a bare carriage return is written back
        quoted, so it reads back as one cell of one row, not a line break."""
        data = tmp_path / "data"
        shutil.copytree(os.path.dirname(small_dataset["association"]), data)
        paths = {key: str(data / os.path.basename(p)) for key, p in small_dataset.items()}
        for key, old, new in (("association", ",dis000,", ',"dis\r000",'),
                              ("dag", "\ndis000,", '\n"dis\r000",')):
            text = Path(paths[key]).read_text(encoding="utf-8")
            assert text.count(old) == 1
            Path(paths[key]).write_text(text.replace(old, new), encoding="utf-8", newline="")
        prep, out = str(tmp_path / "prep"), tmp_path / "out"
        cfg = write_config_file(tmp_path / "c1.txt", **base_keys(paths, prep))
        assert main(["prepare", "--config", cfg]) == 0
        keys = base_keys(paths, str(out), prepared_dir=prep)
        cfg = write_config_file(tmp_path / "c2.txt", **keys)
        assert main(["rank", "--config", cfg]) == 0
        with open(out / "rankings.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 4 for row in rows)
        assert "dis\r000" in {row[0] for row in rows}

    def test_lone_resolved_cell_takes_no_search(self, small_dataset, tmp_path, monkeypatch):
        # "1/d" resolving to the other listed gamma leaves one (C, gamma)
        # cell, which is the single-cell run at that gamma, with no search
        cfg = PipelineConfig(
            association_path=small_dataset["association"],
            feature_path=small_dataset["features"], dag_path=small_dataset["dag"],
            k=(4,), seed=11, svm_c=(10.0,), svm_gamma=(0.1,),
        )
        prepared = pipeline.prepare(cfg)
        gamma = repr(1.0 / pipeline.fit_model(prepared, cfg).ens.total_leaves)
        searches = []
        monkeypatch.setattr(model, "grid_search", lambda *a, **kw: searches.append(a))
        rankings = []
        for name, gammas in (("lone", f"1/d,{gamma}"), ("single", gamma)):
            out = tmp_path / name
            keys = base_keys(small_dataset, str(out), svm_gamma=gammas)
            cfg_path = write_config_file(tmp_path / f"{name}.txt", **keys)
            assert main(["rank", "--config", cfg_path]) == 0
            rankings.append((out / "rankings.csv").read_bytes())
        assert searches == []
        assert rankings[0] == rankings[1]

    def test_fully_known_disease_gets_zero_rows(self, tmp_path, capsys):
        # disease d0 is associated with every snoRNA: nothing to rank there
        entries = np.zeros((6, 3), dtype=np.int8)
        entries[:, 0] = 1
        entries[0, 1] = 1
        am = AssociationMatrix(
            [f"s{i}" for i in range(6)], ["d0", "d1", "d2"], entries
        )
        assoc = str(tmp_path / "assoc.csv")
        save_association_matrix(am, assoc)
        out = str(tmp_path / "out")
        cfg = write_config_file(
            tmp_path / "cfg.txt",
            association_path=assoc, output_dir=out, k=2, seed=1,
            svm_c="10", svm_gamma="0.1", top_k=2, n_folds=2,
        )
        assert main(["rank", "--config", cfg]) == 0
        stdout = capsys.readouterr().out
        assert "'d0' has no unknown pairs" in stdout
        rows = Path(out, "rankings.csv").read_text().splitlines()[1:]
        assert all(not r.startswith("d0,") for r in rows)


class TestRunAll:
    def test_fail_fast_names_stage(self, small_dataset, tmp_path, caplog):
        keys = base_keys(small_dataset, str(tmp_path / "out"))
        keys["association_path"] = str(tmp_path / "missing.csv")
        cfg = write_config_file(tmp_path / "cfg.txt", **keys)
        with caplog.at_level("ERROR"):
            assert main(["run-all", "--config", cfg]) == 2
        assert any("[stage: prepare]" in r.message for r in caplog.records)

    def test_wrote_lines_name_every_output(self, small_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config_file(tmp_path / "cfg.txt", **base_keys(small_dataset, str(out)))
        assert main(["run-all", "--config", cfg]) == 0
        wrote = [line[len("wrote "):] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("wrote ")]
        assert all(os.path.isfile(path) for path in wrote)
        assert len(set(wrote)) == len(wrote)
        names = {os.path.relpath(path, out) for path in wrote} | {"effective-config.txt"}
        assert names == set(os.listdir(out))

    def test_effective_config_reruns_identically(self, small_dataset, tmp_path):
        self._rerun_from_echo(small_dataset, tmp_path, "4")

    def test_effective_config_with_k_list_reruns_identically(
        self, small_dataset, tmp_path
    ):
        self._rerun_from_echo(small_dataset, tmp_path, "2,3")

    @staticmethod
    def _rerun_from_echo(small_dataset, tmp_path, k):
        """Run with ``k``, rerun from the echoed config, and compare outputs."""
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        cfg = write_config_file(tmp_path / "cfg.txt", **base_keys(small_dataset, out1, k=k))
        assert main(["run-all", "--config", cfg]) == 0
        echoed = os.path.join(out1, "effective-config.txt")
        assert f"k = {k}" in Path(echoed).read_text().splitlines()
        assert main(["run-all", "--config", echoed, "--output-dir", out2]) == 0
        for name in ("report.json", "rankings.csv"):
            a = Path(out1, name).read_bytes()
            b = Path(out2, name).read_bytes()
            assert a == b, name

    @staticmethod
    def _count_fits(monkeypatch, name="gbdt_fit", rows_arg=2) -> list:
        """Record each fit's number of training rows: ``model.<name>`` with
        the rows as its positional argument ``rows_arg``."""
        from sda import model

        calls = []
        real = getattr(model, name)

        def fit(*args, **kwargs):
            calls.append(len(args[rows_arg]))
            return real(*args, **kwargs)

        monkeypatch.setattr(model, name, fit)
        return calls

    @pytest.mark.parametrize("command,expected", [("rank", 1), ("run-all", 6)])
    def test_one_full_set_gbdt_fit_under_grid(
        self, small_dataset, tmp_path, monkeypatch, command, expected
    ):
        # the grid search and the final model share one full-set ensemble:
        # rank fits it once, run-all once plus one fit per CV fold
        calls = self._count_fits(monkeypatch)
        keys = base_keys(small_dataset, str(tmp_path / "out"),
                         svm_c="1,10", svm_gamma="0.01,0.1")
        cfg = write_config_file(tmp_path / "cfg.txt", **keys)
        assert main([command, "--config", cfg]) == 0
        assert len(calls) == expected

    def test_single_point_evaluate_fits_only_the_folds(
        self, small_dataset, tmp_path, monkeypatch
    ):
        # one fit per CV fold, on its training pairs, and none on the full set
        calls = self._count_fits(monkeypatch)
        out = str(tmp_path / "out")
        cfg = write_config_file(tmp_path / "cfg.txt", **base_keys(small_dataset, out))
        assert main(["evaluate", "--config", cfg]) == 0
        folds = json.loads(Path(out, "report.json").read_text())["folds"]
        assert calls == [fold["n_train"] for fold in folds]
        assert len(calls) == 5

    def test_grid_evaluate_trains_no_full_set_svm(
        self, small_dataset, tmp_path, monkeypatch
    ):
        # the grid pick needs the full-set ensemble, but no SVM at the pick:
        # the final SVMs are the CV folds' own
        gbdt_calls = self._count_fits(monkeypatch)
        svm_calls = self._count_fits(monkeypatch, "smo_train", rows_arg=0)
        out = str(tmp_path / "out")
        keys = base_keys(small_dataset, out, svm_c="1,10", svm_gamma="0.01,0.1")
        cfg = write_config_file(tmp_path / "cfg.txt", **keys)
        assert main(["evaluate", "--config", cfg]) == 0
        folds = json.loads(Path(out, "report.json").read_text())["folds"]
        # 5 folds x 4 cells of the grid, then the CV folds' own
        assert len(svm_calls) == 5 * 4 + 5
        assert svm_calls[-5:] == [fold["n_train"] for fold in folds]
        n_balanced = folds[0]["n_train"] + folds[0]["n_test"]
        assert max(svm_calls) < n_balanced
        assert len(gbdt_calls) == 6

    def test_grid_rank_fits_every_svm_through_smo_train(
        self, small_dataset, tmp_path, monkeypatch
    ):
        # one fit per grid cell and fold, then the ranking model's on the
        # full balanced set
        svm_calls = self._count_fits(monkeypatch, "smo_train", rows_arg=0)
        keys = base_keys(small_dataset, str(tmp_path / "out"),
                         svm_c="1,10", svm_gamma="0.01,0.1")
        cfg = write_config_file(tmp_path / "cfg.txt", **keys)
        assert main(["rank", "--config", cfg]) == 0
        n_folds = PipelineConfig().n_folds
        assert len(svm_calls) == n_folds * 4 + 1
        assert svm_calls[-1] > max(svm_calls[:-1])


class TestHoldout:
    def test_report_fields_and_determinism(self, small_dataset, tmp_path):
        out1, out2 = str(tmp_path / "h1"), str(tmp_path / "h2")
        c1 = write_config_file(
            tmp_path / "c1.txt",
            **base_keys(small_dataset, out1, holdout_fraction=0.15),
        )
        c2 = write_config_file(
            tmp_path / "c2.txt",
            **base_keys(small_dataset, out2, holdout_fraction=0.15),
        )
        assert main(["holdout", "--config", c1]) == 0
        assert main(["holdout", "--config", c2]) == 0
        r1 = Path(out1, "holdout_report.json").read_bytes()
        r2 = Path(out2, "holdout_report.json").read_bytes()
        assert r1 == r2
        doc = json.loads(r1)
        for key in ("mean_percentile", "fraction_in_top_k", "n_held_out", "pairs"):
            assert key in doc
        assert doc["n_held_out"] == len(doc["pairs"]) + 0  # none excluded here

    def test_zero_size_holdout_rejected(self, small_dataset, tmp_path):
        cfg = write_config_file(
            tmp_path / "cfg.txt",
            **base_keys(small_dataset, str(tmp_path / "out"), holdout_fraction="0.6"),
        )
        assert main(["holdout", "--config", cfg]) == 1  # outside (0, 0.5]

    def test_tiny_fraction_rounds_to_zero_rejected(self, tmp_path):
        entries = np.zeros((4, 3), dtype=np.int8)
        entries[0, 0] = 1
        am = AssociationMatrix([f"s{i}" for i in range(4)], ["d0", "d1", "d2"], entries)
        assoc = str(tmp_path / "a.csv")
        save_association_matrix(am, assoc)
        cfg = write_config_file(
            tmp_path / "cfg.txt",
            association_path=assoc, output_dir=str(tmp_path / "out"),
            holdout_fraction=0.1, seed=0,
        )
        assert main(["holdout", "--config", cfg]) == 1  # 0.1 * 1 positive -> empty

    @staticmethod
    def holdout(entries, tmp_path, caplog, seed=0):
        """``holdout`` of half the positives of ``entries`` at k=2 and one
        SVM point; returns the exit code and the report, if written."""
        n_s, n_d = entries.shape
        am = AssociationMatrix(
            [f"s{i}" for i in range(n_s)], [f"d{j}" for j in range(n_d)], entries
        )
        assoc, out = str(tmp_path / "a.csv"), tmp_path / "out"
        save_association_matrix(am, assoc)
        cfg = write_config_file(
            tmp_path / "cfg.txt", association_path=assoc, output_dir=str(out),
            holdout_fraction=0.5, k=2, svm_c=10, svm_gamma=0.1, seed=seed,
        )
        with caplog.at_level("INFO"):
            code = main(["holdout", "--config", cfg])
        report = out / "holdout_report.json"
        return code, json.loads(report.read_bytes()) if report.exists() else None

    def test_emptied_disease_is_excluded(self, tmp_path, caplog):
        entries = np.zeros((20, 4), dtype=np.int8)
        entries[0:10, 0] = 1
        entries[5:15, 1] = 1
        entries[10:20, 2] = 1
        entries[3, 3] = 1  # d3's only positive, held out at seed 2
        code, doc = self.holdout(entries, tmp_path, caplog, seed=2)
        assert code == 0
        assert doc["excluded_diseases"] == ["d3"]
        assert "disease 'd3'; excluded from report" in caplog.text
        assert (doc["n_held_out"], doc["n_reported"]) == (16, 15)
        assert "d3" not in {row["disease_id"] for row in doc["pairs"]}
        assert "prepared" in caplog.text

    def test_nothing_scorable_fails_before_preparing(self, tmp_path, caplog):
        """With one positive per disease, every held pair empties its
        disease: a data error before anything is prepared or fitted."""
        entries = np.zeros((10, 6), dtype=np.int8)
        np.fill_diagonal(entries, 1)
        code, doc = self.holdout(entries, tmp_path, caplog)
        assert (code, doc) == (2, None)
        assert "holdout produced no scorable held-out pairs" in caplog.text
        assert "prepared" not in caplog.text


@pytest.fixture(scope="module")
def prepared_dir(small_dataset, tmp_path_factory):
    """A prepare run's artifacts for the ``prepared_dir`` key."""
    out = str(tmp_path_factory.mktemp("prepared"))
    cfg = write_config_file(os.path.join(out, "cfg.txt"), **base_keys(small_dataset, out))
    assert main(["prepare", "--config", cfg]) == 0
    return out


def load_prepared(paths, prepared):
    """``pipeline.load_prepared`` on the prepare run in ``prepared``."""
    cfg = PipelineConfig(association_path=paths["association"], prepared_dir=prepared)
    return pipeline.load_prepared(load_association_matrix(cfg.association_path), cfg)


def test_prepare_run_with_all_ones_masks_ranks_the_same(
    small_dataset, prepared_dir, tmp_path
):
    """A prepare run that also holds ``MSFS.mask.csv`` and ``MDSS.mask.csv``
    with every cell 1, as earlier versions wrote them, loads the same."""
    masked = tmp_path / "masked"
    shutil.copytree(prepared_dir, masked)
    for name in ("MSFS", "MDSS"):
        ids, _ = load_similarity_matrix(str(masked / f"{name}.csv"))
        write_table(str(masked / f"{name}.mask.csv"), ids, ids,
                    np.ones((len(ids),) * 2, np.int8))
    rankings = []
    for prepared in (prepared_dir, str(masked)):
        out = tmp_path / f"out-{len(rankings)}"
        keys = base_keys(small_dataset, str(out), prepared_dir=prepared)
        cfg = write_config_file(tmp_path / "cfg.txt", **keys)
        assert main(["rank", "--config", cfg]) == 0
        rankings.append((out / "rankings.csv").read_bytes())
    assert rankings[0] == rankings[1]


@pytest.mark.parametrize("name", ["MSFS", "MDSS"])
def test_prepare_run_with_an_undefined_pair_exits_two(
    name, small_dataset, prepared_dir, tmp_path, caplog
):
    """A prepare run's fused similarities are defined at every pair, so a 0
    in its ``MSFS.mask.csv`` or ``MDSS.mask.csv`` is a data error naming
    that mask."""
    masked = tmp_path / "masked"
    shutil.copytree(prepared_dir, masked)
    ids, _ = load_similarity_matrix(str(masked / f"{name}.csv"))
    flags = np.ones((len(ids),) * 2, np.int8)
    flags[0, 1] = flags[1, 0] = 0
    write_table(str(masked / f"{name}.mask.csv"), ids, ids, flags)
    keys = base_keys(small_dataset, str(tmp_path / "out"), prepared_dir=str(masked))
    cfg = write_config_file(tmp_path / "cfg.txt", **keys)
    assert main(["rank", "--config", cfg]) == 2
    assert f"{masked / name}.mask.csv: holds a 0" in caplog.text


# case -> (the rows under balanced_pairs.csv's header, written over the ids of
# its first row "{s},{d}", a positive, and of its last row "{ns},{nd}", a
# negative; what the error names after the path). None empties the file.
MALFORMED_PAIRS = {
    "two-fields": (["{s},{d}"], ":2:"),
    "non-integer-label": (["{s},{d},yes"], ":2:"),
    "label-outside-0-1": (["{s},{d},2"], ":2:"),
    "empty-file": (None, ":1:"),
    "header-only": ([], ": needs rows of both labels"),
    "one-label": (["{s},{d},1"], ": needs rows of both labels"),
    "known-cell-labelled-0": (["{ns},{nd},0", "{s},{d},0"], ":3:"),
    "unknown-cell-labelled-1": (["{s},{d},1", "{ns},{nd},1"], ":3:"),
    "pair-listed-twice": (["{s},{d},1", "{ns},{nd},0", "{s},{d},1"], ":4:"),
}


class TestMalformedPairsFile:
    def _corrupt(self, prepared_dir, tmp_path, case):
        rows, where = MALFORMED_PAIRS[case]
        broken = str(tmp_path / "prepared")
        shutil.copytree(prepared_dir, broken)
        path = os.path.join(broken, "balanced_pairs.csv")
        with open(path, encoding="utf-8") as fh:
            header, first, *_, last = fh.read().splitlines()
        s, d, _label = first.split(",")
        ns, nd, _label = last.split(",")
        with open(path, "w", encoding="utf-8") as fh:
            if rows is not None:
                ids = dict(s=s, d=d, ns=ns, nd=nd)
                fh.write("\n".join([header] + [r.format(**ids) for r in rows]) + "\n")
        return broken, path + where

    @pytest.mark.parametrize("case", sorted(MALFORMED_PAIRS))
    def test_load_prepared_raises_data_error(
        self, case, small_dataset, prepared_dir, tmp_path
    ):
        broken, where = self._corrupt(prepared_dir, tmp_path, case)
        with pytest.raises(DataError, match=re.escape(where)):
            load_prepared(small_dataset, broken)

    @pytest.mark.parametrize("case", sorted(MALFORMED_PAIRS))
    def test_cli_exits_2(self, case, small_dataset, prepared_dir, tmp_path, caplog):
        broken, where = self._corrupt(prepared_dir, tmp_path, case)
        keys = base_keys(small_dataset, str(tmp_path / "out"), prepared_dir=broken)
        cfg = write_config_file(tmp_path / "cfg.txt", **keys)
        assert main(["evaluate", "--config", cfg]) == 2
        assert where in caplog.text


# case -> (file written into a copy of a prepare run, its text with blank
# lines before a bad row, that row's physical line, loader of the copy;
# "{s},{d}" is the run's first balanced pair)
BLANK_LINE_CASES = {
    "association": (
        "am.csv", ",d1,d2\n\ns1,1,0\n\ns2,1\n", 5,
        lambda d, _: load_association_matrix(os.path.join(d, "am.csv")),
    ),
    "feature-csv": (
        "ft.csv", ",f1,f2\n\n\ns1,1.0,x\n", 4,
        lambda d, _: load_feature_table(os.path.join(d, "ft.csv")),
    ),
    "feature-tsv": (
        "ft.tsv", "\tf1\tf2\n\ns1\t1.0\t2.0\n\ns2\tnan\t1.0\n", 5,
        lambda d, _: load_feature_table(os.path.join(d, "ft.tsv")),
    ),
    "similarity": (
        "sim.csv", ",a,b\n\na,1.0,0.5\n\nb,0.5\n", 5,
        lambda d, _: load_similarity_matrix(os.path.join(d, "sim.csv")),
    ),
    "mask": (
        "MSFS.mask.csv", ",a,b\n\n\na,1,1\nb,1,2\n", 5,
        lambda d, _: load_similarity_matrix(os.path.join(d, "MSFS.csv")),
    ),
    "dag": (
        "dag.csv", "A,R\n\nB,R,X\n", 3,
        lambda d, _: load_disease_dag(os.path.join(d, "dag.csv")),
    ),
    "balanced-pairs": (
        "balanced_pairs.csv", "snorna_id,disease_id,label\n\n{s},{d},1\n\n{s},{d},2\n", 5,
        lambda d, paths: load_prepared(paths, d),
    ),
}


@pytest.mark.parametrize("case", sorted(BLANK_LINE_CASES))
def test_error_names_physical_line(case, small_dataset, prepared_dir, tmp_path):
    name, text, line, load = BLANK_LINE_CASES[case]
    directory = str(tmp_path / "files")
    shutil.copytree(prepared_dir, directory)
    path = os.path.join(directory, name)
    with open(os.path.join(prepared_dir, "balanced_pairs.csv"), encoding="utf-8") as fh:
        s, d, _label = fh.read().splitlines()[1].split(",")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.format(s=s, d=d))
    with pytest.raises(DataError, match=re.escape(f"{path}:{line}:")):
        load(directory, small_dataset)


# case -> prepare.json's content; None removes the file
MALFORMED_RECORDS = {
    "missing": None,
    "not-json": "k = 3\n",
    "not-an-object": "[3]\n",
    "no-k": '{"n": 3}\n',
    "k-a-string": '{"k": "3"}\n',
    "k-zero": '{"k": 0}\n',
}


class TestPrepareRecord:
    def test_reused_prepare_run_reports_its_k(self, small_dataset, tmp_path, capsys):
        prep = str(tmp_path / "prep")
        keys = base_keys(small_dataset, prep, k="2,3")
        cfg = write_config_file(tmp_path / "c1.txt", **keys)
        assert main(["prepare", "--config", cfg]) == 0
        chosen = int(re.search(r"\(k=(\d+)\)", capsys.readouterr().out).group(1))
        assert chosen in (2, 3)
        with open(os.path.join(prep, "prepare.json"), encoding="utf-8") as fh:
            assert json.load(fh) == {"k": chosen}

        keys = dict(keys, output_dir=str(tmp_path / "out"), prepared_dir=prep)
        cfg = write_config_file(tmp_path / "c2.txt", **keys)
        assert main(["evaluate", "--config", cfg]) == 0
        assert f"(k={chosen})" in capsys.readouterr().out

    def _corrupt(self, prepared_dir, tmp_path, case):
        broken = str(tmp_path / "prepared")
        shutil.copytree(prepared_dir, broken)
        path = os.path.join(broken, "prepare.json")
        content = MALFORMED_RECORDS[case]
        if content is None:
            os.remove(path)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
        return broken, path

    @pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
    def test_load_prepared_raises_data_error(
        self, case, small_dataset, prepared_dir, tmp_path
    ):
        broken, path = self._corrupt(prepared_dir, tmp_path, case)
        with pytest.raises(DataError, match=re.escape(path)):
            load_prepared(small_dataset, broken)

    @pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
    def test_cli_exits_2(self, case, small_dataset, prepared_dir, tmp_path, caplog):
        broken, path = self._corrupt(prepared_dir, tmp_path, case)
        keys = base_keys(small_dataset, str(tmp_path / "out"), prepared_dir=broken)
        cfg = write_config_file(tmp_path / "cfg.txt", **keys)
        assert main(["evaluate", "--config", cfg]) == 2
        assert path in caplog.text


def run_fresh(argv, **env_vars):
    """``main(argv)`` in a fresh interpreter, with ``env_vars`` added to the
    environment: its exit code, its standard error, and the names of the
    modules it imported by the end."""
    code = (
        "import sys; from sda.cli import main; rc = main(sys.argv[1:]); "
        "print(*sys.modules, sep='\\n'); sys.exit(rc)"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sda.__file__)))
    env = dict(os.environ, PYTHONPATH=src, **env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stderr, set(proc.stdout.splitlines())


@pytest.mark.parametrize("command", ("evaluate", "rank"))
def test_command_does_not_import_numpy_ma(command, small_dataset, tmp_path):
    # the first plain np.unique imports numpy.ma, which costs every command
    # about 12 ms and 1.5 MB; no label check needs it
    cfg = write_config_file(
        tmp_path / "cfg.txt", **base_keys(small_dataset, str(tmp_path / "out"))
    )
    rc, err, modules = run_fresh([command, "--config", cfg])
    assert rc == 0, err
    assert "numpy" in modules
    assert "numpy.ma" not in modules
    # the records are NamedTuples: dataclasses costs an import and a
    # compiled __init__, __repr__ and __eq__ per class
    assert "dataclasses" not in modules
    # a rank at one SVM point computes no metric and writes no JSON: the
    # imports of both wait for the code that uses them
    evaluates = command == "evaluate"
    assert ("sda.evaluation" in modules) == evaluates
    assert ("json" in modules) == evaluates


def test_rankings_do_not_depend_on_blas_threads(tmp_path):
    # A threaded BLAS matrix-vector product rounds differently by thread
    # count at some sizes (1,860 rows among them, the final fit here); the
    # SVM sums its kernel rows without BLAS, so the scores keep their bits.
    threads = min(4, os.cpu_count() or 1)
    if threads < 2:
        pytest.skip("one CPU: no second BLAS thread count to compare")
    am, ft, dag = make_block_dataset(n_snornas=200, n_diseases=60, seed=3)
    paths = write_dataset_files(str(tmp_path / "data"), am, ft, dag)
    rankings = []
    for n in (1, threads):
        out = tmp_path / f"out-{n}"
        cfg = write_config_file(
            tmp_path / f"cfg-{n}.txt", association_path=paths["association"],
            feature_path=paths["features"], dag_path=paths["dag"],
            output_dir=str(out), svm_c="10", svm_gamma="0.1",
        )
        count = str(n)
        rc, err, _ = run_fresh(
            ["rank", "--config", cfg],
            OPENBLAS_NUM_THREADS=count, OMP_NUM_THREADS=count, MKL_NUM_THREADS=count,
        )
        assert rc == 0, err
        rankings.append((out / "rankings.csv").read_bytes())
    assert rankings[0] == rankings[1]


def test_command_freezes_the_startup_heap(tmp_path):
    # The collections at exit walked the ~22k objects that importing numpy
    # and sda makes, most of the exit time; main freezes those objects so
    # that the collector skips them. They are counted after a collection:
    # the cyclic garbage of the imports is freed, not frozen.
    paths = write_dataset_files(str(tmp_path / "data"), *make_block_dataset(40, 12, seed=0))
    cfg = write_config_file(
        tmp_path / "cfg.txt", association_path=paths["association"],
        feature_path=paths["features"], dag_path=paths["dag"], k="4",
        output_dir=str(tmp_path / "out"), svm_c="10", svm_gamma="0.1",
    )
    code = (
        "import gc, sys; import numpy; from sda import cli; gc.collect(); "
        "imported = len(gc.get_objects()); rc = cli.main(['rank', '--config', sys.argv[1]]); "
        "print(rc, imported, gc.get_freeze_count())"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sda.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code, cfg], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    rc, imported, frozen = map(int, proc.stdout.splitlines()[-1].split())
    assert rc == 0, proc.stderr
    assert frozen >= imported > 0


@pytest.mark.parametrize(
    "case", ("non-utf8-association", "directory-association", "directory-prepare-record")
)
def test_unreadable_input_exits_two(case, small_dataset, prepared_dir, tmp_path):
    keys = base_keys(small_dataset, str(tmp_path / "out"))
    command = "prepare"
    if case == "non-utf8-association":
        path = str(tmp_path / "association.csv")
        with open(small_dataset["association"], "rb") as fh:
            content = fh.read()
        with open(path, "wb") as fh:
            fh.write(content.replace(b"sno", b"sn\xe9", 1))  # Latin-1 e-acute
        keys["association_path"] = path
    elif case == "directory-association":
        path = str(tmp_path)
        keys["association_path"] = path
    else:
        broken = str(tmp_path / "prepared")
        shutil.copytree(prepared_dir, broken)
        path = os.path.join(broken, "prepare.json")
        os.remove(path)
        os.mkdir(path)
        keys["prepared_dir"] = broken
        command = "evaluate"
    cfg = write_config_file(tmp_path / "cfg.txt", **keys)
    rc, err, _ = run_fresh([command, "--config", cfg])
    assert rc == 2, err
    assert "Traceback" not in err
    assert f"data error: {path}" in err


MATRIX_COMMANDS = ("prepare", "evaluate", "rank", "run-all", "holdout")
MATRIX_GRIDS = {
    "single": {"svm_c": "10", "svm_gamma": "0.1"},
    "grid": {"svm_c": "1,10", "svm_gamma": "1/d,0.1"},
}


@pytest.mark.parametrize("reuse", ("fresh", "prepared-dir"))
@pytest.mark.parametrize("grid", sorted(MATRIX_GRIDS))
@pytest.mark.parametrize("ks", ("k", "k-range"))
@pytest.mark.parametrize("mode", ("paper-faithful", "strict-folds"))
@pytest.mark.parametrize("command", MATRIX_COMMANDS)
def test_config_matrix_exit_codes(
    command, mode, ks, grid, reuse, small_dataset, prepared_dir, tmp_path, caplog
):
    """Every command under every combination of mode, one or several k, SVM
    grid and prepared_dir ends in an exit code, never a traceback.
    Strict-folds cannot reuse a prepare run (exit 1); holdout always
    rebuilds its data, so it ignores prepared_dir."""
    extra = dict(MATRIX_GRIDS[grid], mode=mode, n_folds=3)
    if reuse == "prepared-dir":
        extra["prepared_dir"] = prepared_dir
    keys = base_keys(small_dataset, str(tmp_path / "out"), **extra)
    if ks == "k-range":
        keys["k"] = "2,3"
    cfg = write_config_file(tmp_path / "cfg.txt", **keys)
    expected = (
        1 if mode == "strict-folds" and reuse == "prepared-dir" and command != "holdout"
        else 0
    )
    assert main([command, "--config", cfg]) == expected
    assert "Traceback" not in caplog.text
