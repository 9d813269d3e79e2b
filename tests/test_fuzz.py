"""Seeded fuzz test of the command line: every input file, mutated, ends in
exit 0, 1 or 2, never in a traceback.

Each case copies one input of a small, valid run, mutates it and runs
``cli.main`` on it once. The inputs are the association matrix, the
feature table as CSV and as TSV, the disease DAG, a disease similarity
file and its mask, a prepare run's ``balanced_pairs.csv`` and
``prepare.json``, and the ``--config`` file. The mutations are truncation
at a random byte, a random byte replaced (0xff included), a line
duplicated or dropped, an empty file, and a directory in the file's place.
Every random choice is drawn from a ``random.Random`` seeded by the case's
name, so each case is the same on every run.
"""

import os
import random
import shutil
import traceback

import numpy as np
import pytest

from sda.cli import main
from sda.corpus import write_table
from sda.similarity import load_similarity_matrix
from sda.synth import make_block_dataset, write_dataset_files

from conftest import write_config_file

# mutation -> cases drawn per input; the last two draw nothing
MUTATIONS = {
    "truncate": 8, "replace-byte": 8, "duplicate-line": 5, "drop-line": 5,
    "empty": 1, "directory": 1,
}

# input -> (command run on it, whether it reads a prepare run)
INPUTS = {
    "association": ("rank", False),
    "features-csv": ("rank", False),
    "features-tsv": ("rank", False),
    "dag": ("evaluate", False),
    "disease-similarity": ("rank", False),
    "disease-similarity-mask": ("rank", False),
    "balanced-pairs": ("evaluate", True),
    "prepare-record": ("rank", True),
    "config": ("rank", False),
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A small dataset, a prepare run on it, and the name of each input's
    file among them."""
    root = tmp_path_factory.mktemp("fuzz")
    am, ft, dag = make_block_dataset(
        n_snornas=16, n_diseases=6, n_blocks=2, within=0.7, across=0.05,
        n_features=6, seed=5,
    )
    paths = write_dataset_files(str(root), am, ft, dag)
    with open(paths["features"], encoding="utf-8") as fh:
        tsv = fh.read().replace(",", "\t")
    with open(root / "features.tsv", "w", encoding="utf-8") as fh:
        fh.write(tsv)
    prepared = root / "prepared"
    cfg = write_config_file(
        root / "prepare.txt", association_path=paths["association"],
        feature_path=paths["features"], dag_path=paths["dag"], output_dir=str(prepared),
        k=3, seed=1,
    )
    assert main(["prepare", "--config", cfg]) == 0
    shutil.copy(prepared / "MDSS.csv", root / "dss.csv")
    ids, _ = load_similarity_matrix(str(root / "dss.csv"))
    write_table(str(root / "dss.mask.csv"), ids, ids, np.ones((len(ids),) * 2, np.int8))
    return root, {
        "association": "association.csv",
        "features-csv": os.path.basename(paths["features"]),
        "features-tsv": "features.tsv",
        "dag": os.path.basename(paths["dag"]),
        "disease-similarity": "dss.csv",
        "disease-similarity-mask": "dss.mask.csv",
        "balanced-pairs": "prepared/balanced_pairs.csv",
        "prepare-record": "prepared/prepare.json",
        "config": "cfg.txt",
    }


def mutate(path, mutation, rng):
    """Apply ``mutation`` to the file at ``path`` with draws from ``rng``."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.splitlines(keepends=True)
    if mutation == "truncate":
        data = data[: rng.randrange(len(data))]
    elif mutation == "replace-byte":
        at = rng.randrange(len(data))
        data = data[:at] + bytes([rng.choice((0xFF, rng.randrange(256)))]) + data[at + 1:]
    elif mutation == "duplicate-line":
        at = rng.randrange(len(lines))
        data = b"".join(lines[: at + 1] + lines[at:])
    elif mutation == "drop-line":
        at = rng.randrange(len(lines))
        data = b"".join(lines[:at] + lines[at + 1:])
    elif mutation == "empty":
        data = b""
    else:
        os.remove(path)
        os.mkdir(path)
        return
    with open(path, "wb") as fh:
        fh.write(data)


def run_case(root, files, name, mutation, rep, tmp_path):
    """Run one mutated case; returns its exit code."""
    command, reads_prepared = INPUTS[name]
    case = tmp_path / f"{mutation}-{rep}"
    case.mkdir()
    shutil.copytree(root / "prepared", case / "prepared")
    for key in ("association", "features-csv", "features-tsv", "dag", "disease-similarity",
                "disease-similarity-mask"):
        shutil.copy(root / files[key], case / files[key])
    keys = dict(
        association_path=str(case / files["association"]),
        feature_path=str(case / files[
            "features-tsv" if name == "features-tsv" else "features-csv"
        ]),
        output_dir=str(case / "out"), k=3, seed=1, svm_c="10", svm_gamma="0.1",
        n_folds=3, top_k=3,
    )
    if name.startswith("disease-similarity"):
        keys["disease_similarity_path"] = str(case / files["disease-similarity"])
    else:
        keys["dag_path"] = str(case / files["dag"])
    if reads_prepared:
        keys["prepared_dir"] = str(case / "prepared")
    cfg = write_config_file(case / files["config"], **keys)
    mutate(case / files[name], mutation, random.Random(f"{name}:{mutation}:{rep}"))
    return main([command, "--config", cfg])


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_mutated_input_exits_cleanly(name, mutation, pristine, tmp_path, caplog, monkeypatch):
    root, files = pristine
    # a mutated config can name a relative output directory, or none
    monkeypatch.chdir(tmp_path)
    for rep in range(MUTATIONS[mutation]):
        caplog.clear()
        try:
            rc = run_case(root, files, name, mutation, rep, tmp_path)
        except Exception:
            pytest.fail(f"{name} {mutation} #{rep} raised:\n{traceback.format_exc()}")
        assert rc in (0, 1, 2), f"{name} {mutation} #{rep}: exit {rc}\n{caplog.text}"
        assert "Traceback" not in caplog.text, f"{name} {mutation} #{rep}"
