"""Golden digests: byte-level lock on the CLI's deterministic outputs.

Each case runs ``sda.cli.main`` on one fixed synthetic problem and compares
the sha256 of the written artifact with a digest pinned from an earlier
version of the code (numpy's floating-point results are part of what is
pinned). The other files ``prepare`` and ``evaluate`` write, and the
generator's dataset files, are pinned the same way. A change that is meant to keep behaviour (a speed-up,
a refactor) must leave every digest as it is; a change that alters results
on purpose re-pins the digest and says why.
"""

import hashlib
import os

import pytest

from sda.cli import main
from sda.synth import make_block_dataset, write_dataset_files

from conftest import write_config_file

# case -> (command, extra config keys, artifact, sha256 of the artifact)
GOLDEN = {
    "evaluate": (
        "evaluate", {}, "report.json",
        "244dff6ab1d7fb4c129ac94898b2c921a33ac1e2aea7ed47255600850f284b4a",
    ),
    "evaluate-strict-folds": (
        "evaluate", {"mode": "strict-folds"}, "report.json",
        "60869e1d4dbe961809af5a2d52fb0408e26a3f5fcbe53e7bf653998db1509a78",
    ),
    "evaluate-k-range": (
        "evaluate", {"k": "5,10"}, "report.json",
        "39e404fcc7ad7b56b36991a69849f28f0e32b8f873428cc0835fa2de7c0693f5",
    ),
    "evaluate-strict-k-range": (
        "evaluate", {"mode": "strict-folds", "k": "5,10"}, "report.json",
        "1c1d1a9818214731fe45d4380f3ed4e806cf47a63fe44895d0689be4577d2f64",
    ),
    "holdout": (
        "holdout", {}, "holdout_report.json",
        "56e822edd0248878cf64656f9e5007b3cd540464115b1edc2f6101cb197d789d",
    ),
    "rank": (
        "rank", {}, "rankings.csv",
        "92cc4364ab27a780dfe6be1d5178b4d381c1f80d4affb5820e7d543f77e5e950",
    ),
    "rank-grid": (
        "rank", {"svm_c": "1,10", "svm_gamma": "0.01,0.1"}, "rankings.csv",
        "dc8289dcd3e0c62b15e35c869dd29e6542d4e8a30833e692e5dd50db59e79ee5",
    ),
    # run-all: evaluate and rank share one grid search's pick
    "run-all-grid-report": (
        "run-all", {"svm_c": "1,10", "svm_gamma": "0.01,0.1"}, "report.json",
        "72b48299ab39eb5fd10166dd82d757ebd7161bc5174790a3fb2fff315fef8bf1",
    ),
    "run-all-grid-rankings": (
        "run-all", {"svm_c": "1,10", "svm_gamma": "0.01,0.1"}, "rankings.csv",
        "dc8289dcd3e0c62b15e35c869dd29e6542d4e8a30833e692e5dd50db59e79ee5",
    ),
}


# command -> {artifact: sha256} for the other files a command writes, run
# on the same problem and config as GOLDEN's cases
ARTIFACTS = {
    "prepare": {
        "MSFS.csv": "406044387da553526da7b1117b52816b303113816c53aa73299f0b33a6f7f7e0",
        "MSFS.mask.csv": "8cd89ee5472230d80290c82b015b443f90306e1c7ff5768ce546ed5f83687de3",
        "MDSS.csv": "e2e6ab8ac43e03fe5e1a8e26b18bc4a19086fa9f65516c5e0891b30b4f1857c9",
        "MDSS.mask.csv": "8dc02b7ebbf2edbb5f93141f1bf3cbfcc3f401f94820a66bb46df786f746933d",
        "balanced_pairs.csv": "145f3a56c2e5234e23573a52ba7e8bbba9b9f18b8631f89f7ef1594b2d51b9a0",
        "prepare.json": "2d478659a9015b9efd0a9d9cb33c5beb0799c2ee4862a86a3605861db43641ac",
    },
    "evaluate": {
        "roc_points.csv": "08d2ad56142353afb2df22019bcfbdf1538bd3c52b1ca25b799844d2b7a360b8",
        "pr_points.csv": "d81b06bc47904ed36643f3bb8ca173cbe45349c616caf75f0b4319824ebe809e",
    },
}

# write_dataset_files' key -> sha256 of that file, for the golden problem
DATASET_FILES = {
    "association": "365e03ef5b598e69a31d3feda75cd6e5b0dff94534283086cc3a65ce408847c4",
    "features": "ea6132384569f33939a4b29004acc5efb1d81dc68b3610a7f1804d49449c597c",
    "dag": "f81927ce0a5f71bd286b352a96ef99df5712f5afc040e03f385c57ec4dc9a206",
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(command, extra, dataset, tmp_path):
    """Run ``command`` on the golden problem; returns its output directory."""
    out = str(tmp_path / "out")
    keys = dict(
        association_path=dataset["association"],
        feature_path=dataset["features"],
        dag_path=dataset["dag"],
        output_dir=out,
        seed=7,
        svm_c="10.0",
        svm_gamma="0.1",
    )
    keys.update(extra)
    cfg = write_config_file(tmp_path / "cfg.txt", **keys)
    assert main([command, "--config", cfg]) == 0
    return out


@pytest.fixture(scope="module")
def golden_dataset(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-data")
    am, ft, dag = make_block_dataset(n_snornas=40, n_diseases=12, seed=7)
    return write_dataset_files(str(directory), am, ft, dag)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_digest_pinned(case, golden_dataset, tmp_path):
    command, extra, artifact, digest = GOLDEN[case]
    out = _run(command, extra, golden_dataset, tmp_path)
    got = _sha256(os.path.join(out, artifact))
    assert got == digest, f"{case}: {artifact} changed (sha256 {got})"


@pytest.mark.parametrize("command", sorted(ARTIFACTS))
def test_artifact_digests_pinned(command, golden_dataset, tmp_path):
    out = _run(command, {}, golden_dataset, tmp_path)
    got = {name: _sha256(os.path.join(out, name)) for name in ARTIFACTS[command]}
    changed = sorted(name for name in got if got[name] != ARTIFACTS[command][name])
    assert not changed, f"{command}: {changed} changed (sha256 {got})"


def test_dataset_files_pinned(golden_dataset):
    got = {key: _sha256(path) for key, path in golden_dataset.items()}
    assert got == DATASET_FILES
