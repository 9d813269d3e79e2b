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
        "4aee1c6a4e6eb6c6dc6f2b86e7f230d067a01233b247bb8fda16d50657e86a2e",
    ),
    "evaluate-strict-folds": (
        "evaluate", {"mode": "strict-folds"}, "report.json",
        "99275d06c21abf3b57284f46338f8ed7a86aa5b6f81c7a8231f96fb73271a0bb",
    ),
    "evaluate-k-range": (
        "evaluate", {"k_range": "5,10"}, "report.json",
        "66b634674261f553b4bf27a5a97ae9d7be32356e27ac25d683b8f86d354af1c7",
    ),
    "evaluate-strict-k-range": (
        "evaluate", {"mode": "strict-folds", "k_range": "5,10"}, "report.json",
        "ad18d39c75744cbd8ba9b77fa91686481e9d060a9653dc246df15ee0e3dcd457",
    ),
    "holdout": (
        "holdout", {}, "holdout_report.json",
        "7c7a1c7228aadc73f9c2995e66efdd565f19fec63eca9bfa89ebd4dfaf0fb20e",
    ),
    "rank": (
        "rank", {}, "rankings.csv",
        "1fd8c2e850f944190d7c434af4ec23ee0ee2a2e70c0aaad23dbb7a0fea506999",
    ),
    "rank-grid": (
        "rank", {"svm_c": "1,10", "svm_gamma": "0.01,0.1"}, "rankings.csv",
        "d0b17e104b3182f3d6ff28fb3db9fcc050d7355f48734db873dc6472e8c5c927",
    ),
    # run-all: evaluate and rank share one grid search's pick
    "run-all-grid-report": (
        "run-all", {"svm_c": "1,10", "svm_gamma": "0.01,0.1"}, "report.json",
        "7f071ac54945ac66ccb3439e10c9cfef09c5a393d1cedd899f23efa1bd747748",
    ),
    "run-all-grid-rankings": (
        "run-all", {"svm_c": "1,10", "svm_gamma": "0.01,0.1"}, "rankings.csv",
        "d0b17e104b3182f3d6ff28fb3db9fcc050d7355f48734db873dc6472e8c5c927",
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
        "balanced_pairs.csv": "b50564d506eabc075683e4d38ab338e0920dbe25a5fd95b4c191fd75345b2dea",
        "prepare.json": "2d478659a9015b9efd0a9d9cb33c5beb0799c2ee4862a86a3605861db43641ac",
    },
    "evaluate": {
        "roc_points.csv": "2889285cc6cf2f75adc6d3adf426a0c9ef71e1c85100d2ce2943a88f62b67e14",
        "pr_points.csv": "0b83355831e08d2fad83c9344dd19c9ffcd14e456c02c0a5c7e7f126a3f0fd5c",
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
