"""Golden digests: byte-level lock on the CLI's deterministic outputs.

Each case runs ``sda.cli.main`` on one fixed synthetic problem and compares
the sha256 of the written artifact with a digest pinned from an earlier
version of the code (numpy's floating-point results are part of what is
pinned). A change that is meant to keep behaviour (a speed-up,
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


@pytest.fixture(scope="module")
def golden_dataset(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-data")
    am, ft, dag = make_block_dataset(n_snornas=40, n_diseases=12, seed=7)
    return write_dataset_files(str(directory), am, ft, dag)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_digest_pinned(case, golden_dataset, tmp_path):
    command, extra, artifact, digest = GOLDEN[case]
    out = str(tmp_path / "out")
    keys = dict(
        association_path=golden_dataset["association"],
        feature_path=golden_dataset["features"],
        dag_path=golden_dataset["dag"],
        output_dir=out,
        seed=7,
        svm_c="10.0",
        svm_gamma="0.1",
    )
    keys.update(extra)
    cfg = write_config_file(tmp_path / "cfg.txt", **keys)
    assert main([command, "--config", cfg]) == 0
    with open(os.path.join(out, artifact), "rb") as fh:
        got = hashlib.sha256(fh.read()).hexdigest()
    assert got == digest, f"{case}: {artifact} changed (sha256 {got})"
