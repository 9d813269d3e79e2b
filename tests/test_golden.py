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
        "e6da756f39d4fda2e317b347a0e18f8061b26beca8af5c9f7b4834335aa2d303",
    ),
    "evaluate-strict-folds": (
        "evaluate", {"mode": "strict-folds"}, "report.json",
        "99275d06c21abf3b57284f46338f8ed7a86aa5b6f81c7a8231f96fb73271a0bb",
    ),
    "evaluate-k-range": (
        "evaluate", {"k_range": "5,10"}, "report.json",
        "3059c08c5283d0afe03750235cb32863da9fd93be85206430278203edb9a16f3",
    ),
    "holdout": (
        "holdout", {}, "holdout_report.json",
        "277966baa44bdf6537f73a148c8c8694e68842eb2f3426023b6c5ad0289003f8",
    ),
    "rank": (
        "rank", {}, "rankings.csv",
        "922da4b9a54ba1aa5f79905449ef7900cc0416b7e253bc0afd206448c9b6926b",
    ),
    "rank-grid": (
        "rank", {"svm_c": "1,10", "svm_gamma": "0.01,0.1"}, "rankings.csv",
        "b22f2a8aeaa0a3d49a00f47e8179b1be6588b768d7c2df4abc95e3cf56255c5c",
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
