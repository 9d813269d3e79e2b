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
        "9d4995edf4926fc61560519025f0f7a40ca368b6a44a78573282d7c348fa1e8c",
    ),
    "evaluate-strict-folds": (
        "evaluate", {"mode": "strict-folds"}, "report.json",
        "e4b72ac02f562a4e5345f3778543a9be67bcb328ed6cbf3cbf94ded0366b556b",
    ),
    "evaluate-k-range": (
        "evaluate", {"k_range": "5,10"}, "report.json",
        "406064fe10cf1b0ee02b9abb50007ae927966a22abe01effa99795e61d4feb29",
    ),
    "holdout": (
        "holdout", {}, "holdout_report.json",
        "93e3b3d36cadf8e59e52eadc750a3038e6c27a35bad72a09f067120062a0c85d",
    ),
    "rank": (
        "rank", {}, "rankings.csv",
        "7b4bdf5c6265c87380394126a19aee1be56e5d42b337473c9fc857c1d5edbe5e",
    ),
    "rank-grid": (
        "rank", {"svm_c": "1,10", "svm_gamma": "0.01,0.1"}, "rankings.csv",
        "21f0ce8becfe01f4c524535c01dff1655f76bb7f87e01efed459a3ea3178f8aa",
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
