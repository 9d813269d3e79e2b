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

import numpy as np
import pytest

from sda.cli import main
from sda.corpus import write_table
from sda.synth import make_block_dataset, write_dataset_files
from sda.util import fmt_float

from conftest import write_config_file

# case -> (command, extra config keys, artifact, sha256 of the artifact)
GOLDEN = {
    "evaluate": (
        "evaluate", {}, "report.json",
        "e468f3ae22d45ce27a1b82ad05643de7dedbd07104f498c9300a6fdd388ae35c",
    ),
    "evaluate-strict-folds": (
        "evaluate", {"mode": "strict-folds"}, "report.json",
        "32e4e097ea287d3b5a9171c87d3a14f8e241fedae9b529778f2d92f00b69e60d",
    ),
    "evaluate-k-range": (
        "evaluate", {"k": "5,10"}, "report.json",
        "fce542db0b405cf6fc66ef3cb0541a48e230535c6dae2d0df60439d16d24ad6b",
    ),
    "evaluate-strict-k-range": (
        "evaluate", {"mode": "strict-folds", "k": "5,10"}, "report.json",
        "27b35af442aeec970a1ebb1a2699dd7188c2f9f090041de7006ad300ef46c73f",
    ),
    "holdout": (
        "holdout", {}, "holdout_report.json",
        "56e822edd0248878cf64656f9e5007b3cd540464115b1edc2f6101cb197d789d",
    ),
    "rank": (
        "rank", {}, "rankings.csv",
        "10db18b22818076b02aafa68d42fe3a8e0ea8f9a5b5950fdf5fdc36cbf2c513c",
    ),
    "rank-grid": (
        "rank", {"svm_c": "1,10", "svm_gamma": "0.01,0.1"}, "rankings.csv",
        "bee501c2ef15f8b669ab7025f000fcf07202cf929ef98eb0bf12222fb794ca0d",
    ),
    # no feature table and no DAG: both fused similarities are the GIP kernels
    "rank-no-base": (
        "rank", {"feature_path": "", "dag_path": ""}, "rankings.csv",
        "19501f15a13efdefea4149caf5c82ba76a01e55feac53e4b7063c11a9b71f397",
    ),
    "evaluate-strict-no-base": (
        "evaluate", {"mode": "strict-folds", "feature_path": "", "dag_path": ""},
        "report.json",
        "3f53e565cc6ed72ea762411eb1288ebea1d7050ded6e2f598c93ceaea764947d",
    ),
    # run-all: evaluate and rank share one grid search's pick
    "run-all-grid-report": (
        "run-all", {"svm_c": "1,10", "svm_gamma": "0.01,0.1"}, "report.json",
        "ba52d6d0f6fef08950cde1320c06fcb3f6226b3e197b750b1d1c769b6bb1f371",
    ),
    "run-all-grid-rankings": (
        "run-all", {"svm_c": "1,10", "svm_gamma": "0.01,0.1"}, "rankings.csv",
        "bee501c2ef15f8b669ab7025f000fcf07202cf929ef98eb0bf12222fb794ca0d",
    ),
}


# command -> {artifact: sha256} for the other files a command writes, run
# on the same problem and config as GOLDEN's cases
ARTIFACTS = {
    "prepare": {
        "MSFS.csv": "406044387da553526da7b1117b52816b303113816c53aa73299f0b33a6f7f7e0",
        "MDSS.csv": "e2e6ab8ac43e03fe5e1a8e26b18bc4a19086fa9f65516c5e0891b30b4f1857c9",
        "balanced_pairs.csv": "145f3a56c2e5234e23573a52ba7e8bbba9b9f18b8631f89f7ef1594b2d51b9a0",
        "prepare.json": "2d478659a9015b9efd0a9d9cb33c5beb0799c2ee4862a86a3605861db43641ac",
    },
    "evaluate": {
        "roc_points.csv": "08d2ad56142353afb2df22019bcfbdf1538bd3c52b1ca25b799844d2b7a360b8",
        "pr_points.csv": "d81b06bc47904ed36643f3bb8ca173cbe45349c616caf75f0b4319824ebe809e",
    },
}

# case -> (command, extra config keys, {artifact: sha256}), run on the golden
# problem with undefined base pairs (``gap_dataset``); strict-folds meshes
# the gaps again in every fold
GAP = {
    "prepare": (
        "prepare", {}, {
            "MSFS.csv": "937504acc18e8521de25537c9aa4f4b239f021f3e123a4a5a44dae6e6e2e732e",
            "MDSS.csv": "53011b7cec254b00314a3dbcf35f54c9b12b9cb8e4d67861b68ebbd92ea03919",
        },
    ),
    "evaluate-strict-folds": (
        "evaluate", {"mode": "strict-folds"}, {
            "report.json": "cd9c7e6ba9ebc8cb2ba0ca9285cbcc1c9a204136fc31dc7c9258270cae8e5747",
        },
    ),
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


@pytest.fixture(scope="module")
def gap_dataset(golden_dataset, tmp_path_factory):
    """The golden problem where some base pairs are undefined: the feature
    table lacks one snoRNA, and the disease similarity file, which replaces
    the DAG, lacks one disease and masks one off-diagonal pair."""
    directory = tmp_path_factory.mktemp("gap-data")
    am, ft, _ = make_block_dataset(n_snornas=40, n_diseases=12, seed=7)
    features = str(directory / "features.csv")
    names = [f"f{i}" for i in range(ft.n_features)]
    kept = [i for i in range(len(ft.snorna_ids)) if i != 5]
    write_table(features, [ft.snorna_ids[i] for i in kept], names, ft.features[kept], fmt_float)
    ids = [d for j, d in enumerate(am.disease_ids) if j != 3]
    values = np.random.default_rng(7).random((len(ids), len(ids)))
    values = (values + values.T) / 2
    np.fill_diagonal(values, 1.0)
    mask = np.ones(values.shape, dtype=np.int8)
    mask[0, 1] = mask[1, 0] = 0
    disease_similarity = str(directory / "dss.csv")
    write_table(disease_similarity, ids, ids, values, fmt_float)
    write_table(str(directory / "dss.mask.csv"), ids, ids, mask)
    return dict(golden_dataset, features=features, disease_similarity=disease_similarity)


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


@pytest.mark.parametrize("case", sorted(GAP))
def test_gap_digests_pinned(case, gap_dataset, tmp_path):
    command, extra, digests = GAP[case]
    extra = dict(extra, dag_path="", disease_similarity_path=gap_dataset["disease_similarity"])
    out = _run(command, extra, gap_dataset, tmp_path)
    got = {name: _sha256(os.path.join(out, name)) for name in digests}
    assert got == digests, f"{case}: changed (sha256 {got})"


def test_dataset_files_pinned(golden_dataset):
    got = {key: _sha256(path) for key, path in golden_dataset.items()}
    assert got == DATASET_FILES
