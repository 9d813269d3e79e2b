import gc
import os

import numpy as np
import pytest

from sda.boost import RegressionTree
from sda.config import PipelineConfig
from sda.synth import make_block_dataset, write_dataset_files

# Generator settings shared by the pipeline-level tests: strong planted
# blocks so the signal is comfortably learnable at default capacity.
BLOCK_KW = dict(within=0.8, across=0.001, n_blocks=5, feature_noise=0.08, seed=21)


@pytest.fixture(autouse=True)
def _unfreeze_heap():
    """``cli.main`` freezes the heap; thaw it so that what a test leaves
    behind stays collectable."""
    yield
    gc.unfreeze()


@pytest.fixture(scope="session")
def synth_dataset(tmp_path_factory):
    """Block-structured synthetic dataset written to disk once per session."""
    directory = tmp_path_factory.mktemp("synth-data")
    am, ft, dag = make_block_dataset(**BLOCK_KW)
    paths = write_dataset_files(str(directory), am, ft, dag)
    return {"am": am, "ft": ft, "dag": dag, "paths": paths}


@pytest.fixture()
def synth_config(synth_dataset, tmp_path):
    """Fast config for the synthetic dataset: single SVM point, small k."""
    p = synth_dataset["paths"]
    return PipelineConfig(
        association_path=p["association"],
        feature_path=p["features"],
        dag_path=p["dag"],
        dataset_name="synth-blocks",
        output_dir=str(tmp_path / "out"),
        k=(10,),
        seed=7,
        svm_c=(10.0,),
        svm_gamma=(0.1,),
    )


def pair_space(points):
    """A plain point set as a pair space: point i is ``[points[i] | ]``."""
    points = np.asarray(points, dtype=np.float64)
    return points, np.zeros((1, 0)), [(i, 0) for i in range(len(points))]


def assemble(left, right, pairs):
    """Dense oracle: one feature row ``[left[a] | right[b]]`` per pair."""
    idx = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.hstack([left[idx[:, 0]], right[idx[:, 1]]])


def random_tree(rng, left, right, depth, split=0.8):
    """A random tree whose thresholds are exact values of the tested column,
    so pairs sitting on a threshold exercise the ``<=``. A node shallower
    than ``depth`` splits with probability ``split``."""
    width = left.shape[1]
    nodes = []

    def build(d):
        node = len(nodes)
        nodes.append([-1, np.nan, -1, -1, float(rng.normal())])
        if d < depth and rng.random() < split:
            f = int(rng.integers(width + right.shape[1]))
            column = left[:, f] if f < width else right[:, f - width]
            nodes[node][:2] = f, float(rng.choice(column))
            nodes[node][2] = build(d + 1)
            nodes[node][3] = build(d + 1)
        return node

    build(0)
    feature, threshold, lo, hi, value = (np.array(c) for c in zip(*nodes))
    leaf = feature < 0
    return RegressionTree(
        feature.astype(np.int32), threshold, lo.astype(np.int32), hi.astype(np.int32),
        value, np.where(leaf, np.cumsum(leaf) - 1, -1).astype(np.int32), int(leaf.sum()),
    )


def write_config_file(path, **keys):
    lines = [f"{k} = {v}" for k, v in keys.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return str(path)


def dataset_dir(name: str):
    """Locate a distributed dataset (association.csv etc.) if present.

    Checked locations: $SDA_DATA_DIR/<name>/ and ./data/<name>/.
    Returns None when the files are not available in this environment.
    """
    roots = []
    if os.environ.get("SDA_DATA_DIR"):
        roots.append(os.environ["SDA_DATA_DIR"])
    roots.append(os.path.join(os.path.dirname(__file__), "..", "data"))
    for root in roots:
        candidate = os.path.join(root, name)
        if os.path.exists(os.path.join(candidate, "association.csv")):
            return candidate
    return None


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
