"""Synthetic association problems with planted block structure.

Diseases and snoRNAs are partitioned into blocks; within-block pairs
associate with high probability and cross-block pairs rarely, so diseases in
a block share snoRNA neighborhoods. snoRNA features and the disease DAG
mirror the same blocks, giving every similarity channel real signal. Used by
tests and handy for demos.
"""

from __future__ import annotations

import os

import numpy as np

from .corpus import (
    AssociationMatrix, DiseaseDag, FeatureTable, save_association_matrix, write_rows,
    write_table,
)
from .util import fmt_float


def make_block_dataset(
    n_snornas: int = 100,
    n_diseases: int = 30,
    n_blocks: int = 5,
    within: float = 0.35,
    across: float = 0.01,
    n_features: int = 24,
    feature_noise: float = 0.25,
    seed: int = 0,
) -> tuple[AssociationMatrix, FeatureTable, DiseaseDag]:
    rng = np.random.default_rng(seed)
    snorna_ids = [f"sno{i:03d}" for i in range(n_snornas)]
    disease_ids = [f"dis{j:03d}" for j in range(n_diseases)]
    s_block = np.arange(n_snornas) % n_blocks
    d_block = np.arange(n_diseases) % n_blocks

    prob = np.where(s_block[:, None] == d_block[None, :], within, across)
    entries = (rng.random((n_snornas, n_diseases)) < prob).astype(np.int8)
    if entries.sum() == 0:  # vanishingly unlikely; keep the matrix nondegenerate
        entries[0, 0] = 1
    am = AssociationMatrix(snorna_ids, disease_ids, entries)

    base = rng.random((n_blocks, n_features)) + 0.5
    features = base[s_block] + feature_noise * rng.random((n_snornas, n_features))
    ft = FeatureTable(snorna_ids, features)

    nodes = ["root"] + [f"block{b}" for b in range(n_blocks)] + disease_ids
    edges = [(f"block{b}", "root") for b in range(n_blocks)]
    edges += [(disease_ids[j], f"block{d_block[j]}") for j in range(n_diseases)]
    dag = DiseaseDag(nodes, edges)
    return am, ft, dag


def write_dataset_files(
    directory: str,
    am: AssociationMatrix,
    ft: FeatureTable | None = None,
    dag: DiseaseDag | None = None,
) -> dict[str, str]:
    """Dump a dataset in the CLI's expected file formats; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = {"association": os.path.join(directory, "association.csv")}
    save_association_matrix(am, paths["association"])
    if ft is not None:
        paths["features"] = os.path.join(directory, "features.csv")
        names = [f"f{i}" for i in range(ft.n_features)]
        write_table(paths["features"], ft.snorna_ids, names, ft.features, fmt_float)
    if dag is not None:
        paths["dag"] = os.path.join(directory, "dag.csv")
        write_rows(paths["dag"], dag.edges)
    return paths
