"""Similarity construction: functional, semantic, interaction-profile, meshed.

Four matrices feed the pair features: cosine similarity over snoRNA feature
rows, semantic similarity over the disease DAG, and Gaussian interaction
profile (GIP) kernels over association-matrix rows/columns. Every one is a
float array. A base (cosine, semantic, or loaded) similarity may have gaps:
it holds nan at every pair it does not define. The GIP kernel has none, and
neither do the fused similarities. Meshing averages each base similarity
with its GIP counterpart where the base is defined and falls back to GIP
alone at nan, or everywhere with no base.

Every output is bitwise symmetric: the semantic similarity by construction,
the other constructors by mirroring the upper triangle.
"""

from __future__ import annotations

import logging
import os

import numpy as np

from .corpus import DiseaseDag, FeatureTable, read_table
from .errors import DataError, NumericError

log = logging.getLogger(__name__)


def _mirror_upper(values: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower one for bitwise symmetry."""
    upper = np.triu(values)
    return upper + np.triu(values, 1).T


def snorna_functional_similarity(
    ft: FeatureTable, ids: list[str] | None = None
) -> np.ndarray:
    """Pairwise cosine similarity of snoRNA feature rows.

    ``ids`` fixes the output order (typically the association-matrix order);
    pairs touching a snoRNA that is absent from the table, or whose feature
    row has zero norm, are nan.
    """
    out_ids = list(ids) if ids is not None else list(ft.snorna_ids)
    n = len(out_ids)
    row_of = {s: i for i, s in enumerate(ft.snorna_ids)}
    norms = np.linalg.norm(ft.features, axis=1)

    # each output id's feature row, -1 for an id absent from the table
    rows = np.array([row_of.get(sid, -1) for sid in out_ids], dtype=np.int64)
    defined = rows >= 0
    defined[defined] = norms[rows[defined]] > 0.0
    rows = rows[defined]
    unit = np.zeros((n, ft.features.shape[1]), dtype=np.float64)
    unit[defined] = ft.features[rows] / norms[rows, None]

    values = _mirror_upper(np.clip(unit @ unit.T, -1.0, 1.0))
    np.fill_diagonal(values, 1.0)
    values[~np.outer(defined, defined)] = np.nan
    return values


def semantic_contribution(dag: DiseaseDag, d_x: str, delta: float = 0.5) -> dict[str, float]:
    """Per-ancestor contribution to ``d_x``, keyed by its ancestor closure:
    1 for itself, then ``delta`` times the largest contribution among an
    ancestor's children. Contributions are pushed up the one topological
    order ``dag.order``, so each node is final before it passes its own on."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if d_x not in dag:
        raise DataError(f"unknown disease id '{d_x}'")
    sc = {d_x: 1.0}
    for node in dag.order[dag.order.index(d_x):]:  # no ancestor comes before d_x
        if node in sc:
            for parent in dag.parents(node):
                sc[parent] = max(sc.get(parent, 0.0), delta * sc[node])
    return sc


def disease_semantic_similarity(
    dag: DiseaseDag, delta: float = 0.5, ids: list[str] | None = None
) -> np.ndarray:
    """Shared-ancestor contribution ratio between every disease pair.

    A pair's shared ancestors are the nodes in both ancestor closures (so a
    contribution that underflows to 0 still counts); each node adds its
    contributions to the pairs of the diseases in whose closure it is. At the
    default ``delta = 0.5`` every contribution is a power of two, so every
    sum is exact (while depth + log2(nodes) < 53): no summation order matters.
    Pairs with no common ancestor score 0 but are defined; pairs touching an
    id missing from the DAG are nan.
    """
    out_ids = list(ids) if ids is not None else list(dag.nodes)
    present = [d for d in out_ids if d in dag]
    row = {node: r for r, node in enumerate(dag.nodes)}
    contributions = np.zeros((len(dag.nodes), len(present)))
    member = np.zeros(contributions.shape, dtype=bool)
    for j, did in enumerate(present):
        sc = semantic_contribution(dag, did, delta)
        rows = [row[a] for a in sc]
        contributions[rows, j] = list(sc.values())
        member[rows, j] = True

    shared = np.zeros((len(present), len(present)))
    for c, m in zip(contributions, member):
        m = np.flatnonzero(m)
        shared[np.ix_(m, m)] += c[m, None] + c[m]
    totals = contributions.sum(axis=0)
    values = shared / (totals[:, None] + totals)
    np.fill_diagonal(values, 1.0)
    return reindex(present, values, out_ids)


def gip_bandwidth(profiles, gamma_prime: float = 1.0) -> float:
    """The GIP kernel's gamma: ``gamma_prime`` over the mean squared profile norm."""
    profiles = np.asarray(profiles, dtype=np.float64)
    if profiles.ndim != 2 or profiles.shape[0] == 0:
        raise ValueError("profiles must be a nonempty 2-D array")
    mean_sq = float(np.mean(np.sum(profiles**2, axis=1)))
    if mean_sq == 0.0:
        raise NumericError("degenerate interaction profiles: all profiles are zero")
    return gamma_prime / mean_sq


def gip_similarity(profiles, gamma: float) -> np.ndarray:
    """Gaussian kernel over interaction profiles: exp(-gamma * ||p_i - p_j||^2)."""
    profiles = np.asarray(profiles, dtype=np.float64)
    sq = np.sum(profiles**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (profiles @ profiles.T)
    np.maximum(d2, 0.0, out=d2)
    values = _mirror_upper(np.exp(-gamma * d2))
    np.fill_diagonal(values, 1.0)
    return values


def mesh_similarity(base: np.ndarray | None, gip: np.ndarray) -> np.ndarray:
    """Fuse a base similarity with its GIP counterpart, both in the same id
    order.

    Where the base pair is defined the result is the arithmetic mean of the
    two, where it is nan the GIP value alone; with no base (``None``) it is
    the GIP kernel itself. Negative base values (possible for cosine) are
    clamped to 0 first so the fused scale stays in [0, 1].
    """
    if base is None:
        return gip
    if base.shape != gip.shape:
        raise DataError("mesh: base and GIP matrices differ in shape")
    return np.where(np.isnan(base), gip, (np.maximum(base, 0.0) + gip) / 2.0)


def reindex(ids: list[str], values: np.ndarray, new_ids: list[str]) -> np.ndarray:
    """``values``, a similarity over ``ids``, permuted/extended to the order
    ``new_ids``; pairs touching an id absent from ``ids`` are nan."""
    pos = {s: i for i, s in enumerate(ids)}
    idx = np.array([pos.get(s, -1) for s in new_ids], dtype=np.int64)
    present = np.flatnonzero(idx >= 0)
    out = np.full((len(new_ids), len(new_ids)), np.nan)
    out[np.ix_(present, present)] = values[np.ix_(idx[present], idx[present])]
    return out


def _read_square(path: str, cells: str) -> tuple[list[str], np.ndarray]:
    """Ids and values of a labelled table with one row per column id, in
    the same order; ``cells`` is its cell format (``corpus.read_table``)."""
    row_ids, ids, values = read_table(path, cells)
    if row_ids != ids:
        raise DataError(f"{path}: row ids do not match column ids")
    return ids, values


def load_similarity_matrix(path: str) -> tuple[list[str], np.ndarray]:
    """Ids and values of an id-labelled similarity CSV. Its ``.mask.csv``
    sibling is optional (absent, every pair is defined) but must carry the
    same ids; the values are nan wherever the mask holds a 0."""
    ids, values = _read_square(path, "number")
    flags = None
    mask = mask_path(path)
    if os.path.exists(mask):
        mask_ids, flags = _read_square(mask, "0/1")
        if mask_ids != ids:
            raise DataError(f"{mask}: ids do not match those of {path}")
    if not np.array_equal(values, values.T):  # also fails on any nan cell
        raise DataError("similarity values are not symmetric")
    if flags is not None:
        if not np.array_equal(flags, flags.T):
            raise DataError("availability mask is not symmetric")
        values[flags == 0] = np.nan
    if np.isinf(values).any():
        raise DataError("similarity matrix holds non-finite available values")
    return ids, values


def mask_path(path: str) -> str:
    """The path of the mask sibling of the similarity CSV at ``path``."""
    root, ext = os.path.splitext(path)
    return f"{root}.mask{ext or '.csv'}"
