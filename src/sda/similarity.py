"""Similarity construction: functional, semantic, interaction-profile, meshed.

Four matrices feed the pair features: cosine similarity over snoRNA feature
rows, semantic similarity over the disease DAG, and Gaussian interaction
profile (GIP) kernels over association-matrix rows/columns. Meshing averages
each base similarity with its GIP counterpart where the base is defined and
falls back to GIP alone elsewhere, so the fused matrices are fully available.

Every constructor evaluates the upper triangle and mirrors it, so outputs are
bitwise symmetric.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

from .corpus import DiseaseDag, FeatureTable, read_table, write_table
from .errors import DataError, NumericError
from .util import fmt_float

log = logging.getLogger(__name__)


@dataclass
class SimilarityMatrix:
    """Square, symmetric similarity over one entity set, with availability mask."""

    ids: list[str]
    values: np.ndarray  # (n, n) float64
    available: np.ndarray  # (n, n) bool

    @property
    def n(self) -> int:
        return len(self.ids)

    def validate(self) -> None:
        n = self.n
        if self.values.shape != (n, n) or self.available.shape != (n, n):
            raise DataError("similarity matrix shape does not match id count")
        if not np.array_equal(self.values, self.values.T):
            raise DataError("similarity values are not symmetric")
        if not np.array_equal(self.available, self.available.T):
            raise DataError("availability mask is not symmetric")
        vals = self.values[self.available]
        if vals.size and not np.isfinite(vals).all():
            raise DataError("similarity matrix holds non-finite available values")


@dataclass
class GipBandwidth:
    """Kernel bandwidth: gamma = gamma_prime / mean squared profile norm."""

    gamma: float
    gamma_prime: float = 1.0


def _mirror_upper(values: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower one for bitwise symmetry."""
    upper = np.triu(values)
    return upper + np.triu(values, 1).T


def snorna_functional_similarity(
    ft: FeatureTable, ids: list[str] | None = None
) -> SimilarityMatrix:
    """Pairwise cosine similarity of snoRNA feature rows.

    ``ids`` fixes the output order (typically the association-matrix order);
    pairs touching a snoRNA that is absent from the table, or whose feature
    row has zero norm, are marked unavailable.
    """
    out_ids = list(ids) if ids is not None else list(ft.snorna_ids)
    n = len(out_ids)
    row_of = {s: i for i, s in enumerate(ft.snorna_ids)}
    norms = np.linalg.norm(ft.features, axis=1)

    defined = np.zeros(n, dtype=bool)
    unit = np.zeros((n, ft.features.shape[1]), dtype=np.float64)
    for i, sid in enumerate(out_ids):
        r = row_of.get(sid)
        if r is not None and norms[r] > 0.0:
            defined[i] = True
            unit[i] = ft.features[r] / norms[r]

    values = np.clip(unit @ unit.T, -1.0, 1.0)
    values = _mirror_upper(values)
    available = np.outer(defined, defined)
    values[~available] = 0.0
    values[np.diag_indices(n)] = np.where(defined, 1.0, 0.0)
    return SimilarityMatrix(out_ids, values, available)


def semantic_contribution(dag: DiseaseDag, d_x: str, delta: float = 0.5) -> dict[str, float]:
    """Per-ancestor contribution to ``d_x``: 1 for itself, then decayed by
    ``delta`` per step via the max over children inside the ancestor closure.

    Evaluated bottom-up in topological order (a node is ready once all its
    in-closure children are), so arbitrarily deep chains are fine.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    closure = dag.ancestors(d_x)  # raises DataError on unknown id
    children_in = {a: [c for c in dag.children(a) if c in closure] for a in closure}
    remaining = {a: len(children_in[a]) for a in closure}
    sc: dict[str, float] = {}
    stack = [d_x]  # the only closure node with no in-closure children
    while stack:
        node = stack.pop()
        sc[node] = 1.0 if node == d_x else delta * max(sc[c] for c in children_in[node])
        for parent in dag.parents(node):
            remaining[parent] -= 1
            if remaining[parent] == 0:
                stack.append(parent)
    return sc


def disease_semantic_similarity(
    dag: DiseaseDag, delta: float = 0.5, ids: list[str] | None = None
) -> SimilarityMatrix:
    """Shared-ancestor contribution ratio between every disease pair.

    Pairs with no common ancestor score 0 but stay available; ids missing
    from the DAG are marked unavailable.
    """
    out_ids = list(ids) if ids is not None else list(dag.nodes)
    n = len(out_ids)
    contributions: list[dict[str, float] | None] = []
    totals = np.zeros(n)
    for i, did in enumerate(out_ids):
        if did in dag:
            sc = semantic_contribution(dag, did, delta)
            contributions.append(sc)
            totals[i] = sum(sc.values())
        else:
            contributions.append(None)

    values = np.zeros((n, n), dtype=np.float64)
    available = np.zeros((n, n), dtype=bool)
    for i in range(n):
        sc_i = contributions[i]
        if sc_i is None:
            continue
        values[i, i] = 1.0
        available[i, i] = True
        for j in range(i + 1, n):
            sc_j = contributions[j]
            if sc_j is None:
                continue
            shared = sc_i.keys() & sc_j.keys()
            num = sum(sc_i[a] + sc_j[a] for a in sorted(shared))
            values[i, j] = num / (totals[i] + totals[j])
            available[i, j] = True
    values = _mirror_upper(values)
    available = available | available.T
    return SimilarityMatrix(out_ids, values, available)


def gip_bandwidth(profiles, gamma_prime: float = 1.0) -> GipBandwidth:
    """Bandwidth normalized by the mean squared profile norm."""
    profiles = np.asarray(profiles, dtype=np.float64)
    if profiles.ndim != 2 or profiles.shape[0] == 0:
        raise ValueError("profiles must be a nonempty 2-D array")
    mean_sq = float(np.mean(np.sum(profiles**2, axis=1)))
    if mean_sq == 0.0:
        raise NumericError("degenerate interaction profiles: all profiles are zero")
    return GipBandwidth(gamma=gamma_prime / mean_sq, gamma_prime=gamma_prime)


def gip_similarity(profiles, bw: GipBandwidth, ids: list[str]) -> SimilarityMatrix:
    """Gaussian kernel over interaction profiles: exp(-gamma * ||p_i - p_j||^2)."""
    profiles = np.asarray(profiles, dtype=np.float64)
    if profiles.shape[0] != len(ids):
        raise ValueError("one profile per id required")
    sq = np.sum(profiles**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (profiles @ profiles.T)
    np.maximum(d2, 0.0, out=d2)
    values = _mirror_upper(np.exp(-bw.gamma * d2))
    np.fill_diagonal(values, 1.0)
    available = np.ones((len(ids), len(ids)), dtype=bool)
    return SimilarityMatrix(list(ids), values, available)


def mesh_similarity(base: SimilarityMatrix, gip: SimilarityMatrix) -> SimilarityMatrix:
    """Fuse a base similarity with its GIP counterpart.

    Where the base pair is available the result is the arithmetic mean of the
    two, otherwise the GIP value alone; the output is fully available.
    Negative base values (possible for cosine) are clamped to 0 first so the
    fused scale stays in [0, 1].
    """
    if base.ids != gip.ids:
        raise DataError("mesh: id order mismatch between base and GIP matrices")
    if not gip.available.all():
        raise DataError("mesh: GIP matrix must be fully available")
    clamped = np.maximum(base.values, 0.0)
    values = np.where(base.available, (clamped + gip.values) / 2.0, gip.values)
    return SimilarityMatrix(
        list(base.ids), values, np.ones_like(gip.available)
    )


def reindex(sm: SimilarityMatrix, ids: list[str]) -> SimilarityMatrix:
    """Permute/extend a similarity matrix to a new id order.

    Pairs touching ids absent from ``sm`` become unavailable.
    """
    pos = {s: i for i, s in enumerate(sm.ids)}
    n = len(ids)
    values = np.zeros((n, n), dtype=np.float64)
    available = np.zeros((n, n), dtype=bool)
    idx = [pos.get(s, -1) for s in ids]
    present = [i for i, p in enumerate(idx) if p >= 0]
    if present:
        rows = np.array([idx[i] for i in present])
        sub = np.ix_(present, present)
        values[sub] = sm.values[np.ix_(rows, rows)]
        available[sub] = sm.available[np.ix_(rows, rows)]
    return SimilarityMatrix(list(ids), values, available)


def save_similarity_matrix(sm: SimilarityMatrix, path: str) -> None:
    """Write values as an id-labelled CSV plus a sibling ``.mask.csv`` file."""
    write_table(path, sm.ids, sm.ids, sm.values, fmt_float)
    write_table(_mask_path(path), sm.ids, sm.ids, sm.available.astype(np.int8))


def _read_square(path: str, cells: str) -> tuple[list[str], np.ndarray]:
    """Ids and values of a labelled table with one row per column id, in
    the same order; ``cells`` is its cell format (``corpus.read_table``)."""
    row_ids, ids, values = read_table(path, cells)
    if row_ids != ids:
        raise DataError(f"{path}: row ids do not match column ids")
    return ids, values


def load_similarity_matrix(path: str) -> SimilarityMatrix:
    """Load an id-labelled similarity CSV; the ``.mask.csv`` sibling is optional
    (absent mask means fully available) but must carry the same ids."""
    ids, values = _read_square(path, "number")
    mask_path = _mask_path(path)
    if os.path.exists(mask_path):
        mask_ids, flags = _read_square(mask_path, "0/1")
        if mask_ids != ids:
            raise DataError(f"{mask_path}: ids do not match those of {path}")
        available = flags == 1
    else:
        available = np.ones(values.shape, dtype=bool)
    sm = SimilarityMatrix(ids, values, available)
    sm.validate()
    return sm


def _mask_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.mask{ext or '.csv'}"
