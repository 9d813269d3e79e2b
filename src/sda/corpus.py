"""Input corpus: association matrix, snoRNA feature table, disease DAG.

File formats (all UTF-8):
  * association matrix: CSV, header row = disease ids, first column =
    snoRNA ids, body cells "0"/"1"
  * feature table: CSV or TSV (picked by extension), header row of feature
    names, first column = snoRNA id, float cells
  * disease DAG: two-column CSV "child,parent", no header

Loaders are pure functions of file contents; loaded structures are treated
as immutable. Checks that only warn (``load_association_matrix``,
``check_feature_alignment`` and ``_warn`` itself) take ``strict``: with
``strict=True`` the warning becomes a DataError.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)


def _warn(message: str, strict: bool) -> None:
    if strict:
        raise DataError(message)
    log.warning(message)


def _check_unique(ids: list[str], axis: str, path: str) -> None:
    seen = set()
    for i in ids:
        if i in seen:
            raise DataError(f"{path}: duplicate {axis} id '{i}'")
        seen.add(i)


@dataclass
class AssociationMatrix:
    """Binary snoRNA x disease matrix of known associations."""

    snorna_ids: list[str]
    disease_ids: list[str]
    entries: np.ndarray  # (n_s, n_d), int8, 1 = known association

    @property
    def n_snornas(self) -> int:
        return len(self.snorna_ids)

    @property
    def n_diseases(self) -> int:
        return len(self.disease_ids)

    @property
    def n_known(self) -> int:
        return int(self.entries.sum())

    def validate(self, strict: bool = False) -> None:
        if self.entries.shape != (self.n_snornas, self.n_diseases):
            raise DataError(
                f"association matrix shape {self.entries.shape} does not match "
                f"{self.n_snornas} snoRNA ids x {self.n_diseases} disease ids"
            )
        _check_unique(self.snorna_ids, "snoRNA", "association matrix")
        _check_unique(self.disease_ids, "disease", "association matrix")
        bad = (self.entries != 0) & (self.entries != 1)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DataError(
                f"association matrix entry at row '{self.snorna_ids[i]}', "
                f"column '{self.disease_ids[j]}' is not 0/1"
            )
        if self.n_known == 0:
            _warn("association matrix has no positive entries", strict)


@dataclass
class FeatureTable:
    """Per-snoRNA real-valued feature rows."""

    snorna_ids: list[str]
    features: np.ndarray  # (n_s, n_f), float64

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass
class DiseaseDag:
    """Directed acyclic graph of disease terms; edges point child -> parent."""

    nodes: list[str]
    edges: list[tuple[str, str]]
    _parents: dict[str, list[str]] = field(default_factory=dict, repr=False)
    _children: dict[str, list[str]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._parents = {n: [] for n in self.nodes}
        self._children = {n: [] for n in self.nodes}
        for child, parent in self.edges:
            self._parents[child].append(parent)
            self._children[parent].append(child)

    def __contains__(self, node: str) -> bool:
        return node in self._parents

    def parents(self, node: str) -> list[str]:
        return self._parents[node]

    def children(self, node: str) -> list[str]:
        return self._children[node]

    def ancestors(self, node: str) -> set[str]:
        """All nodes reachable upward from ``node``, including itself."""
        if node not in self._parents:
            raise DataError(f"unknown disease id '{node}'")
        seen = {node}
        stack = [node]
        while stack:
            for p in self._parents[stack.pop()]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    def assert_acyclic(self) -> None:
        """Topological sort; on failure names one cycle."""
        indeg = {n: 0 for n in self.nodes}
        for child, _parent in self.edges:
            indeg[child] += 1  # orient child <- parent for Kahn over "children" edges
        queue = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            node = queue.pop()
            seen += 1
            for c in self._children[node]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if seen == len(self.nodes):
            return
        # Walk parent links from any unresolved node until one repeats.
        node = next(n for n, d in indeg.items() if d > 0)
        trail, pos = [], {}
        while node not in pos:
            pos[node] = len(trail)
            trail.append(node)
            node = next(p for p in self._parents[node] if indeg.get(p, 0) > 0)
        cycle = trail[pos[node]:] + [node]
        raise DataError("disease DAG contains a cycle: " + " -> ".join(cycle))


def _read_rows(path: str, delimiter: str) -> list[list[str]]:
    if not os.path.exists(path):
        raise DataError(f"file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh, delimiter=delimiter) if row]
    if not rows:
        raise DataError(f"{path}: empty file")
    return rows


def load_association_matrix(path: str, strict: bool = False) -> AssociationMatrix:
    """Load and validate a binary association matrix CSV."""
    rows = _read_rows(path, ",")
    disease_ids = [c.strip() for c in rows[0][1:]]
    snorna_ids: list[str] = []
    entries = np.zeros((len(rows) - 1, len(disease_ids)), dtype=np.int8)
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(disease_ids) + 1:
            raise DataError(
                f"{path}: row {r} has {len(row)} cells, expected {len(disease_ids) + 1}"
            )
        snorna_ids.append(row[0].strip())
        for c, cell in enumerate(row[1:]):
            v = cell.strip()
            if v not in ("0", "1"):
                raise DataError(
                    f"{path}: non-binary cell '{cell}' at row '{row[0].strip()}', "
                    f"column '{disease_ids[c]}'"
                )
            entries[r - 2, c] = int(v)
    _check_unique(snorna_ids, "snoRNA", path)
    _check_unique(disease_ids, "disease", path)
    am = AssociationMatrix(snorna_ids, disease_ids, entries)
    am.validate(strict=strict)
    log.info(
        "loaded association matrix %s: %d snoRNAs x %d diseases, %d positives",
        path, am.n_snornas, am.n_diseases, am.n_known,
    )
    return am


def save_association_matrix(am: AssociationMatrix, path: str) -> None:
    from .util import atomic_write_text

    lines = ["," + ",".join(am.disease_ids)]
    for i, sid in enumerate(am.snorna_ids):
        lines.append(sid + "," + ",".join(str(int(v)) for v in am.entries[i]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_feature_table(path: str) -> FeatureTable:
    """Load a snoRNA feature table; feature count is inferred from the header."""
    delimiter = "\t" if path.endswith(".tsv") else ","
    rows = _read_rows(path, delimiter)
    n_f = len(rows[0]) - 1
    snorna_ids: list[str] = []
    features = np.zeros((len(rows) - 1, n_f), dtype=np.float64)
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != n_f + 1:
            raise DataError(f"{path}: row {r} has {len(row)} cells, expected {n_f + 1}")
        snorna_ids.append(row[0].strip())
        for c, cell in enumerate(row[1:]):
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell '{cell}' at row '{row[0].strip()}', "
                    f"column {c + 1}"
                ) from None
            if not math.isfinite(v):
                raise DataError(
                    f"{path}: non-finite cell '{cell}' at row '{row[0].strip()}', "
                    f"column {c + 1}"
                )
            features[r - 2, c] = v
    _check_unique(snorna_ids, "snoRNA", path)
    log.info("loaded feature table %s: %d rows x %d features", path, len(snorna_ids), n_f)
    return FeatureTable(snorna_ids, features)


def check_feature_alignment(
    ft: FeatureTable, am: AssociationMatrix, strict: bool = False
) -> list[str]:
    """Report association-matrix snoRNAs missing from the feature table."""
    have = set(ft.snorna_ids)
    missing = [s for s in am.snorna_ids if s not in have]
    if missing:
        _warn(
            f"feature table is missing {len(missing)} snoRNA id(s) from the "
            f"association matrix: {', '.join(missing[:10])}"
            + ("..." if len(missing) > 10 else ""),
            strict,
        )
    return missing


def load_disease_dag(path: str) -> DiseaseDag:
    """Load a child,parent edge list into a validated DAG whose node set is
    the union of all edge endpoints, in order of first appearance."""
    rows = _read_rows(path, ",")
    edges: list[tuple[str, str]] = []
    for r, row in enumerate(rows, start=1):
        if len(row) != 2:
            raise DataError(f"{path}: row {r} has {len(row)} cells, expected 2")
        edges.append((row[0].strip(), row[1].strip()))
    nodes = list(dict.fromkeys(endpoint for edge in edges for endpoint in edge))
    dag = DiseaseDag(nodes, edges)
    dag.assert_acyclic()
    log.info("loaded disease DAG %s: %d nodes, %d edges", path, len(dag.nodes), len(edges))
    return dag


def split_known_unknown(
    am: AssociationMatrix,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Partition the full snoRNA x disease Cartesian product, row-major.

    Returns (positive pairs, negative pairs) as (snorna_index, disease_index)
    tuples; every cell appears in exactly one of the two lists.
    """
    pos_mask = am.entries == 1
    positives = [(int(i), int(j)) for i, j in np.argwhere(pos_mask)]
    negatives = [(int(i), int(j)) for i, j in np.argwhere(~pos_mask)]
    return positives, negatives
