"""Input corpus, and the CSV formats of every file the package reads or writes.

Every file is UTF-8 with comma-separated cells. Readers skip blank lines,
and every error about a row or a cell names the file and the row's physical
line as ``path:line:``. Writers join cells with commas and end every line
with a newline (``write_rows``). The formats:
  * labelled table (``read_table``, ``write_table``): a header row of
    column ids after one blank cell, then one row per id: the row id, then
    one cell per column. A repeated row or column id is a data error.
  * association matrix: labelled table, snoRNA rows x disease columns,
    cells "0"/"1"
  * feature table: labelled table, CSV or TSV (picked by extension),
    snoRNA rows x feature names, finite float cells
  * similarity matrix (``similarity``): square labelled table, the same ids
    in the same order on both axes, float cells; its optional sibling
    ``<name>.mask.csv`` has the same ids and "0"/"1" cells
  * disease DAG: two-cell rows "child,parent", no header
  * balanced pairs (``pipeline``): the header "snorna_id,disease_id,label",
    then one row per pair with a "0"/"1" label
  * curves and rankings (``pipeline``): a header of column names, then one
    row per point or prediction

Loaders are pure functions of file contents; loaded structures are treated
as immutable. Checks that only warn (``load_association_matrix``,
``check_feature_alignment`` and ``_warn`` itself) take ``strict``: with
``strict=True`` the warning becomes a DataError.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .util import atomic_write_text

log = logging.getLogger(__name__)


def _warn(message: str, strict: bool) -> None:
    if strict:
        raise DataError(message)
    log.warning(message)


def read_text(path: str) -> str:
    """The whole text of a UTF-8 file, line endings untranslated. A missing,
    unreadable or undecodable file is a DataError that names it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise DataError(f"file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from None


def read_rows(path: str, delimiter: str = ",") -> list[tuple[int, list[str]]]:
    """The non-empty rows of a delimited file, each with the physical line
    number it ends on."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""), delimiter=delimiter)
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise DataError(f"{path}:1: empty file")
    return rows


def write_rows(path: str, rows) -> None:
    """Write rows of string cells atomically, cells joined by commas and
    every line ending in a newline."""
    atomic_write_text(path, "".join(",".join(row) + "\n" for row in rows))


def _binary(cell: str) -> int:
    if cell.strip() not in ("0", "1"):
        raise ValueError("non-binary")
    return int(cell)


def _number(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValueError("non-numeric") from None


def _finite(cell: str) -> float:
    value = _number(cell)
    if not math.isfinite(value):
        raise ValueError("non-finite")
    return value


# cell format of a labelled table -> (cell parser, value dtype)
_CELLS = {"0/1": (_binary, np.int8), "number": (_number, np.float64),
          "finite": (_finite, np.float64)}


def _check_unique(located_ids, axis: str, path: str) -> None:
    """Raise on the first id of the (line, id) pairs that repeats."""
    seen = set()
    for line, i in located_ids:
        if i in seen:
            raise DataError(f"{path}:{line}: duplicate {axis} id '{i}'")
        seen.add(i)


def read_table(
    path: str, cells: str, axes: tuple[str, str] = ("row", "column"), delimiter: str = ","
) -> tuple[list[str], list[str], np.ndarray]:
    """Row ids, column ids and values of a labelled table whose cells are
    ``cells``: "0/1" (int8 values), "number" or "finite" (float64 values).
    ``axes`` names the row and column ids in errors."""
    parse, dtype = _CELLS[cells]
    (header_line, header), *body = read_rows(path, delimiter)
    col_ids = [c.strip() for c in header[1:]]
    _check_unique(((header_line, c) for c in col_ids), axes[1], path)
    row_ids: list[str] = []
    values = np.zeros((len(body), len(col_ids)), dtype=dtype)
    for r, (line, row) in enumerate(body):
        row_id = row[0].strip()
        if len(row) != len(col_ids) + 1:
            raise DataError(
                f"{path}:{line}: row '{row_id}' has {len(row)} cells, "
                f"expected {len(col_ids) + 1}"
            )
        parsed = []
        for col_id, cell in zip(col_ids, row[1:]):
            try:
                parsed.append(parse(cell))
            except ValueError as exc:
                raise DataError(
                    f"{path}:{line}: {exc} cell '{cell}' at row '{row_id}', "
                    f"column '{col_id}'"
                ) from None
        values[r] = parsed
        row_ids.append(row_id)
    _check_unique(zip((line for line, _ in body), row_ids), axes[0], path)
    return row_ids, col_ids, values


def write_table(path: str, row_ids, col_ids, values, fmt=str) -> None:
    """Write ``values`` as a labelled table, each cell formatted by ``fmt``."""
    write_rows(
        path,
        [["", *col_ids]]
        + [[row_id, *map(fmt, row.tolist())] for row_id, row in zip(row_ids, values)],
    )


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


def load_association_matrix(path: str, strict: bool = False) -> AssociationMatrix:
    """Load a binary association matrix CSV."""
    snorna_ids, disease_ids, entries = read_table(path, "0/1", axes=("snoRNA", "disease"))
    am = AssociationMatrix(snorna_ids, disease_ids, entries)
    if am.n_known == 0:
        _warn("association matrix has no positive entries", strict)
    log.info(
        "loaded association matrix %s: %d snoRNAs x %d diseases, %d positives",
        path, am.n_snornas, am.n_diseases, am.n_known,
    )
    return am


def save_association_matrix(am: AssociationMatrix, path: str) -> None:
    write_table(path, am.snorna_ids, am.disease_ids, am.entries)


def load_feature_table(path: str) -> FeatureTable:
    """Load a snoRNA feature table; feature count is inferred from the header."""
    delimiter = "\t" if path.endswith(".tsv") else ","
    snorna_ids, names, features = read_table(
        path, "finite", axes=("snoRNA", "feature"), delimiter=delimiter
    )
    log.info(
        "loaded feature table %s: %d rows x %d features", path, len(snorna_ids), len(names)
    )
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
    edges: list[tuple[str, str]] = []
    for line, row in read_rows(path):
        if len(row) != 2:
            raise DataError(f"{path}:{line}: row has {len(row)} cells, expected 2")
        edges.append((row[0].strip(), row[1].strip()))
    nodes = list(dict.fromkeys(endpoint for edge in edges for endpoint in edge))
    dag = DiseaseDag(nodes, edges)
    dag.assert_acyclic()
    log.info("loaded disease DAG %s: %d nodes, %d edges", path, len(dag.nodes), len(edges))
    return dag


def split_known_unknown(am: AssociationMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Partition the full snoRNA x disease Cartesian product, row-major.

    Returns (positive pairs, negative pairs) as (n, 2) int64 arrays of
    (snorna_index, disease_index) rows; every cell is in exactly one of them.
    """
    pos_mask = am.entries == 1
    return np.argwhere(pos_mask), np.argwhere(~pos_mask)
