"""Gradient-boosted regression trees with logistic loss over a pair space,
plus the leaf encoding used as the classifier's transformed feature space.

Pair (a, b) has the features ``[left[a] | right[b]]``: in the pipeline the
snoRNA's MSFS row and the disease's MDSS column. No pair feature row is ever
built; trees are fitted and pairs routed from the two entity tables and the
pair list, as ``sampling.kmeans`` clusters them. Each boosting round fits a
regression tree to the residuals y - sigmoid(F) by exact greedy split search
(squared-error criterion, thresholds at midpoints between consecutive
distinct values) and sets each leaf to one Newton step:
sum(residual) / (sum(p*(1-p)) + lambda). Encoding a pair yields the index
of its leaf in every tree: the positions of the ones in the one-hot-per-tree
encoding (He et al., ADKDD 2014), which is never built.

The split search is LightGBM's histogram search (Ke et al., NeurIPS 2017)
with entities as bins, which makes it exact: one feature takes one value per
entity of its side, so a ``bincount`` of the node's residuals and row counts
by entity, cumulated along the feature's entity order, gives the left sum
and count of every threshold. Each side of a node is one dense gain table,
columns by positions in the entity order, built by two gathers, two
cumulative sums and a few in-place passes, with -inf where no candidate
lies. A node that searches keeps, per column, only the entities present
among its rows, in value order: a presence mask restricts its parent's
orders and keeps each in order. A column bitwise equal to an earlier one of
its table is never searched, since it would only repeat that column's
gains. Among gains within a relative 1e-12 of the best, the lowest feature
(left side first), then the lowest threshold wins, so summation order cannot
decide a tie. Every internal node tests one column of one side, so the
pairs reaching a node are all pairs of a left set with a right set: routing
starts from the entities present among the pairs, a node splits the set of
the side it tests, and a leaf fills its rectangle of the grid of those
entities, from which each pair reads its cell. The training rows' leaves are
recorded as the tree grows, so boosting never routes its own pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .util import sigmoid


def _pair_space(left, right, pairs):
    """The tables as float arrays and the pairs' left and right entities."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    left = np.asarray(left, dtype=np.float64)
    return left, np.asarray(right, dtype=np.float64), pairs[:, 0], pairs[:, 1]


def _entity_grid(left, right, pairs):
    """The two tables restricted to the entities present among the pairs,
    in ascending entity order and transposed (a row per feature), and each
    pair's cell in the row-major grid of those two entity sets."""
    left, right, a, b = _pair_space(left, right, pairs)
    columns, positions = [], []
    for table, ent in zip((left, right), (a, b)):
        present = np.zeros(len(table), dtype=bool)
        present[ent] = True
        columns.append(np.ascontiguousarray(table[present].T))
        positions.append(np.cumsum(present)[ent] - 1)
    return columns, positions[0] * columns[1].shape[1] + positions[1]


@dataclass
class RegressionTree:
    """Flat-array binary tree; nodes in preorder, leaf ordinals contiguous.
    Feature j tests ``left[:, j]`` below the left table's width w, else
    ``right[:, j - w]``."""

    feature: np.ndarray  # int32, -1 at leaves
    threshold: np.ndarray  # float64, nan at leaves
    left: np.ndarray  # int32, -1 at leaves
    right: np.ndarray  # int32, -1 at leaves
    value: np.ndarray  # float64, leaf value (0 at internal nodes)
    leaf_ordinal: np.ndarray  # int32, -1 at internal nodes
    n_leaves: int

    def apply(self, left, right, pairs) -> np.ndarray:
        """Node index of the leaf each pair routes to."""
        columns, cells = _entity_grid(left, right, pairs)
        return self._rectangles(columns).take(cells)

    def _rectangles(self, columns) -> np.ndarray:
        """Node index of the leaf at every cell of the grid of the entities
        of ``columns``, left entities along the first axis. Every
        internal node tests one side, so the cells reaching a node are all
        pairs of a left set with a right set: a node splits the set of the
        side it tests, and a leaf fills its rectangle."""
        width = len(columns[0])
        grid = np.empty((columns[0].shape[1], columns[1].shape[1]), dtype=np.int32)
        stack = [(0, np.arange(len(grid)), np.arange(grid.shape[1]))]
        while stack:
            node, *kept = stack.pop()
            f = self.feature[node]
            if f < 0:
                grid[kept[0][:, None], kept[1]] = node
                continue
            side = int(f >= width)
            at = kept[side]
            go_left = columns[side][f - side * width].take(at) <= self.threshold[node]
            for child, part in ((self.left[node], go_left), (self.right[node], ~go_left)):
                kept[side] = at[part]
                if kept[side].size:
                    stack.append((child, *kept))
        return grid


@dataclass
class GbdtEnsemble:
    trees: list[RegressionTree]
    init_score: float
    learning_rate: float
    n_trees: int
    loss_history: list[float] = field(default_factory=list)

    @property
    def total_leaves(self) -> int:
        return sum(t.n_leaves for t in self.trees)

    @property
    def leaf_offsets(self) -> list[int]:
        return [sum(t.n_leaves for t in self.trees[:i]) for i in range(len(self.trees))]


def gbdt_init(labels) -> float:
    """Loss-minimizing constant for logistic loss: the log-odds of the mean label."""
    y = np.asarray(labels, dtype=np.float64)
    if y.size == 0 or y.min() == y.max():
        raise NumericError("degenerate training set: need both classes present")
    p = float(y.mean())
    return float(np.log(p / (1.0 - p)))


def _prepare(left, right, pairs):
    """The two tables, each row's entity on either side, and each side's
    search tables: the first of each set of bitwise-equal columns, and per
    such column the entities present among the pairs by ascending value
    (ties by entity index) and their values. Sorted once for every tree."""
    left, right, a, b = _pair_space(left, right, pairs)
    sides = []
    for table, ent in zip((left, right), (a, b)):
        first: dict[bytes, int] = {}
        for j, column in enumerate(table.T):
            first.setdefault(column.tobytes(), j)
        cols = np.fromiter(first.values(), dtype=np.int64, count=len(first))
        values = table.T[cols]
        order = np.argsort(values, axis=1, kind="stable")
        vals = np.take_along_axis(values, order, axis=1)
        sides.append((cols, *_keep_present(order, vals, ent, len(table))))
    return (left, right), (a, b), sides


def _keep_present(order, vals, ent: np.ndarray, n_entities: int):
    """One side's entity orders restricted to the entities in ``ent``.
    One flat take of the kept positions keeps each row's order; when no
    entity dropped out the orders are returned as they are."""
    present = np.bincount(ent, minlength=n_entities) > 0
    n_present = int(np.count_nonzero(present))
    if n_present == order.shape[1]:
        return order, vals
    keep = np.flatnonzero(present[order])
    shape = (len(order), n_present)
    return order.take(keep).reshape(shape), vals.take(keep).reshape(shape)


def _side_gains(order, vals, ent, r, total, min_samples_leaf):
    """The gain of every split on one side of a node, as an (n_columns,
    n_present) table: position q puts the first q + 1 entities of the
    column's order left. Only a position between distinct consecutive
    values that leaves ``min_samples_leaf`` rows on each side is a
    candidate; the others hold -inf. Every entity in ``order`` is present,
    so n_left >= 1 everywhere and n_left <= m - 1 before the last position,
    which puts every row left; nan there keeps it out of every comparison.
    The arithmetic runs in place, term by term in the order of
    s_left**2 / n_left + (total - s_left)**2 / (m - n_left)."""
    m = len(r)
    n_left = np.bincount(ent).astype(np.float64)[order]
    np.cumsum(n_left, axis=1, out=n_left)
    n_left[:, -1] = np.nan
    gain = np.bincount(ent, weights=r)[order]
    np.cumsum(gain, axis=1, out=gain)
    ok = n_left >= min_samples_leaf
    ok &= n_left <= m - min_samples_leaf
    # Raveled, the one pair that straddles two rows lands on a last column,
    # already False there because n_left is nan.
    f = vals.ravel()
    ok.ravel()[:-1] &= f[1:] > f[:-1]
    right = np.subtract(total, gain)
    np.square(right, out=right)
    np.square(gain, out=gain)
    gain /= n_left
    right /= np.subtract(m, n_left, out=n_left)
    gain += right
    np.putmask(gain, ~ok, -np.inf)
    return gain


def _best_split(sides, ents, r, min_samples_leaf):
    """The split maximizing the drop in squared error, as (side, column of
    that side, threshold), or None when there is no candidate. Zero-gain
    splits are allowed on impure nodes (callers screen constant residuals);
    they open up gains at the next depth, e.g. XOR patterns."""
    total = float(r.sum())
    tables = [
        _side_gains(order, vals, ent, r, total, min_samples_leaf)
        for (_, order, vals), ent in zip(sides, ents)
    ]
    tops = [t.max(initial=-np.inf) for t in tables]
    top = max(tops)
    if top == -np.inf:
        return None
    # The tables run side by side, each column-major and then in threshold
    # order: the first gain within a relative 1e-12 of the best has the
    # lowest column, then threshold, as ``first_max`` finds it on the
    # concatenated tables.
    floor = top - 1e-12 * top
    side = int(tops[0] < floor)
    table = tables[side]
    row, q = divmod(int(np.argmax(table.ravel() >= floor)), table.shape[1])
    cols, _, vals = sides[side]
    below, above = vals[row, q : q + 2]
    # Between adjacent floats the midpoint can round up to ``above``, which
    # would send every row left; the lower value then splits the same rows.
    mid = (below + above) / 2.0
    return side, int(cols[row]), float(mid if mid < above else below)


def fit_regression_tree(
    left, right, pairs, res, hessian,
    max_depth: int = 4, min_samples_leaf: int = 5, lam: float = 1e-6,
) -> RegressionTree:
    """Greedy depth-limited regression tree on residuals with Newton leaf
    values, over the pair space of ``left`` and ``right``."""
    tables, ents, sides = _prepare(left, right, pairs)
    res = np.asarray(res, dtype=np.float64)
    if len(res) == 0 or len(ents[0]) != len(res):
        raise ValueError("pairs and residuals must be nonempty and equal length")
    hessian = np.asarray(hessian, dtype=np.float64)
    return _grow_tree(
        tables, ents, sides, res, hessian, max_depth, min_samples_leaf, lam
    )[0]


def _grow_tree(
    tables, ents, sides, res, hessian, max_depth, min_samples_leaf, lam
) -> tuple[RegressionTree, np.ndarray]:
    """Grow one tree from ``_prepare``'s output; returns it and the leaf
    node of each training row. Each node carries its rows in ascending order
    (for the leaf sums); a node that searches for a split restricts its
    parent's entity orders to the entities present among its rows, since
    only their values bound candidate thresholds."""
    width = tables[0].shape[1]
    nodes = []  # [feature, threshold, left, right, value], in preorder
    leaf_of_row = np.empty(len(res), dtype=np.int32)

    def build(idx: np.ndarray, sides, depth: int) -> int:
        node = len(nodes)
        nodes.append([-1, np.nan, -1, -1, 0.0])
        r = res[idx]
        node_ents = [e[idx] for e in ents]
        split = None
        if depth < max_depth and idx.size >= 2 * min_samples_leaf and not np.all(r == r[0]):
            sides = [
                (cols, *_keep_present(order, vals, e, len(table)))
                for (cols, order, vals), e, table in zip(sides, node_ents, tables)
            ]
            split = _best_split(sides, node_ents, r, min_samples_leaf)
        if split is None:
            nodes[node][4] = float(r.sum() / (hessian[idx].sum() + lam))
            leaf_of_row[idx] = node
            return node
        side, f, t = split
        nodes[node][:2] = f + side * width, t
        go_left = tables[side][node_ents[side], f] <= t
        nodes[node][2] = build(idx[go_left], sides, depth + 1)
        nodes[node][3] = build(idx[~go_left], sides, depth + 1)
        return node

    build(np.arange(len(res)), sides, 0)
    feature, threshold, left, right, value = zip(*nodes)
    leaf = np.array(feature) < 0
    tree = RegressionTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value),
        leaf_ordinal=np.where(leaf, np.cumsum(leaf) - 1, -1).astype(np.int32),
        n_leaves=int(leaf.sum()),
    )
    return tree, leaf_of_row


def logistic_loss(labels, scores) -> float:
    y = np.asarray(labels, dtype=np.float64)
    f = np.asarray(scores, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, -f) + (1.0 - y) * f))


def gbdt_fit(
    left, right, pairs, y, n_trees: int = 10, learning_rate: float = 0.1,
    max_depth: int = 4, min_samples_leaf: int = 5, lam: float = 1e-6,
) -> tuple[GbdtEnsemble, np.ndarray]:
    """Boost ``n_trees`` regression trees on logistic residuals over the pair
    space of ``left`` and ``right``. Returns the ensemble and the training
    pairs' leaf indices, as ``gbdt_leaf_encode`` gives them, recorded as the
    trees grow.

    Fitting is deterministic, so it takes no seed.
    """
    tables, ents, sides = _prepare(left, right, pairs)  # one sort for every tree
    y = np.asarray(y, dtype=np.float64)
    if len(ents[0]) != len(y):
        raise ValueError("pairs and labels must have equal length")
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    init = gbdt_init(y)
    scores = np.full(len(y), init)
    ens = GbdtEnsemble([], init, learning_rate, n_trees)
    ens.loss_history.append(logistic_loss(y, scores))
    leaves, offset = [], 0
    for _ in range(n_trees):
        p = sigmoid(scores)
        tree, leaf_of_row = _grow_tree(
            tables, ents, sides, y - p, p * (1.0 - p), max_depth, min_samples_leaf, lam
        )
        ens.trees.append(tree)
        # Each training row's leaf is known from the growth: no re-routing.
        scores = scores + learning_rate * tree.value[leaf_of_row]
        ens.loss_history.append(logistic_loss(y, scores))
        leaves.append(offset + tree.leaf_ordinal[leaf_of_row])
        offset += tree.n_leaves
    return ens, np.column_stack(leaves)


def gbdt_leaf_encode(ens: GbdtEnsemble, left, right, pairs) -> np.ndarray:
    """The (n_pairs, n_trees) leaf index of each pair in every tree: its leaf
    ordinal offset by the leaves of the trees before, which is the column of
    its one in that tree's block of the one-hot encoding."""
    if not ens.trees:
        raise ValueError("ensemble has no fitted trees")
    columns, cells = _entity_grid(left, right, pairs)  # once for all trees
    grid = np.stack([
        offset + tree.leaf_ordinal[tree._rectangles(columns)]
        for offset, tree in zip(ens.leaf_offsets, ens.trees)
    ], axis=-1)
    return grid.reshape(-1, len(ens.trees))[cells]
