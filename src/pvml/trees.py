"""CART decision trees: Gini for classification, variance for regression.

Growth is greedy, and its order is depth-first (left child first).  All
randomness — per-node feature subsampling and, for the
extremely-randomized variant, threshold draws — comes from a single
sequential stream in growth order, so a (data, config, seed) triple pins
the tree structure exactly.  Trees grown together in lockstep, as a
forest's members are, offer their next nodes to one split search per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    CATEGORICAL,
    CategoricalOutput,
    Columns,
    Dataset,
    Model,
    Output,
    RealOutput,
    ScoreTable,
    Trainer,
    _fold,
    argmax_label,
    model_provenance,
)
from .errors import EmptyNode, TaskMismatch
from .rng import Xoshiro256StarStar

EXHAUSTIVE = "exhaustive"
RANDOM_THRESHOLD = "random-threshold"

CART_TRAINER_CLASS = "pvml.CartTrainer"
TREE_MODEL_CLASS = "pvml.TreeModel"

LOCKSTEP_CELLS = 1 << 20  # 8 MiB of float64: the most cells of ``x`` that trees grown in lockstep share


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int
    min_examples_per_leaf: int = 1
    min_impurity_decrease: float = 0.0
    feature_subsampling_fraction: float = 1.0
    split_kind: str = EXHAUSTIVE
    seed: int = 0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_examples_per_leaf < 1:
            raise ValueError("min_examples_per_leaf must be >= 1")
        if self.min_impurity_decrease < 0:
            raise ValueError("min_impurity_decrease must be >= 0")
        if not 0 < self.feature_subsampling_fraction <= 1:
            raise ValueError("feature_subsampling_fraction must be in (0, 1]")
        if self.split_kind not in (EXHAUSTIVE, RANDOM_THRESHOLD):
            raise ValueError(f"unknown split kind {self.split_kind!r}")


LEAF = (-1, 0.0, -1, -1)  # the node-table row of every leaf


# ---------------------------------------------------------------------------
# Impurity
# ---------------------------------------------------------------------------

def gini_impurity(class_weights: Mapping[str, float]) -> float:
    """1 - sum of squared class proportions, proportions by weight."""
    total = _fold(class_weights[label] for label in sorted(class_weights))
    if total <= 0:
        raise EmptyNode("impurity of a node with no weight")
    acc = 0.0
    for label in sorted(class_weights):
        p = class_weights[label] / total
        acc += p * p
    return 1.0 - acc


def weighted_variance(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted population variance of regression targets."""
    total = _fold(weights)
    if total <= 0:
        raise EmptyNode("impurity of a node with no weight")
    mean = _fold(v * w for v, w in zip(values, weights)) / total
    return _fold(w * ((v - mean) * (v - mean)) for v, w in zip(values, weights)) / total


@dataclass(frozen=True)
class _Row:
    """One training example flattened for tree growth."""

    values: dict[int, float]  # feature id -> value; absent means 0.0
    target: object  # label string or float
    weight: float


class _Sample:
    """The training rows of one or more trees as arrays, read and never
    changed by growth.  Tree ``t`` owns the rows from ``starts[t]`` up to
    ``starts[t + 1]``, whose feature ids are its own and below
    ``num_features[t]``; every tree shares ``labels``.

    ``x`` holds the values as a dense (features, rows) matrix; absent
    features read 0.0.  A node names its rows by their positions here.
    Row ``pad``, past the last, is the padding of the split search: +inf in
    ``x``, and zero in ``w``, the weights, and ``y``, the targets, which for
    classification are each row's weight under each label.
    """

    def __init__(self, trees: Sequence[tuple[Columns, int]], labels: Sequence[str] | None):
        sizes = [len(columns.weights) for columns, _ in trees]
        self.starts = np.concatenate(([0], np.cumsum(sizes)))
        self.num_features = [num_features for _, num_features in trees]
        self.cells = max(f * n for f, n in zip(self.num_features, sizes))  # the largest ``x`` of one tree
        self.pad = n = int(self.starts[-1])
        self.columns = columns = _stacked([columns for columns, _ in trees])
        self.labels = labels  # label of each target index; None for regression
        self.x = np.zeros((max(self.num_features), n + 1))
        self.x[columns.feature_ids, np.repeat(np.arange(n), np.diff(columns.indptr))] = columns.values
        self.x[:, n] = np.inf
        self.w = np.append(columns.weights, 0.0)
        self.y = np.append(columns.targets, 0.0 if labels is None else -1)
        if labels is not None:  # each row's weight under its label, zero under the others
            self.y = np.where(self.y == np.arange(len(labels))[:, None], self.w, 0.0)


def _stacked(parts: Sequence[Columns]) -> Columns:
    """The rows of ``parts`` one after another, as one :class:`Columns`."""
    if len(parts) == 1:
        return parts[0]
    offsets = np.cumsum([0] + [len(part.values) for part in parts[:-1]])
    indptr = np.concatenate([[0]] + [part.indptr[1:] + offset for part, offset in zip(parts, offsets)])
    fields = ("feature_ids", "values", "targets", "weights")
    return Columns(indptr, *(np.concatenate([getattr(part, field) for part in parts]) for field in fields))


class _Node:
    """The rows of one tree node, as the split search reads them: ``rows``
    holds their positions in the sample, ascending.

    It has a ``len()``, and iterating it yields the rows as :class:`_Row`s,
    in sample order, built on demand.
    """

    def __init__(self, sample: _Sample, rows: np.ndarray):
        self.sample, self.rows = sample, rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        columns, labels = self.sample.columns, self.sample.labels
        for i in self.rows.tolist():
            a, b = columns.indptr[i], columns.indptr[i + 1]
            values = dict(zip(columns.feature_ids[a:b].tolist(), columns.values[a:b].tolist()))
            target = columns.targets[i].item()
            yield _Row(values, target if labels is None else labels[target], columns.weights[i].item())

    def targets_and_weights(self) -> tuple[list, list[float]]:
        """The node's targets (label indices or values) and weights, in sample order."""
        columns = self.sample.columns
        return columns.targets.take(self.rows).tolist(), columns.weights.take(self.rows).tolist()

    @cached_property
    def impurity(self) -> float:
        """The two-pass impurity of the node's rows."""
        rows, w, y = _tables([self])
        with np.errstate(over="ignore", invalid="ignore"):
            return _two_pass(w, y, rows < self.sample.pad)[1].item()


def _node_of_rows(rows: Sequence[_Row], candidate_features: Sequence[int], task: str) -> _Node:
    """Compile a list of rows into the single node of a sample of their own."""
    lengths = [len(r.values) for r in rows]
    ids = np.fromiter(chain.from_iterable(r.values for r in rows), np.int32, sum(lengths))
    values = np.fromiter(chain.from_iterable(r.values.values() for r in rows), np.float64, sum(lengths))
    if task == CATEGORICAL:
        labels = tuple(sorted({r.target for r in rows}))
        position = {label: i for i, label in enumerate(labels)}
        targets = np.array([position[r.target] for r in rows], dtype=np.intp)
    else:
        labels = None
        targets = np.array([r.target for r in rows], dtype=np.float64)
    indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    columns = Columns(indptr, ids, values, targets, np.array([r.weight for r in rows], dtype=np.float64))
    num_features = 1 + max(max(candidate_features, default=-1), int(ids.max(initial=-1)))
    return _Node(_Sample([(columns, num_features)], labels), np.arange(len(rows)))


# ---------------------------------------------------------------------------
# Split search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Split:
    feature_id: int
    threshold: float
    impurity_decrease: float


def best_split(
    rows: Sequence[_Row],
    candidate_features: Sequence[int],
    cfg: TreeConfig,
    task: str,
    rng: Xoshiro256StarStar | None = None,
) -> Split | None:
    """Best (feature, threshold) by weighted impurity decrease, or None.

    Exhaustive mode tries midpoints between consecutive distinct observed
    values per candidate feature; random-threshold mode draws one uniform
    threshold per candidate from [min, max).  Candidates whose children
    would fall under the leaf minimum are skipped.  Ties break toward the
    smaller feature id, then the smaller threshold.  A pure node never
    splits and draws nothing.

    ``rows`` is a list of :class:`_Row`, or the node view that tree growth
    uses: an object with a ``len()`` whose iteration yields the node's
    ``_Row``s in sample order.  A list is compiled on entry into a view of
    its own, so both take the same path: :func:`best_splits` of the one node.
    """
    if cfg.split_kind == RANDOM_THRESHOLD and rng is None:
        raise ValueError("random-threshold splits need a random stream")
    node = rows if isinstance(rows, _Node) else _node_of_rows(rows, candidate_features, task)
    search = _search_of(node, list(candidate_features), cfg, rng)
    return None if search is None else best_splits([search], cfg)[0]


def _search_of(node: _Node, candidates: list[int], cfg: TreeConfig, rng) -> tuple | None:
    """The ``(node, candidates, draws)`` that :func:`best_splits` searches.
    In random-threshold mode a threshold is drawn for each candidate in
    order, unless the node is pure: then it draws nothing and the search is
    None.  Exhaustive mode leaves the purity test to the search."""
    if cfg.split_kind == EXHAUSTIVE:
        return node, candidates, None
    if node.impurity == 0.0:
        return None
    return node, candidates, np.array([rng.next_float() for _ in candidates], dtype=np.float64)


def best_splits(searches: Sequence[tuple], cfg: TreeConfig) -> list[Split | None]:
    """The split :func:`best_split` finds for each of many nodes, bit for bit.

    ``searches`` lists ``(node, candidates, draws)``: a :class:`_Node`, its
    candidate feature ids and, in random-threshold mode, one uniform draw
    per candidate (else None).  The nodes may belong to different trees.
    They are searched in passes over the nodes of one sample, the largest
    first, each pass holding as many nodes as keep its padded blocks of
    (candidate, row) and of (label, node, row) cells within the largest
    ``x`` of one of the sample's trees; a node always fits a pass alone.
    Every other table of a pass is one such block or smaller.

    A pass is a sorted sweep over every candidate column of its nodes at
    once.  It gathers the columns into one block, each padded after its
    node's rows to the largest node, and sorts each one stably, so ties
    keep sample order and the padding sorts last.  Running sums over the
    sorted rows give the child impurity of every threshold; the padding
    adds only exact zeros, after a node's rows from the front and ahead of
    them from the back, so a node's sums have the bits they have when it
    is searched alone.  Those sums add in another order than the two-pass
    impurity formulas, so they may differ in the last bits and serve only
    to shortlist each node's thresholds within a rounding margin of its
    best.  Each shortlisted threshold is rescored by the two-pass formulas
    over the node's rows in their original order (:func:`_two_pass`), so
    the returned split, to the last bit of ``impurity_decrease``, is the
    one a rescan of every threshold with those formulas would pick.
    """
    splits: list[Split | None] = [None] * len(searches)
    by_sample: dict[int, list[int]] = {}
    for i, (node, _, _) in enumerate(searches):
        by_sample.setdefault(id(node.sample), []).append(i)
    for live in by_sample.values():
        live.sort(key=lambda i: -len(searches[i][0]))
        sample, start = searches[live[0]][0].sample, 0
        labels = 1 if sample.labels is None else len(sample.labels)
        # a node adds a row per candidate to the block, and one per label to its impurity tables
        rows_of = [max(len(searches[i][1]), labels) for i in live]
        while start < len(live):
            width, end, cells = len(searches[live[start]][0]), start + 1, rows_of[start]
            while end < len(live) and (cells + rows_of[end]) * width <= sample.cells:
                cells += rows_of[end]
                end += 1
            batch = live[start:end]
            for i, split in zip(batch, _search_pass([searches[i] for i in batch], cfg)):
                splits[i] = split
            start = end
    return splits


def _search_pass(searches: Sequence[tuple], cfg: TreeConfig) -> list[Split | None]:
    """One pass of :func:`best_splits`, over nodes of one sample."""
    nodes = [node for node, _, _ in searches]
    sample, sizes = nodes[0].sample, np.array([len(node) for node in nodes])
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats overflow to inf and nan, quietly
        rows, w, y = _tables(nodes)
        real = rows < sample.pad if sizes.min() < rows.shape[1] else None  # the cells that hold a row; None: all
        totals, parents = _two_pass(w, y, real)
        searched = [c if parent != 0.0 else [] for (_, c, _), parent in zip(searches, parents.tolist())]
        fids = np.fromiter(chain.from_iterable(searched), np.intp)
        if not len(fids):
            return [None] * len(nodes)
        owner = np.repeat(np.arange(len(nodes)), [len(c) for c in searched])  # each column's node
        # each candidate column of its node; the padding reads +inf, so it sorts last
        block = sample.x.ravel().take(fids[:, None] * sample.x.shape[1] + rows.take(owner, axis=0))
        order = np.argsort(block, axis=1, kind="stable")  # positions in the node, each column sorted
        width, n = block.shape[1], sizes.take(owner)
        xs = block.ravel().take(order + width * np.arange(len(order))[:, None])  # each column sorted
        top = xs[:, -1] if real is None else xs.ravel().take(np.arange(len(xs)) * width + n - 1)  # its largest value
        varying = np.flatnonzero(xs[:, 0] < top)  # a constant column cannot split
        fids, owner, n, top = fids.take(varying), owner.take(varying), n.take(varying), top.take(varying)
        block, order, xs = block.take(varying, axis=0), order.take(varying, axis=0), xs.take(varying, axis=0)
        held = None if real is None else real.take(owner, axis=0)  # the cells of each column that hold a row
        if cfg.split_kind == EXHAUSTIVE:
            steps = xs[:, :-1] < xs[:, 1:]
            if held is not None:
                steps &= held[:, 1:]
            col, pos = steps.nonzero()
            at = col * width + pos
            lo, hi = xs.ravel().take(at), xs.ravel().take(at + 1)
            thresholds = (lo + hi) / 2.0
            counts = pos + 1
            # the midpoint of adjacent doubles can round onto hi, or overflow
            for k in np.flatnonzero(~((lo <= thresholds) & (thresholds < hi))):
                counts[k] = np.searchsorted(xs[col[k], : n[col[k]]], thresholds[k], side="right")
        else:
            col = np.arange(len(varying))
            draws = np.concatenate([draws for (_, _, draws), c in zip(searches, searched) if c]).take(varying)
            thresholds = xs[:, 0] + draws * (top - xs[:, 0])
            below = xs <= thresholds[:, None]
            if held is not None:
                below &= held
            counts = below.sum(axis=1)
        m = cfg.min_examples_per_leaf
        ok = np.flatnonzero((counts >= m) & (n.take(col) - counts >= m))
        if not len(ok):
            return [None] * len(nodes)
        col, thresholds, counts = col.take(ok), thresholds.take(ok), counts.take(ok)
        of = owner.take(col)  # each candidate's node
        approx = _swept_child_impurity(w, y, real, sizes, owner, order, col, counts)
        approx /= totals.take(of)

        # Gini is at most 1 and its formula rounds in absolute terms;
        # variance rounds relative to the parent's.  A node with a
        # non-finite estimate rescores every candidate.
        lowest = np.full(len(nodes), np.inf)
        np.minimum.at(lowest, of, approx)
        cut = lowest.take(of)
        cut += 1e-9 if y.ndim == 3 else 1e-9 * parents.take(of)
        shortlist = approx <= cut
        if not np.isfinite(approx).all():
            shortlist |= np.isin(of, of[~np.isfinite(approx)])
        shortlist = np.flatnonzero(shortlist)

        best: list[Split | None] = [None] * len(nodes)
        labels = len(y) if y.ndim == 3 else 1
        step = max(1, sample.cells // (2 * labels * width))  # thresholds rescored at once: both sides, each label
        for first in range(0, len(shortlist), step):
            k = shortlist[first : first + step]
            node_of, column, threshold = of.take(k), col.take(k), thresholds.take(k)
            left = block.take(column, axis=0) <= threshold[:, None]
            if held is None:
                right = ~left
            else:
                inside = held.take(column, axis=0)
                left &= inside
                right = inside & ~left
            both, sides = np.concatenate((node_of, node_of)), np.concatenate((left, right))
            side_totals, impurities = _two_pass(w.take(both, axis=0), y.take(both, axis=-2), sides)
            child = (side_totals * impurities).reshape(2, -1)
            decreases = parents.take(node_of) - ((0.0 + child[0]) + child[1]) / totals.take(node_of)
            for j, fid, t, decrease in zip(*(a.tolist() for a in (node_of, fids.take(column), threshold, decreases))):
                split = best[j]
                if (
                    split is None
                    or decrease > split.impurity_decrease
                    or (decrease == split.impurity_decrease and (fid, t) < (split.feature_id, split.threshold))
                ):
                    best[j] = Split(fid, t, decrease)
    return [None if split is None or split.impurity_decrease < cfg.min_impurity_decrease else split for split in best]


def _tables(nodes: Sequence[_Node]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of nodes of one sample, and their weights and targets, in
    sample order, as tables of (node, position) padded to the largest node
    with the sample's padding row.  A regression target is its value; a
    classification target is the row's weight under each label, so that
    table is of (label, node, position)."""
    sample, sizes = nodes[0].sample, np.array([len(node) for node in nodes])
    if len(nodes) == 1 and sizes[0]:
        rows = nodes[0].rows[None, :]
    else:
        rows = np.full((len(nodes), max(1, sizes.max())), sample.pad)  # an empty node still has a cell, of no weight
        rows[np.arange(rows.shape[1]) < sizes[:, None]] = np.concatenate([node.rows for node in nodes])
    return rows, sample.w.take(rows), sample.y.take(rows, axis=-1)


def _fold_rows(a: np.ndarray) -> np.ndarray:
    """:func:`_fold` of each row of ``a`` along its last axis, but for the
    sign of a zero sum: accumulate adds left to right."""
    return np.add.accumulate(a, axis=-1)[..., -1]


def _two_pass(w: np.ndarray, y: np.ndarray, keep: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The total weight and the impurity of the cells ``keep`` marks (None:
    every cell) in each row of tables laid out as :func:`_tables` lays them
    out: to the bit, :func:`_fold` of their weights in row order and
    :func:`gini_impurity` or :func:`weighted_variance` of their rows, since
    every cell left out adds an exact zero.  (A zero sum's sign can differ
    from ``_fold``'s only in the weighted mean, which the deviations square
    away.)  No weight raises :class:`EmptyNode`."""

    def kept(a):
        return a if keep is None else np.where(keep, a, 0.0)

    total = _fold_rows(kept(w))
    if (total <= 0).any():
        raise EmptyNode("impurity of a node with no weight")
    if y.ndim == 3:
        per_label = _fold_rows(kept(y)).T  # label by label, in label order
        p = per_label / _fold_rows(per_label)[:, None]
        return total, 1.0 - _fold_rows(p * p)
    d = y - (_fold_rows(kept(y * w)) / total)[:, None]
    return total, _fold_rows(kept(w * (d * d))) / total


def _swept_child_impurity(w, y, real, sizes, owner, order, col, counts) -> np.ndarray:
    """Weighted child impurity of each candidate, from running sums.

    ``w`` and ``y`` are node tables of :func:`_tables`, whose cells
    ``real`` hold the ``sizes`` rows of each node.  Row ``c`` of ``order``
    lists the positions of the rows of node ``owner[c]`` sorted by one
    candidate column, then the padding; candidate ``k`` sends the first
    ``counts[k]`` rows of row ``col[k]`` left.  Each side sums its own
    rows, from the front or from the back, so no side is a difference of
    two large totals.  One quantity is swept at a time, so no temporary
    outgrows ``order``.
    """
    width = order.shape[1]
    cells = order + width * owner[:, None]  # each column's sorted rows, as flat cells of a node table
    start = col * width  # where each candidate's sorted row starts, flat
    front, back = start + counts - 1, start + width - 1 - counts  # its last left row, from the front and the back
    if y.ndim == 3:
        # w * gini = 2 * (sum over label pairs of c_i * c_j) / w, all terms
        # positive; a label absent from a node adds zeros, so a label absent
        # from every node is skipped
        present = np.flatnonzero(y.any(axis=(1, 2))).tolist()
        totals, pairs = list(_running_sums(y[present[0]], cells, front, back)), [0.0, 0.0]
        for label in present[1:]:
            for side, c in enumerate(_running_sums(y[label], cells, front, back)):
                pairs[side] = pairs[side] + c * totals[side]
                totals[side] = totals[side] + c
        return sum(2.0 * p / t for p, t in zip(pairs, totals))
    # centred on each node's mean, so the sums below do not cancel
    means = [(w[j, :n] * y[j, :n]).sum() / w[j, :n].sum() for j, n in enumerate(sizes.tolist())]
    yc = y - np.array(means)[:, None]
    if real is not None:
        yc[~real] = 0.0
    left, right = zip(*(_running_sums(q, cells, front, back) for q in (w, w * yc, w * yc * yc)))
    return sum(s2 - s1 * s1 / s0 for s0, s1, s2 in (left, right))


def _running_sums(quantity: np.ndarray, cells: np.ndarray, front: np.ndarray, back: np.ndarray):
    """Running sums of the node table ``quantity`` along each row of
    ``cells``, from the front read at the flat positions ``front`` and
    from the back at ``back``."""
    swept = quantity.ravel().take(cells)
    right = np.add.accumulate(swept[:, ::-1], axis=1).ravel().take(back)
    return np.add.accumulate(swept, axis=1, out=swept).ravel().take(front), right


# ---------------------------------------------------------------------------
# Training and the tree model
# ---------------------------------------------------------------------------

def grow_table(root, expand) -> tuple[list[tuple[int, float, int, int]], dict[int, tuple]]:
    """The node table and leaves of a tree, in growth order: a split, its
    left subtree, then its right.

    ``expand(item)`` returns ``(None, leaf)`` for a leaf, ``leaf`` being its
    entry of :attr:`TreeModel.leaves`, or ``((feature, threshold), (left_item,
    right_item))`` for a split.  A right item carries its parent's row, whose
    right pointer it sets.  A work list, not recursion, so a tree may
    outgrow the recursion limit.
    """
    nodes, leaves, work = [], {}, [(root, -1)]
    while work:
        item, parent = work.pop()
        i = len(nodes)
        if parent >= 0:
            nodes[parent] = nodes[parent][:3] + (i,)
        split, value = expand(item)
        if split is None:
            nodes.append(LEAF)
            leaves[i] = value
        else:
            nodes.append((*split, i + 1, -1))
            work += [(value[1], i), (value[0], -1)]
    return nodes, leaves


def walk(nodes: Sequence[tuple[int, float, int, int]], sparse: Mapping[int, float], i: int = 0) -> int:
    """The leaf row that the ``{feature id: value}`` row ``sparse`` reaches
    from row ``i`` of a node table; an absent feature reads 0.0."""
    feature, threshold, left, right = nodes[i]
    while left >= 0:
        i = left if sparse.get(feature, 0.0) <= threshold else right
        feature, threshold, left, right = nodes[i]
    return i


def descend(node_arrays, columns: Columns, width: int, start: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The leaf rows that many walks reach, level by level, in a node table
    given as its feature, threshold, left and right columns: walk ``k``
    starts at row ``start[k]`` and reads row ``rows[k]`` of ``columns``,
    whose feature ids are below ``width``.  A split finds its feature among
    the row's entries by a sorted search over (row, feature id) keys.
    """
    feature, threshold, left, right = node_arrays
    n = len(columns.indptr) - 1
    entries = np.repeat(np.arange(n, dtype=np.int64), np.diff(columns.indptr))
    # ascending, since rows come in order and ids ascend within a row; the
    # sentinel lets every search land on an entry
    keys = np.append(entries * width + columns.feature_ids, np.iinfo(np.int64).max)
    values = np.append(columns.values, 0.0)
    node = np.array(start, dtype=np.intp)
    active = np.arange(len(node))
    while len(active):
        active = active[left.take(node[active]) >= 0]
        at = node[active]
        wanted = rows.take(active) * width + feature.take(at)
        pos = np.searchsorted(keys, wanted)
        value = np.where(keys.take(pos) == wanted, values.take(pos), 0.0)
        node[active] = np.where(value <= threshold.take(at), left.take(at), right.take(at))
    return node


class TreeModel(Model):
    """A CART tree as one node table.

    Row ``i`` of ``nodes`` is ``(feature, threshold, left, right)``: a row
    whose value of feature id ``feature`` (0.0 when absent) is at most
    ``threshold`` goes on to row ``left``, any other to row ``right``.  A
    leaf's row is :data:`LEAF` and ``leaves[i]`` is its ``(n_examples,
    counts)``, per-label weight totals, or in a regression tree its
    ``(n_examples, mean)``.  The constructor raises ``ValueError`` unless
    the rows are a tree in the growth order of :func:`grow_table`, so every
    walk from row 0 ends at a leaf, each split names a feature of the
    domain and ``leaves`` is keyed by exactly the leaf rows.
    """

    model_class = TREE_MODEL_CLASS

    def __init__(self, name, provenance, feature_domain, output_domain, nodes, leaves):
        super().__init__(name, provenance, feature_domain, output_domain)
        self.nodes = list(nodes)
        self.leaves = dict(leaves)
        width, due, work = len(feature_domain), 0, [0]
        while work:  # pops the rows in growth order, so row ``due`` must come next
            i = work.pop()
            if type(i) is not int or i != due or i >= len(self.nodes):
                raise ValueError(f"the node table is not a tree in growth order at row {due}")
            due += 1
            feature, _, left, right = self.nodes[i]
            if self.nodes[i] != LEAF:
                if type(feature) is not int or not 0 <= feature < width:
                    raise ValueError(f"split feature {feature!r} is not an id of the {width}-feature domain")
                work += (right, left)
        if due != len(self.nodes) or self.leaves.keys() != {i for i, row in enumerate(self.nodes) if row == LEAF}:
            raise ValueError("the node table has rows not reached from row 0, or leaves not keyed by its leaf rows")

    def _predict_intersected(self, sparse: Mapping[int, float]) -> tuple[Output, dict[str, float]]:
        output, scores = self.leaf_outputs[walk(self.nodes, sparse)]
        return output, dict(scores)

    @cached_property
    def leaf_outputs(self) -> dict[int, tuple[Output, dict[str, float]]]:
        """Each leaf's ``(output, scores)`` by row, built once."""
        if self.task != CATEGORICAL:
            return {i: (RealOutput(mean), {}) for i, (_, mean) in self.leaves.items()}
        labels, outputs = self.output_domain.labels(), {}
        for i, (_, counts) in self.leaves.items():
            total = _fold(counts[label] for label in sorted(counts))  # the file's order, so a loaded tree scores alike
            scores = {label: counts.get(label, 0.0) / total for label in labels}
            outputs[i] = (CategoricalOutput(argmax_label(scores)), scores)
        return outputs

    @cached_property
    def node_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The feature, threshold, left and right columns of :attr:`nodes`, built once."""
        return tuple(np.array(column) for column in zip(*self.nodes))

    def leaves_of(self, columns: Columns) -> np.ndarray:
        """Row of :attr:`nodes` of the leaf each compiled row reaches: :func:`descend` from row 0."""
        n = len(columns.indptr) - 1
        return descend(self.node_arrays, columns, len(self.feature_domain), np.zeros(n, dtype=np.intp), np.arange(n))

    @cached_property
    def leaf_table(self) -> ScoreTable:
        """The :class:`~pvml.core.ScoreTable` of the node rows, built once from
        :attr:`leaf_outputs`: None and zeros at a split."""
        outputs, labels = [None] * len(self.nodes), self.output_domain.labels() if self.task == CATEGORICAL else ()
        scores = np.zeros((len(self.nodes), len(labels)) if labels else len(self.nodes))
        for i, (output, leaf_scores) in self.leaf_outputs.items():
            outputs[i], scores[i] = output, [leaf_scores[label] for label in labels] if labels else output.value
        return ScoreTable(outputs, scores)

    def _score_compiled(self, columns: Columns) -> ScoreTable:
        """The rows of :attr:`leaf_table` that the rows reach."""
        leaves, (outputs, scores, _) = self.leaves_of(columns), self.leaf_table
        return ScoreTable(list(map(outputs.__getitem__, leaves.tolist())), scores.take(leaves, axis=0))


class _Growth:
    """One tree's growth: its nodes as ``(rows, depth)`` by id, the split
    and left child of each node that splits, and the open nodes, the next
    in growth order last.

    The tree offers one node at a time, in growth order, so its stream is
    consumed as a depth-first growth consumes it.
    """

    def __init__(self, sample: _Sample, tree: int, cfg: TreeConfig, rng: Xoshiro256StarStar):
        self.sample, self.cfg, self.rng = sample, cfg, rng
        self.num_features = sample.num_features[tree]
        self.k = math.ceil(cfg.feature_subsampling_fraction * self.num_features)
        self.nodes = [(np.arange(sample.starts[tree], sample.starts[tree + 1]), 0)]
        self.splits: dict[int, tuple[Split, int]] = {}
        self.open = [0]

    def next_search(self) -> tuple[int, tuple] | None:
        """The next open node to search, with its search for :func:`best_splits`,
        or None once the tree is grown; the nodes passed over on the way are leaves."""
        cfg = self.cfg
        while self.open:
            i = self.open.pop()
            rows, depth = self.nodes[i]
            if depth >= cfg.max_depth or len(rows) < 2 * cfg.min_examples_per_leaf:
                continue
            if self.k < self.num_features:
                candidates = sorted(self.rng.sample_prefix(self.num_features, self.k))
            else:
                candidates = list(range(self.num_features))  # no draw when taking everything
            search = _search_of(_Node(self.sample, rows), candidates, cfg, self.rng)
            if search is not None:
                return i, search
        return None

    def settle(self, i: int, split: Split | None) -> None:
        """Record node ``i``'s split, opening its children, the left to grow first."""
        if split is None:
            return
        rows, depth = self.nodes[i]
        goes_left = self.sample.x[split.feature_id].take(rows) <= split.threshold
        self.splits[i] = split, len(self.nodes)
        self.open += [len(self.nodes) + 1, len(self.nodes)]
        self.nodes += [(rows[goes_left], depth + 1), (rows[~goes_left], depth + 1)]

    def table(self) -> tuple[list[tuple[int, float, int, int]], dict[int, tuple]]:
        """The grown tree's node table and leaves, by :func:`grow_table`."""
        labels = self.sample.labels

        def expand(i):
            if i in self.splits:
                split, left = self.splits[i]
                return (split.feature_id, split.threshold), (left, left + 1)
            rows = self.nodes[i][0]
            targets, weights = _Node(self.sample, rows).targets_and_weights()
            if labels is not None:
                counts: dict[str, float] = {}
                for target, weight in zip(targets, weights):
                    counts[labels[target]] = counts.get(labels[target], 0.0) + weight
                return None, (len(rows), counts)
            return None, (len(rows), _fold(t * w for t, w in zip(targets, weights)) / _fold(weights))

        return grow_table(0, expand)


class CartTrainer(Trainer):
    """Grows CART trees; handles classification and regression datasets."""

    trainer_class = CART_TRAINER_CLASS

    def __init__(self, cfg: TreeConfig):
        super().__init__(cfg.seed)
        self.cfg = cfg

    def train_with_count(self, dataset: Dataset, count: int, user_info=None) -> TreeModel:
        return self.train_many([dataset], [count], user_info)[0]

    def train_many(self, datasets: Iterable[Dataset], counts: Iterable[int], user_info=None) -> list[TreeModel]:
        """Grow the trees in lockstep groups: each step searches the next
        node of every tree of a group through one :func:`best_splits`, so
        each tree is the one it would be grown alone.  A group is a run of
        trees with the same labels, or of regression trees, whose rows
        share one :class:`_Sample`; its ``x`` holds at most
        :data:`LOCKSTEP_CELLS` cells, unless the group is one tree.  A group
        is grown before the next dataset is taken."""
        models: list[TreeModel] = []
        group: list[tuple[Dataset, int]] = []
        for dataset, count in zip(datasets, counts):
            if dataset.task == CATEGORICAL and not dataset.output_domain.labels():
                raise TaskMismatch("classification dataset has no labels")
            if group and not _joins([d for d, _ in group], dataset):
                models += self._grow(group, user_info)
                group = []
            group.append((dataset, count))
        return models + (self._grow(group, user_info) if group else [])

    def _grow(self, group: Sequence[tuple[Dataset, int]], user_info) -> list[TreeModel]:
        """The trees of one lockstep group."""
        sample = _Sample([(d.columns, len(d.feature_domain)) for d, _ in group], _labels(group[0][0]))
        growths = [
            _Growth(sample, tree, self.cfg, Xoshiro256StarStar(self.stream_seed(count)))
            for tree, (_, count) in enumerate(group)
        ]
        while ready := [(growth, found) for growth in growths if (found := growth.next_search())]:
            for (growth, (i, _)), split in zip(ready, best_splits([search for _, (_, search) in ready], self.cfg)):
                growth.settle(i, split)
        models = []
        for (dataset, count), growth in zip(group, growths):
            prov = model_provenance(
                TREE_MODEL_CLASS,
                trainer_provenance=self.provenance_with_count(count),
                dataset_provenance=dataset.provenance,
                user_info=user_info,
            )
            models.append(TreeModel("cart", prov, dataset.feature_domain, dataset.output_domain, *growth.table()))
        return models


def _labels(dataset: Dataset) -> tuple[str, ...] | None:
    return tuple(dataset.output_domain.labels()) if dataset.task == CATEGORICAL else None


def _joins(group: Sequence[Dataset], dataset: Dataset) -> bool:
    """Whether ``dataset`` can grow in lockstep with the trees of ``group``:
    the same labels, and a shared ``x`` within :data:`LOCKSTEP_CELLS`."""
    members = [*group, dataset]
    cells = max(len(d.feature_domain) for d in members) * (1 + sum(len(d.columns.weights) for d in members))
    return _labels(dataset) == _labels(group[0]) and cells <= LOCKSTEP_CELLS


def train_cart(dataset: Dataset, cfg: TreeConfig) -> TreeModel:
    """One-shot convenience: a fresh trainer and a single invocation."""
    return CartTrainer(cfg).train(dataset)
