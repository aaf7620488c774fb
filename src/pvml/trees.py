"""CART decision trees: Gini for classification, variance for regression.

Growth is greedy and depth-first (left child first).  All randomness —
per-node feature subsampling and, for the extremely-randomized variant,
threshold draws — comes from a single sequential stream in growth order,
so a (data, config, seed) triple pins the tree structure exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .core import (
    CATEGORICAL,
    CategoricalOutput,
    Columns,
    Dataset,
    Model,
    Output,
    RealOutput,
    Trainer,
    argmax_label,
    model_provenance,
)
from .errors import EmptyNode, TaskMismatch
from .rng import Xoshiro256StarStar

EXHAUSTIVE = "exhaustive"
RANDOM_THRESHOLD = "random-threshold"

CART_TRAINER_CLASS = "pvml.CartTrainer"
TREE_MODEL_CLASS = "pvml.TreeModel"


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


@dataclass(frozen=True)
class LeafNode:
    """Per-label weight totals for classification, weighted mean for regression."""

    n_examples: int
    counts: dict[str, float] | None = None
    mean: float | None = None


@dataclass(frozen=True)
class SplitNode:
    feature_id: int
    threshold: float
    left: "TreeNode"
    right: "TreeNode"


TreeNode = LeafNode | SplitNode


@dataclass(frozen=True, eq=False)
class FlatTree:
    """A tree as node arrays, parents before children.

    Node ``i`` splits on ``feature[i]`` at ``threshold[i]`` into nodes
    ``left[i]`` and ``right[i]``; a leaf has ``left[i] == -1`` and its
    ``(output, scores)`` in ``leaves[i]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaves: dict[int, tuple[Output, dict[str, float]]]


# ---------------------------------------------------------------------------
# Impurity
# ---------------------------------------------------------------------------

def gini_impurity(class_weights: Mapping[str, float]) -> float:
    """1 - sum of squared class proportions, proportions by weight."""
    total = sum(class_weights[label] for label in sorted(class_weights))
    if total <= 0:
        raise EmptyNode("impurity of a node with no weight")
    acc = 0.0
    for label in sorted(class_weights):
        p = class_weights[label] / total
        acc += p * p
    return 1.0 - acc


def weighted_variance(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted population variance of regression targets."""
    total = sum(weights)
    if total <= 0:
        raise EmptyNode("impurity of a node with no weight")
    mean = sum(v * w for v, w in zip(values, weights)) / total
    return sum(w * (v - mean) ** 2 for v, w in zip(values, weights)) / total


@dataclass(frozen=True)
class _Row:
    """One training example flattened for tree growth."""

    values: dict[int, float]  # feature id -> value; absent means 0.0
    target: object  # label string or float
    weight: float


def _impurity(targets: Sequence, weights: Sequence[float], task: str) -> float:
    """Two-pass impurity of rows given as parallel target and weight lists."""
    if task == CATEGORICAL:
        per_label: dict = {}
        for target, weight in zip(targets, weights):
            per_label[target] = per_label.get(target, 0.0) + weight
        return gini_impurity(per_label)
    return weighted_variance(targets, weights)


class _Sample:
    """A tree's training rows as arrays, every feature sorted once at the root.

    ``x`` holds the values as a dense (features, rows) matrix; absent
    features read 0.0.  Row ``f`` of ``order`` lists the row positions
    sorted by feature ``f``, ties in position order, and its last row lists
    the positions in order.  Growth stable-partitions each split node's
    segment ``order[:, start:end]`` in place, so every node's segment holds
    its rows sorted by each feature, and in sample order in the last row.
    """

    def __init__(self, columns: Columns, num_features: int, labels: Sequence[str] | None):
        n = len(columns.weights)
        self.columns = columns
        self.labels = labels  # label of each target index; None for regression
        self.x = np.zeros((num_features, n))
        self.x[columns.feature_ids, np.repeat(np.arange(n), np.diff(columns.indptr))] = columns.values
        self.order = np.empty((num_features + 1, n), dtype=np.int32)
        self.order[:-1] = np.argsort(self.x, axis=1, kind="stable")
        self.order[-1] = np.arange(n)
        if labels is not None:  # each row's weight under its label, zero under the others
            one_hot = columns.targets == np.arange(len(labels))[:, None]
            self.label_weights = np.where(one_hot, columns.weights, 0.0)

    def partition(self, start: int, end: int, feature_id: int, threshold: float) -> int:
        """Send the segment's rows at or under the threshold to its front; returns the boundary."""
        segment = self.order[:, start:end]
        goes_left = (self.x[feature_id].take(segment) <= threshold).ravel()
        left = np.compress(goes_left, segment).reshape(len(segment), -1)
        right = np.compress(~goes_left, segment).reshape(len(segment), -1)
        n_left = left.shape[1]
        segment[:, :n_left] = left
        segment[:, n_left:] = right
        return start + n_left


class _Node:
    """The rows of one tree node, as :func:`best_split` searches them.

    It has a ``len()``, and iterating it yields the rows as :class:`_Row`s,
    in sample order, built on demand.  Its sorted segment is valid until
    growth partitions the node.
    """

    def __init__(self, sample: _Sample, start: int, end: int):
        self.sample, self.start, self.end = sample, start, end
        self.rows = sample.order[-1, start:end].copy()  # row positions, ascending

    def __len__(self) -> int:
        return self.end - self.start

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
    return _Node(_Sample(columns, num_features, labels), 0, len(rows))


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
    splits.

    ``rows`` is a list of :class:`_Row`, or the node view that tree growth
    passes: an object with a ``len()`` whose iteration yields the node's
    ``_Row``s in sample order.  A list is compiled on entry into a view of
    its own, so both take the same path.

    The search is a sorted sweep.  The view holds every candidate column
    already sorted, ties in row order: growth sorts each feature once at
    the root and stable-partitions the order down the tree.  Running sums
    over the sorted rows give the child impurity of every threshold.  Those
    sums add in another order than the two-pass impurity formulas, so they
    may differ in the last bits and serve only to shortlist the thresholds
    within a rounding margin of the best.  Each shortlisted threshold is
    rescored by :func:`_split_decrease` over the rows in their original
    order, so the returned split, to the last bit of ``impurity_decrease``,
    is the one a rescan of every threshold with the two-pass formulas would
    pick.
    """
    if cfg.split_kind == RANDOM_THRESHOLD and rng is None:
        raise ValueError("random-threshold splits need a random stream")
    node = rows if isinstance(rows, _Node) else _node_of_rows(rows, candidate_features, task)
    targets, weights = node.targets_and_weights()
    parent = _impurity(targets, weights, task)
    if parent == 0.0:
        return None
    fids = list(candidate_features)
    if cfg.split_kind == RANDOM_THRESHOLD:
        draws = np.array([rng.next_float() for _ in fids])  # one per candidate, in order
    if not fids:
        return None

    sample = node.sample
    n = len(node)
    order = sample.order[fids, node.start : node.end]
    xs = sample.x.take(order + len(sample.order[0]) * np.array(fids)[:, None])  # values, each row sorted
    varying = np.flatnonzero(xs[:, 0] < xs[:, -1])  # a constant column cannot split
    order, xs = order.take(varying, axis=0), xs.take(varying, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.split_kind == EXHAUSTIVE:
            col, pos = (xs[:, :-1] < xs[:, 1:]).nonzero()
            lo, hi = xs[col, pos], xs[col, pos + 1]
            thresholds = (lo + hi) / 2.0
            counts = pos + 1
            # the midpoint of adjacent doubles can round onto hi, or overflow
            for k in np.flatnonzero(~((lo <= thresholds) & (thresholds < hi))):
                counts[k] = np.searchsorted(xs[col[k]], thresholds[k], side="right")
        else:
            col = np.arange(len(varying))
            thresholds = xs[:, 0] + draws.take(varying) * (xs[:, -1] - xs[:, 0])
            counts = (xs <= thresholds[:, None]).sum(axis=1)
        m = cfg.min_examples_per_leaf
        ok = (counts >= m) & (n - counts >= m)
        col, thresholds, counts = col[ok], thresholds[ok], counts[ok]
        if not len(col):
            return None
        total_weight = sum(weights)
        approx = _swept_child_impurity(node, task, order, col, counts) / total_weight

    # Gini is at most 1 and its formula rounds in absolute terms; variance
    # rounds relative to the parent's
    margin = 1e-9 * (1.0 if task == CATEGORICAL else parent)
    if np.isfinite(approx).all():
        shortlist = np.flatnonzero(approx <= approx.min() + margin)
    else:
        shortlist = range(len(col))

    best: Split | None = None
    for k in shortlist:
        fid, threshold = fids[varying[col[k]]], float(thresholds[k])
        values = sample.x[fid].take(node.rows).tolist()
        decrease = _split_decrease(values, targets, weights, threshold, parent, total_weight, cfg, task)
        if decrease is None:
            continue
        if (
            best is None
            or decrease > best.impurity_decrease
            or (
                decrease == best.impurity_decrease
                and (fid, threshold) < (best.feature_id, best.threshold)
            )
        ):
            best = Split(fid, threshold, decrease)

    if best is None or best.impurity_decrease < cfg.min_impurity_decrease:
        return None
    return best


def _swept_child_impurity(node: _Node, task, order, col, counts) -> np.ndarray:
    """Weighted child impurity of each candidate, from running sums.

    Row ``c`` of ``order`` lists the node's row positions sorted by one
    candidate column; candidate ``k`` sends the first ``counts[k]`` rows of
    row ``col[k]`` left.  Each side sums its own rows, from the front or
    from the back, so no side is a difference of two large totals.
    """
    sample = node.sample
    if task == CATEGORICAL:
        present = np.flatnonzero(np.bincount(sample.columns.targets.take(node.rows)))
        quantities = sample.label_weights.take(present, axis=0)  # weight per label
    else:
        w, y = sample.columns.weights, sample.columns.targets
        node_w = w.take(node.rows)
        yc = y - np.dot(node_w, y.take(node.rows)) / node_w.sum()  # centred, so the sums below do not cancel
        quantities = (w, w * yc, w * yc * yc)
    n = order.shape[1]
    left, right = [], []
    for quantity in quantities:  # one at a time keeps the temporaries n x F
        swept = quantity.take(order)  # each candidate's rows in sorted order
        right.append(np.add.accumulate(swept[:, ::-1], axis=1)[col, n - 1 - counts])
        left.append(np.add.accumulate(swept, axis=1, out=swept)[col, counts - 1])
    left, right = np.array(left), np.array(right)
    if task == CATEGORICAL:
        # w * gini = 2 * (sum over label pairs of c_i * c_j) / w, all terms positive
        return sum(
            2.0 * (c[1:] * np.add.accumulate(c)[:-1]).sum(axis=0) / c.sum(axis=0)
            for c in (left, right)
        )
    return sum(s2 - s1 * s1 / s0 for s0, s1, s2 in (left, right))


def _split_decrease(values, targets, weights, threshold, parent, total_weight, cfg, task) -> float | None:
    """Impurity decrease of one threshold by the two-pass formulas, or None.

    ``values``, ``targets`` and ``weights`` list the node's rows in sample
    order.  None means a child would fall under the leaf minimum.
    """
    left = [i for i, v in enumerate(values) if v <= threshold]
    right = [i for i, v in enumerate(values) if v > threshold]
    if len(left) < cfg.min_examples_per_leaf or len(right) < cfg.min_examples_per_leaf:
        return None
    child = 0.0
    for side in (left, right):
        side_weights = [weights[i] for i in side]
        child += sum(side_weights) * _impurity([targets[i] for i in side], side_weights, task)
    return parent - child / total_weight


# ---------------------------------------------------------------------------
# Training and the tree model
# ---------------------------------------------------------------------------

class TreeModel(Model):
    model_class = TREE_MODEL_CLASS

    def __init__(self, name, provenance, feature_domain, output_domain, root: TreeNode):
        super().__init__(name, provenance, feature_domain, output_domain)
        self.root = root

    def _predict_intersected(self, example, sparse: Mapping[int, float]) -> tuple[Output, dict[str, float]]:
        node = self.root
        while isinstance(node, SplitNode):
            value = sparse.get(node.feature_id, 0.0)
            node = node.left if value <= node.threshold else node.right
        return self._leaf_output(node)

    def _leaf_output(self, leaf: LeafNode) -> tuple[Output, dict[str, float]]:
        if leaf.counts is not None:
            total = sum(leaf.counts.values())
            scores = {
                label: leaf.counts.get(label, 0.0) / total
                for label in self.output_domain.labels()
            }
            return CategoricalOutput(argmax_label(scores)), scores
        return RealOutput(leaf.mean), {}

    @cached_property
    def flat(self) -> FlatTree:
        """The tree as node arrays, built once with an explicit work list.

        A split on a feature id outside the domain reads 0.0, as
        ``sparse.get`` does in :meth:`_predict_intersected`; it is stored as
        the id one past the domain.
        """
        width = len(self.feature_domain)
        nodes: list[TreeNode] = [self.root]
        feature, threshold, left, right = [], [], [], []
        for node in nodes:  # grows while it is walked: children go to the back
            if isinstance(node, SplitNode):
                fid = node.feature_id
                feature.append(fid if isinstance(fid, int) and 0 <= fid < width else width)
                threshold.append(node.threshold)
                left.append(len(nodes))
                right.append(len(nodes) + 1)
                nodes += (node.left, node.right)
            else:
                feature.append(width)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
        leaves = {i: self._leaf_output(node) for i, node in enumerate(nodes) if isinstance(node, LeafNode)}
        return FlatTree(
            np.array(feature, dtype=np.int64),
            np.array(threshold, dtype=np.float64),
            np.array(left, dtype=np.intp),
            np.array(right, dtype=np.intp),
            leaves,
        )

    @cached_property
    def leaf_values(self) -> np.ndarray:
        """A regression tree's value at each leaf of :attr:`flat`, indexed by node; 0.0 at splits."""
        values = np.zeros(len(self.flat.left))
        for i, (output, _) in self.flat.leaves.items():
            values[i] = output.value
        return values

    def leaves_of(self, columns: Columns) -> np.ndarray:
        """Index into :attr:`flat` of the leaf each compiled row reaches.

        Every row descends one level per step.  A split finds its feature
        among the row's entries by a sorted search over (row, feature id)
        keys; an absent feature reads 0.0.
        """
        flat = self.flat
        n = len(columns.indptr) - 1
        width = len(self.feature_domain)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(columns.indptr))
        # ascending, since rows come in order and ids ascend within a row; the
        # sentinel lets every search land on an entry
        keys = np.append(rows * width + columns.feature_ids, np.iinfo(np.int64).max)
        values = np.append(columns.values, 0.0)
        node = np.zeros(n, dtype=np.intp)
        active = np.arange(n)
        while len(active):
            active = active[flat.left.take(node[active]) >= 0]
            at = node[active]
            fid = flat.feature.take(at)
            wanted = active * width + fid
            pos = np.searchsorted(keys, wanted)
            value = np.where((fid < width) & (keys.take(pos) == wanted), values.take(pos), 0.0)
            node[active] = np.where(value <= flat.threshold.take(at), flat.left.take(at), flat.right.take(at))
        return node

    def _score_compiled(self, columns: Columns) -> list[tuple[Output, dict[str, float]]]:
        leaves = self.flat.leaves
        return [(leaves[i][0], dict(leaves[i][1])) for i in self.leaves_of(columns).tolist()]


class CartTrainer(Trainer):
    """Grows a CART tree; handles classification and regression datasets."""

    trainer_class = CART_TRAINER_CLASS

    def __init__(self, cfg: TreeConfig):
        super().__init__(cfg.seed)
        self.cfg = cfg

    def train_with_count(self, dataset: Dataset, count: int, user_info=None) -> TreeModel:
        task = dataset.task
        if task == CATEGORICAL and not dataset.output_domain.labels():
            raise TaskMismatch("classification dataset has no labels")

        domain = dataset.feature_domain
        num_features = len(domain)
        labels = dataset.output_domain.labels() if task == CATEGORICAL else None
        sample = _Sample(dataset.columns, num_features, labels)
        k = math.ceil(self.cfg.feature_subsampling_fraction * num_features)
        rng = Xoshiro256StarStar(self.stream_seed(count))
        cfg = self.cfg

        def make_leaf(node: _Node) -> LeafNode:
            targets, weights = node.targets_and_weights()
            if task == CATEGORICAL:
                counts: dict[str, float] = {}
                for target, weight in zip(targets, weights):
                    counts[labels[target]] = counts.get(labels[target], 0.0) + weight
                return LeafNode(len(node), counts=counts)
            mean = sum(t * w for t, w in zip(targets, weights)) / sum(weights)
            return LeafNode(len(node), mean=mean)

        def grow(start: int, end: int, depth: int) -> TreeNode:
            node = _Node(sample, start, end)
            if depth >= cfg.max_depth or len(node) < 2 * cfg.min_examples_per_leaf:
                return make_leaf(node)
            if k < num_features:
                candidates = sorted(rng.sample_prefix(num_features, k))
            else:
                candidates = list(range(num_features))  # no draw when taking everything
            split = best_split(node, candidates, cfg, task, rng)
            if split is None:
                return make_leaf(node)
            middle = sample.partition(start, end, split.feature_id, split.threshold)
            left = grow(start, middle, depth + 1)
            right = grow(middle, end, depth + 1)
            return SplitNode(split.feature_id, split.threshold, left, right)

        root = grow(0, len(dataset), 0)
        prov = model_provenance(
            TREE_MODEL_CLASS,
            trainer_provenance=self.provenance_with_count(count),
            dataset_provenance=dataset.provenance,
            user_info=user_info,
        )
        return TreeModel("cart", prov, domain, dataset.output_domain, root)


def train_cart(dataset: Dataset, cfg: TreeConfig) -> TreeModel:
    """One-shot convenience: a fresh trainer and a single invocation."""
    return CartTrainer(cfg).train(dataset)
