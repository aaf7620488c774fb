"""CART decision trees: Gini for classification, variance for regression.

Growth is greedy and depth-first (left child first).  All randomness —
per-node feature subsampling and, for the extremely-randomized variant,
threshold draws — comes from a single sequential stream in growth order,
so a (data, config, seed) triple pins the tree structure exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .core import (
    CATEGORICAL,
    CategoricalOutput,
    Dataset,
    Model,
    Output,
    RealOutput,
    Trainer,
    argmax_label,
    model_provenance,
)
from .errors import EmptyNode, TaskMismatch
from .provenance import PFlt, PInt, PObj, PStr, object_provenance
from .rng import Xoshiro256StarStar, to_signed64

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


def _node_impurity(rows: Sequence[_Row], task: str) -> float:
    if task == CATEGORICAL:
        weights: dict[str, float] = {}
        for row in rows:
            weights[row.target] = weights.get(row.target, 0.0) + row.weight
        return gini_impurity(weights)
    return weighted_variance([r.target for r in rows], [r.weight for r in rows])


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

    The search is a sorted sweep, O(N log N) per feature: each candidate
    column is stable-sorted once, and running sums over the sorted rows
    give the child impurity of every threshold.  Those sums add in another
    order than the two-pass impurity formulas, so they may differ in the
    last bits and serve only to shortlist the thresholds within a rounding
    margin of the best.  Each shortlisted threshold is rescored by
    :func:`_split_decrease` over the rows in their original order, so the
    returned split, to the last bit of ``impurity_decrease``, is the one a
    rescan of every threshold with the two-pass formulas would pick.
    """
    if cfg.split_kind == RANDOM_THRESHOLD and rng is None:
        raise ValueError("random-threshold splits need a random stream")
    parent = _node_impurity(rows, task)
    if parent == 0.0:
        return None
    fids = list(candidate_features)
    if cfg.split_kind == RANDOM_THRESHOLD:
        draws = np.array([rng.next_float() for _ in fids])  # one per candidate, in order
    if not fids:
        return None

    x = _columns(rows, fids)
    varying = np.flatnonzero(x.min(axis=0) < x.max(axis=0))  # a constant column cannot split
    x = x[:, varying]
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    n = len(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.split_kind == EXHAUSTIVE:
            pos, col = np.nonzero(xs[:-1] < xs[1:])
            lo, hi = xs[pos, col], xs[pos + 1, col]
            thresholds = (lo + hi) / 2.0
            counts = pos + 1
            # the midpoint of adjacent doubles can round onto hi, or overflow
            for k in np.flatnonzero(~((lo <= thresholds) & (thresholds < hi))):
                counts[k] = np.searchsorted(xs[:, col[k]], thresholds[k], side="right")
        else:
            col = np.arange(len(varying))
            thresholds = xs[0] + draws[varying] * (xs[-1] - xs[0])
            counts = (xs <= thresholds).sum(axis=0)
        m = cfg.min_examples_per_leaf
        ok = (counts >= m) & (n - counts >= m)
        col, thresholds, counts = col[ok], thresholds[ok], counts[ok]
        if not len(col):
            return None
        del xs  # only the order is needed from here on
        approx = _swept_child_impurity(rows, task, order, col, counts)

    # Gini is at most 1 and its formula rounds in absolute terms; variance
    # rounds relative to the parent's
    margin = 1e-9 * (1.0 if task == CATEGORICAL else parent)
    if np.isfinite(approx).all():
        shortlist = np.flatnonzero(approx <= approx.min() + margin)
    else:
        shortlist = np.arange(len(col))
    shortlist = shortlist[np.lexsort((thresholds[shortlist], col[shortlist]))]

    total_weight = sum(r.weight for r in rows)
    best: Split | None = None
    for k in shortlist:
        fid, threshold = fids[varying[col[k]]], float(thresholds[k])
        decrease = _split_decrease(rows, x[:, col[k]].tolist(), threshold, parent, total_weight, cfg, task)
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


def _columns(rows: Sequence[_Row], fids: Sequence[int]) -> np.ndarray:
    """The rows' values of ``fids`` as an n x len(fids) array; absent reads 0.0."""
    ids, inverse = np.unique(np.asarray(fids, dtype=np.int64), return_inverse=True)
    lengths = [len(r.values) for r in rows]
    nnz = sum(lengths)
    keys = np.fromiter(chain.from_iterable(r.values for r in rows), np.int64, nnz)
    values = np.fromiter(chain.from_iterable(r.values.values() for r in rows), np.float64, nnz)
    where = np.minimum(np.searchsorted(ids, keys), len(ids) - 1)
    hit = ids[where] == keys
    dense = np.zeros((len(rows), len(ids)))
    dense[np.repeat(np.arange(len(rows)), lengths)[hit], where[hit]] = values[hit]
    return dense[:, inverse]


def _swept_child_impurity(rows, task, order, col, counts) -> np.ndarray:
    """Weighted child impurity over total weight, from running sums.

    Candidate ``k`` sends the first ``counts[k]`` rows of sorted column
    ``col[k]`` left.  Each side sums its own rows, from the front or from
    the back, so no side is a difference of two large totals.
    """
    w = np.array([r.weight for r in rows])
    if task == CATEGORICAL:
        codes = {label: i for i, label in enumerate(sorted({r.target for r in rows}))}
        y = np.array([codes[r.target] for r in rows])
        quantities = np.where(y == np.arange(len(codes))[:, None], w, 0.0)  # weight per label
    else:
        y = np.array([r.target for r in rows])
        yc = y - np.dot(w, y) / w.sum()  # centred, so the sums below do not cancel
        quantities = np.stack([w, w * yc, w * yc * yc])
    n = len(rows)
    left, right = [], []
    for quantity in quantities:  # one at a time keeps the temporaries n x F
        swept = quantity[order]  # each column in sorted order
        right.append(np.cumsum(swept[::-1], axis=0)[n - 1 - counts, col])
        left.append(np.cumsum(swept, axis=0, out=swept)[counts - 1, col])
    left, right = np.array(left), np.array(right)
    if task == CATEGORICAL:
        # w * gini = 2 * (sum over label pairs of c_i * c_j) / w, all terms positive
        child = sum(
            2.0 * (c[1:] * np.cumsum(c, axis=0)[:-1]).sum(axis=0) / c.sum(axis=0)
            for c in (left, right)
        )
    else:
        child = sum(s2 - s1 * s1 / s0 for s0, s1, s2 in (left, right))
    return child / w.sum()


def _split_decrease(rows, values, threshold, parent, total_weight, cfg, task) -> float | None:
    """Impurity decrease of one threshold by the two-pass formulas, or None.

    ``values`` holds each row's value of the feature, in row order.  None
    means a child would fall under the leaf minimum.
    """
    left = [row for row, v in zip(rows, values) if v <= threshold]
    right = [row for row, v in zip(rows, values) if v > threshold]
    if len(left) < cfg.min_examples_per_leaf or len(right) < cfg.min_examples_per_leaf:
        return None
    wl = sum(r.weight for r in left)
    wr = sum(r.weight for r in right)
    child = (wl * _node_impurity(left, task) + wr * _node_impurity(right, task)) / total_weight
    return parent - child


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
        if node.counts is not None:
            total = sum(node.counts.values())
            scores = {
                label: node.counts.get(label, 0.0) / total
                for label in self.output_domain.labels()
            }
            return CategoricalOutput(argmax_label(scores)), scores
        return RealOutput(node.mean), {}


class CartTrainer(Trainer):
    """Grows a CART tree; handles classification and regression datasets."""

    trainer_class = CART_TRAINER_CLASS

    def __init__(self, cfg: TreeConfig):
        super().__init__(cfg.seed)
        self.cfg = cfg

    def provenance_with_count(self, count: int) -> PObj:
        cfg = self.cfg
        return object_provenance(
            self.trainer_class,
            config={
                "max-depth": PInt(cfg.max_depth),
                "min-examples-per-leaf": PInt(cfg.min_examples_per_leaf),
                "min-impurity-decrease": PFlt(cfg.min_impurity_decrease),
                "feature-subsampling-fraction": PFlt(cfg.feature_subsampling_fraction),
                "split-kind": PStr(cfg.split_kind),
                "seed": PInt(to_signed64(self.seed)),
            },
            instance={"invocation-count": PInt(count)},
        )

    def train_with_count(self, dataset: Dataset, count: int, user_info=None) -> TreeModel:
        task = dataset.task
        if task == CATEGORICAL and not dataset.output_domain.labels():
            raise TaskMismatch("classification dataset has no labels")

        domain = dataset.feature_domain
        rows = []
        for ex in dataset.examples:
            values = {domain.id_of(f.name): f.value for f in ex.features}
            target = ex.output.label if task == CATEGORICAL else ex.output.value
            rows.append(_Row(values, target, ex.weight))

        num_features = len(domain)
        k = math.ceil(self.cfg.feature_subsampling_fraction * num_features)
        rng = Xoshiro256StarStar(self.stream_seed(count))
        cfg = self.cfg

        def make_leaf(node_rows: Sequence[_Row]) -> LeafNode:
            if task == CATEGORICAL:
                counts: dict[str, float] = {}
                for row in node_rows:
                    counts[row.target] = counts.get(row.target, 0.0) + row.weight
                return LeafNode(len(node_rows), counts=counts)
            total = sum(r.weight for r in node_rows)
            mean = sum(r.target * r.weight for r in node_rows) / total
            return LeafNode(len(node_rows), mean=mean)

        def grow(node_rows: Sequence[_Row], depth: int) -> TreeNode:
            if depth >= cfg.max_depth or len(node_rows) < 2 * cfg.min_examples_per_leaf:
                return make_leaf(node_rows)
            if k < num_features:
                candidates = sorted(rng.sample_prefix(num_features, k))
            else:
                candidates = list(range(num_features))  # no draw when taking everything
            split = best_split(node_rows, candidates, cfg, task, rng)
            if split is None:
                return make_leaf(node_rows)
            left_rows = [r for r in node_rows if r.values.get(split.feature_id, 0.0) <= split.threshold]
            right_rows = [r for r in node_rows if r.values.get(split.feature_id, 0.0) > split.threshold]
            left = grow(left_rows, depth + 1)
            right = grow(right_rows, depth + 1)
            return SplitNode(split.feature_id, split.threshold, left, right)

        root = grow(rows, 0)
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
