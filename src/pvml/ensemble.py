"""Bagging, random forests and multi-class AdaBoost over any base trainer.

Member i trains from the stream seeded by splitmix64(seed + i) with
invocation count base + i, where the block of counts starting at base is
reserved up front, so each member is exactly the model the base trainer
would build alone from those two numbers.  Ensemble provenance nests one
full model provenance per member, and each member's feature domain is the
ensemble's restricted to the member's features.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .core import (
    CATEGORICAL,
    REAL,
    CategoricalOutput,
    Columns,
    Dataset,
    Model,
    Output,
    Prediction,
    RealOutput,
    Trainer,
    _fold,
    argmax_label,
    dataset_from_columns,
    model_provenance,
    output_task,
)
from .errors import AllMembersRejected, EmptySource, InconsistentTask, NoFeatureOverlap, TaskMismatch
from .provenance import (
    PBool,
    PFlt,
    PHash,
    PInt,
    PList,
    canonical_encode,
    object_provenance,
    sha256_hex,
)
from .rng import MASK64, Xoshiro256StarStar, splitmix64, to_signed64
from .trees import LEAF, CartTrainer, TreeModel, descend, walk

BAGGING = "bagging"
RANDOM_FOREST = "random-forest"
ADABOOST = "adaboost"

ENSEMBLE_TRAINER_CLASS = "pvml.EnsembleTrainer"
ENSEMBLE_MODEL_CLASS = "pvml.EnsembleModel"
BOOTSTRAP_SOURCE_CLASS = "pvml.BootstrapSampleSource"


@dataclass(frozen=True)
class EnsembleConfig:
    base_trainer: Trainer
    num_members: int
    seed: int
    sample_fraction: float = 1.0
    with_replacement: bool = True
    variant: str = BAGGING

    def __post_init__(self):
        if self.num_members < 1:
            raise ValueError("num_members must be >= 1")
        if not 0 < self.sample_fraction <= 1:
            raise ValueError("sample_fraction must be in (0, 1]")
        if self.variant not in (BAGGING, RANDOM_FOREST, ADABOOST):
            raise ValueError(f"unknown ensemble variant {self.variant!r}")
        if self.variant == RANDOM_FOREST:
            if not isinstance(self.base_trainer, CartTrainer):
                raise ValueError("random forests need a tree base trainer")
            if self.base_trainer.cfg.feature_subsampling_fraction >= 1:
                raise ValueError(
                    "random forests need per-node feature subsampling (fraction < 1)"
                )


def bootstrap_sample(
    dataset: Dataset, fraction: float, with_replacement: bool, member_seed: int
) -> Dataset:
    """Deterministic bootstrap view of a dataset.

    Draws round(fraction * N) indices from the stream seeded by
    ``member_seed``; a full draw without replacement is the identity (every
    example once, original order), taken from the parent's columns.  The
    sample's feature domain is the parent's restricted to the features
    drawn, statistics included, as a saved member's domain is on load.
    The sample's provenance wraps the original data provenance and records
    the member seed plus a hash of the drawn indices.
    """
    n_total = len(dataset)
    n_draw = int(math.floor(fraction * n_total + 0.5))
    if n_draw < 1:
        raise EmptySource(f"a {fraction} sample of {n_total} examples would be empty")
    rng = Xoshiro256StarStar(member_seed)
    if with_replacement:
        indices = [rng.next_below(n_total) for _ in range(n_draw)]
    elif n_draw == n_total:
        indices = list(range(n_total))
    else:
        indices = rng.sample_prefix(n_total, n_draw)

    indices_hash = sha256_hex(canonical_encode(PList(tuple(PInt(i) for i in indices))))
    source = object_provenance(
        BOOTSTRAP_SOURCE_CLASS,
        config={
            "fraction": PFlt(fraction),
            "with-replacement": PBool(with_replacement),
        },
        instance={
            "member-seed": PInt(to_signed64(member_seed)),
            "indices-hash": PHash("SHA-256", indices_hash),
            "base": dataset.provenance,
        },
    )
    sample = dataset.columns.take(np.array(indices, dtype=np.intp))
    present, local = np.unique(sample.feature_ids, return_inverse=True)
    labels = dataset.output_domain.labels() if dataset.task == CATEGORICAL else None
    columns = replace(sample, feature_ids=local.astype(np.int32))
    return dataset_from_columns(dataset.feature_domain.subset(present), columns, labels, source)


# ---------------------------------------------------------------------------
# Combination
# ---------------------------------------------------------------------------

def combine(predictions: Sequence[Prediction], weights: Sequence[float]) -> Prediction:
    """Merge member predictions: weighted vote or weighted mean.

    Classification score vectors are normalized to sum 1 per member before
    averaging so heterogeneous members mix sanely.  Feature-use counters
    are zeroed; the calling model substitutes its own.
    """
    if not predictions or len(predictions) != len(weights):
        raise ValueError("need one weight per member prediction")
    tasks = {output_task(p.output) for p in predictions}
    if len(tasks) != 1 or None in tasks:
        raise InconsistentTask("ensemble members disagree on the task type")
    task = tasks.pop()
    total = _fold(weights)

    if task == REAL:
        value = _fold(p.output.value * w for p, w in zip(predictions, weights)) / total
        return Prediction(RealOutput(value), {}, 0, 0)

    merged: dict[str, float] = {}
    for pred, weight in zip(predictions, weights):
        norm = _fold(pred.scores.values())
        for label, score in pred.scores.items():
            share = score / norm if norm > 0 else 0.0
            merged[label] = merged.get(label, 0.0) + weight * share
    scores = {label: value / total for label, value in merged.items()}
    return Prediction(CategoricalOutput(argmax_label(scores)), scores, 0, 0)


class _Forest:
    """The node tables of tree members stacked into one, member by member,
    each split's feature relabelled to the ensemble's ids and each child
    pointer offset; ``roots`` holds each member's first row.  ``values``
    holds each row's leaf mean, 0.0 at splits, when every member regresses."""

    def __init__(self, members: Sequence[TreeModel], index: Mapping[str, int]):
        self.nodes, self.roots, self.known, self.outputs = [], [], [], {}
        self.mask = np.zeros((len(members), len(index)), dtype=bool)  # the ids each member knows, as ``known``
        for m, member in enumerate(members):
            ids, base = [index[name] for name in member.feature_domain.names()], len(self.nodes)
            self.roots.append(base)
            self.known.append(frozenset(ids))
            self.mask[m, ids] = True
            self.nodes += [LEAF if a < 0 else (ids[f], t, base + a, base + b) for f, t, a, b in member.nodes]
            self.outputs.update((base + i, out) for i, out in member.leaf_outputs.items())
        self.arrays = tuple(map(np.array, zip(*self.nodes)))
        self.values = None
        if all(member.task == REAL for member in members):
            self.values = [self.outputs[i][0].value if i in self.outputs else 0.0 for i in range(len(self.nodes))]


class EnsembleModel(Model):
    """Weighted committee of trained members.  An ensemble of trees scores
    through its forest table, :attr:`_forest`; any other asks each member,
    through :attr:`_member_ids`.  Either way a member that knows none of a
    row's features skips the row, and the rest merge as :func:`combine` does."""

    model_class = ENSEMBLE_MODEL_CLASS

    def __init__(self, name, provenance, feature_domain, output_domain, members: Sequence[Model], member_weights):
        super().__init__(name, provenance, feature_domain, output_domain)
        if len(members) != len(member_weights):
            raise ValueError("need one weight per member")
        if not all(0.0 < w < math.inf for w in member_weights):
            raise ValueError("member weights must be finite and greater than 0")
        outside = {name for member in members for name in member.feature_domain.names()}.difference(feature_domain.ids)
        if outside:
            raise ValueError(f"member features {sorted(outside)!r} are outside the ensemble's domain")
        self.members = tuple(members)
        self.member_weights = tuple(member_weights)

    @cached_property
    def _forest(self) -> _Forest | None:
        """The forest table, built once, or None unless every member is a :class:`TreeModel`."""
        trees = all(isinstance(member, TreeModel) for member in self.members)
        return _Forest(self.members, self.feature_domain.ids) if trees else None

    def _predict_intersected(self, sparse: Mapping[int, float]) -> tuple[Output, dict[str, float]]:
        """Walk the forest table from the root of each member that knows a
        feature of ``sparse``, in member order, or ask each such member
        through :attr:`_member_ids`.  A forest regression takes the weighted
        mean of the leaves by :func:`combine`'s float operations."""
        forest, results, used = self._forest, [], []
        if forest is None:
            ids = np.fromiter(sparse, dtype=np.intp, count=len(sparse))
            for member, weight, member_ids in zip(self.members, self.member_weights, self._member_ids):
                local = {m: v for m, v in zip(member_ids.take(ids).tolist(), sparse.values()) if m >= 0}
                if not local:
                    continue  # a member whose bootstrap never saw these features
                with contextlib.suppress(NoFeatureOverlap):  # a nested ensemble none of whose members overlaps them
                    results.append(member._predict_intersected(local))
                    used.append(weight)
            return _merged(results, used)
        for root, known, weight in zip(forest.roots, forest.known, self.member_weights):
            if not known.isdisjoint(sparse):
                results.append(walk(forest.nodes, sparse, root))  # the leaf row it reaches
                used.append(weight)
        if used and forest.values is not None:
            return RealOutput(_fold(forest.values[i] * w for i, w in zip(results, used)) / _fold(used)), {}
        return _merged([forest.outputs[i] for i in results], used)

    @cached_property
    def _member_ids(self) -> list[np.ndarray]:
        """Per member: the member's id of each feature id of the ensemble, or -1."""
        index, views = self.feature_domain.ids, []
        for member in self.members:
            ids = np.full(len(self.feature_domain), -1, dtype=np.int32)
            ids[[index[name] for name in member.feature_domain.names()]] = np.arange(len(member.feature_domain))
            views.append(ids)
        return views

    def _score_compiled(self, columns: Columns) -> list[tuple[Output, dict[str, float]] | None]:
        """When every member regresses, the weighted values add up as arrays in member order, as
        :func:`combine` adds them, so the means are equal bit for bit; otherwise through :func:`combine`."""
        n = len(columns.indptr) - 1
        regression = all(member.task == REAL for member in self.members)
        acc, total, used = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
        per_row: list[list[tuple]] = [[] for _ in range(n)]  # (result, weight) of each member that scores a row
        for weight, at, results in self._member_results(columns, regression):
            if regression:
                acc[at] += results * weight
                total[at] += weight
                used[at] = True
                continue
            for r, result in zip(at.tolist(), results):
                if result is not None:
                    per_row[r].append((result, weight))
        if regression:
            with np.errstate(all="ignore"):
                means = (acc / total).tolist()
            return [(RealOutput(v), {}) if u else None for v, u in zip(means, used.tolist())]
        return [_merged(*zip(*row)) if row else None for row in per_row]

    def _member_results(self, columns: Columns, regression: bool):
        """Per member, in order: its weight, the rows it scores and its
        results there, an array of values when every member regresses.  The
        forest table descends all (member, row) pairs at once, on these
        columns; any other ensemble hands each member a view in its ids."""
        n = len(columns.indptr) - 1
        rows = np.repeat(np.arange(n), np.diff(columns.indptr))
        forest = self._forest
        if forest is not None:
            member, entry = forest.mask[:, columns.feature_ids].nonzero()
            overlap = np.zeros((len(self.members), n), dtype=bool)
            overlap[member, rows.take(entry)] = True
            member, at = overlap.nonzero()  # member by member, rows ascending
            leaves = descend(forest.arrays, columns, len(self.feature_domain), np.take(forest.roots, member), at)
            values, ends = np.array(forest.values or ()), np.cumsum(overlap.sum(axis=1))[:-1]
            for weight, at, leaves in zip(self.member_weights, np.split(at, ends), np.split(leaves, ends)):
                yield weight, at, values.take(leaves) if regression else [forest.outputs[i] for i in leaves.tolist()]
            return
        for member, weight, ids in zip(self.members, self.member_weights, self._member_ids):
            member_ids = ids.take(columns.feature_ids)
            keep = member_ids >= 0
            counts = np.bincount(rows[keep], minlength=n)
            overlap = np.flatnonzero(counts)  # a member that overlaps no feature of a row skips it
            indptr = np.zeros(len(overlap) + 1, dtype=np.int64)
            np.cumsum(counts[overlap], out=indptr[1:])
            view = Columns(indptr, member_ids[keep], columns.values[keep], columns.targets, columns.weights[overlap])
            results = member._score_compiled(view)
            if regression:  # a row a nested ensemble rejects is no row of the member's
                ok = [i for i, result in enumerate(results) if result is not None]
                overlap, results = overlap.take(ok), np.array([results[i][0].value for i in ok])
            yield weight, overlap, results


def _merged(results: list[tuple[Output, dict[str, float]]], weights: list[float]) -> tuple[Output, dict[str, float]]:
    """Member results merged through :func:`combine`; none raises :class:`NoFeatureOverlap`."""
    if not results:
        raise NoFeatureOverlap("no ensemble member overlaps the example's features")
    merged = combine([Prediction(*result, 0, 0) for result in results], weights)
    return merged.output, merged.scores


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class EnsembleTrainer(Trainer):
    trainer_class = ENSEMBLE_TRAINER_CLASS

    def __init__(self, cfg: EnsembleConfig):
        super().__init__(cfg.seed)
        self.cfg = cfg

    def train_with_count(self, dataset: Dataset, count: int, user_info=None) -> EnsembleModel:
        cfg = self.cfg
        if cfg.variant == ADABOOST and dataset.task != CATEGORICAL:
            raise TaskMismatch("adaboost requires a classification dataset")

        base_count = cfg.base_trainer.reserve_invocations(cfg.num_members)
        trainer_prov = self.provenance_with_count(count, base_count)

        if cfg.variant == ADABOOST:
            members, member_weights = self._boost(dataset, base_count)
        else:
            members = self._bag(dataset, base_count)
            member_weights = [1.0 / cfg.num_members] * cfg.num_members

        prov = model_provenance(
            ENSEMBLE_MODEL_CLASS,
            trainer_provenance=trainer_prov,
            dataset_provenance=dataset.provenance,
            user_info=user_info,
            members=[m.provenance for m in members],
        )
        return EnsembleModel(
            f"ensemble-{cfg.variant}",
            prov,
            dataset.feature_domain,
            dataset.output_domain,
            members,
            member_weights,
        )

    def _bag(self, dataset: Dataset, base_count: int) -> list[Model]:
        cfg = self.cfg
        members = []
        for i in range(cfg.num_members):
            member_seed = splitmix64((self.seed + i) & MASK64)
            sample = bootstrap_sample(dataset, cfg.sample_fraction, cfg.with_replacement, member_seed)
            members.append(cfg.base_trainer.train_with_count(sample, base_count + i))
        return members

    def _boost(self, dataset: Dataset, base_count: int) -> tuple[list[Model], list[float]]:
        """SAMME: reweight the rows through their weight column, weight
        members by their alpha; each member scores the same columns.

        Stops early on a degenerate round: err >= 1 - 1/K discards the
        member and ends boosting; err == 0 keeps the member with a capped
        alpha and ends boosting (further rounds would not change weights).
        """
        cfg = self.cfg
        columns = dataset.columns
        n = len(dataset)
        labels = dataset.output_domain.labels()
        k = len(labels)
        log_k1 = math.log(k - 1) if k > 1 else 0.0
        truths = [labels[t] for t in columns.targets.tolist()]
        totals = np.diff(columns.indptr).tolist()
        weights = [1.0 / n] * n
        members: list[Model] = []
        alphas: list[float] = []

        for i in range(cfg.num_members):
            weighted = replace(dataset, columns=replace(columns, weights=np.array(weights)))
            member = cfg.base_trainer.train_with_count(weighted, base_count + i)
            predictions = member.predict_compiled(columns, totals)
            missed = [p.output.label != truth for p, truth in zip(predictions, truths)]
            err = _fold(w for w, m in zip(weights, missed) if m)

            if err >= 1 - 1 / k:
                break  # no better than chance: discard and stop
            if err == 0.0:
                members.append(member)
                alphas.append(10.0 + log_k1)
                break
            alpha = math.log((1 - err) / err) + log_k1
            members.append(member)
            alphas.append(alpha)
            scale = math.exp(alpha)
            weights = [w * scale if m else w for w, m in zip(weights, missed)]
            total = _fold(weights)
            weights = [w / total for w in weights]

        if not members:
            raise AllMembersRejected("every boosting round performed at or below chance")
        return members, alphas


def train_ensemble(dataset: Dataset, cfg: EnsembleConfig, user_info=None) -> EnsembleModel:
    """Train an ensemble with a fresh :class:`EnsembleTrainer`.

    Bagging and random-forest members are trained one after another; each
    depends only on its member seed and invocation count, so the result is
    the same in any order.  AdaBoost is inherently sequential.
    """
    trainer = EnsembleTrainer(cfg)
    count = trainer.reserve_invocations(1)
    return trainer.train_with_count(dataset, count, user_info=user_info)
