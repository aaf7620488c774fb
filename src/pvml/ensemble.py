"""Bagging, random forests and multi-class AdaBoost over any base trainer.

Member i trains from the stream seeded by splitmix64(seed + i) with
invocation count base + i, where the block of counts starting at base is
reserved up front, so each member is exactly the model the base trainer
would build alone from those two numbers.  Ensemble provenance nests one
full model provenance per member, and each member's feature domain is the
ensemble's restricted to the member's features.
"""

from __future__ import annotations

import math
import struct
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
    ScoreTable,
    Trainer,
    _fold,
    argmax_label,
    dataset_from_columns,
    feature_ids,
    model_provenance,
    output_task,
)
from .errors import AllMembersRejected, EmptySource, InconsistentTask, NoFeatureOverlap, TaskMismatch
from .provenance import (
    PBool,
    PFlt,
    PHash,
    PInt,
    _TAG_INT,
    _TAG_LIST,
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
        indices = [(u * n_total) >> 64 for u in rng.u64s(n_draw)]
    elif n_draw == n_total:
        indices = list(range(n_total))
    else:
        indices = rng.sample_prefix(n_total, n_draw)

    rows = np.array(indices, dtype=np.intp)
    indices_hash = sha256_hex(_index_list_encoding(rows))
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
    sample = dataset.columns.take(rows)
    present, local = np.unique(sample.feature_ids, return_inverse=True)
    labels = dataset.output_domain.labels() if dataset.task == CATEGORICAL else None
    columns = replace(sample, feature_ids=local.astype(np.int32))
    return dataset_from_columns(dataset.feature_domain.subset(present), columns, labels, source)


def _index_list_encoding(indices: np.ndarray) -> bytes:
    """``canonical_encode(PList(tuple(PInt(i) for i in indices)))``, with no PInt built."""
    cells = np.empty(len(indices), dtype=[("tag", "u1"), ("value", ">i8")])  # packed, as an encoded PInt
    cells["tag"], cells["value"] = _TAG_INT[0], indices
    return _TAG_LIST + struct.pack(">I", len(indices)) + cells.tobytes()


# ---------------------------------------------------------------------------
# Combination
# ---------------------------------------------------------------------------

def combine(predictions: Sequence[Prediction], weights: Sequence[float]) -> Prediction:
    """Merge member predictions: weighted vote or weighted mean.

    Classification score vectors are normalized to sum 1 per member before
    averaging so heterogeneous members mix sanely.  Feature-use counters
    are zeroed; the calling model substitutes its own.  The scores hold the
    labels the members score, in the order they first appear, and so does
    the argmax; an :class:`EnsembleModel`'s hold every label of its domain.
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
    pointer offset; ``roots`` holds each member's first row.  ``table``
    holds each row's part in the merge, from ``tables``, one per member, and
    ``rows`` holds it as Python floats."""

    def __init__(self, members: Sequence[TreeModel], index: Mapping[str, int], tables: Sequence[np.ndarray]):
        self.nodes, self.roots, self.known = [], [], []
        self.mask = np.zeros((len(members), len(index)), dtype=bool)  # the ids each member knows, as ``known``
        for m, member in enumerate(members):
            ids, base = [index[name] for name in member.feature_domain.names()], len(self.nodes)
            self.roots.append(base)
            self.known.append(frozenset(ids))
            self.mask[m, ids] = True
            self.nodes += [LEAF if a < 0 else (ids[f], t, base + a, base + b) for f, t, a, b in member.nodes]
        self.arrays = tuple(map(np.array, zip(*self.nodes)))
        self.table = np.concatenate(tables)
        self.rows = self.table.tolist()


class EnsembleModel(Model):
    """Weighted committee of trained members.  An ensemble of trees scores
    through its forest table, :attr:`_forest`; any other asks each member
    for its score table.  Either way a member that knows none of a row's
    features skips the row, and the rest merge as :func:`combine` does, bit
    for bit, but into every label in label order, 0.0 where no member scores
    it: the first maximum wins, so a row of zero shares goes to the smallest."""

    model_class = ENSEMBLE_MODEL_CLASS

    def __init__(self, name, provenance, feature_domain, output_domain, members: Sequence[Model], member_weights):
        super().__init__(name, provenance, feature_domain, output_domain)
        if not members or len(members) != len(member_weights):
            raise ValueError("need at least one member, and one weight per member")
        if not all(0.0 < w < math.inf for w in member_weights):
            raise ValueError("member weights must be finite and greater than 0")
        outside = {name for member in members for name in member.feature_domain.names()}.difference(feature_domain.ids)
        if outside:
            raise ValueError(f"member features {sorted(outside)!r} are outside the ensemble's domain")
        if any(member.task != self.task for member in members):
            raise ValueError(f"a member's task differs from the ensemble's, {self.task}")
        outside = {label for member in members for label in member.labels}.difference(self.labels)
        if outside:
            raise ValueError(f"member labels {sorted(outside)!r} are outside the ensemble's output domain")
        self.members = tuple(members)
        self.member_weights = tuple(member_weights)

    @cached_property
    def _forest(self) -> _Forest | None:
        """The forest table, built once, or None unless every member is a :class:`TreeModel`."""
        if not all(isinstance(member, TreeModel) for member in self.members):
            return None
        tables = [self._shares(member, member.leaf_table.scores) for member in self.members]
        return _Forest(self.members, self.feature_domain.ids, tables)

    def _shares(self, member: Model, scores: np.ndarray) -> np.ndarray:
        """A member's score table as the merge adds it up: a regression's as
        one column, a classification's placed in the ensemble's label columns
        and divided by each row's sum, or 0.0 where that sum is not above 0,
        as :func:`combine` takes each member's share."""
        if self.task == REAL:
            return scores.reshape(-1, 1)
        norm = _fold(scores.T)[:, None]  # column by column, as combine folds: numpy's sum reorders 8 terms or more
        position = dict(zip(self.labels, range(len(self.labels))))
        placed = np.zeros((len(scores), len(self.labels)))
        placed[:, [position[label] for label in member.labels]] = scores
        return np.divide(placed, norm, out=np.zeros_like(placed), where=norm > 0)

    def _predict_intersected(self, sparse: Mapping[int, float]) -> tuple[Output, dict[str, float]]:
        """Walk the forest table from the root of each member that knows a
        feature of ``sparse``, in member order, and fold the leaf rows it
        reaches as :meth:`_score_compiled` adds them up; any other ensemble
        scores ``sparse`` as one compiled row."""
        forest, rows, used = self._forest, [], []
        if forest is None:
            ids, values = zip(*sorted(sparse.items()))  # in id order, as a compiled row
            row = Columns(np.array([0, len(ids)]), np.array(ids, dtype=np.int32), np.array(values), np.empty(0), np.ones(1))
            scored = self._score_compiled(row)
            if scored.outputs[0] is None:
                raise NoFeatureOverlap("no ensemble member overlaps the example's features")
            return scored.outputs[0], scored.score_maps(self.labels)[0]
        for root, known, weight in zip(forest.roots, forest.known, self.member_weights):
            if not known.isdisjoint(sparse):
                rows.append(forest.rows[walk(forest.nodes, sparse, root)])
                used.append(weight)
        if not used:
            raise NoFeatureOverlap("no ensemble member overlaps the example's features")
        total = _fold(used)
        scores = [_fold(row[j] * w for row, w in zip(rows, used)) / total for j in range(len(rows[0]))]
        if self.task == REAL:
            return RealOutput(scores[0]), {}
        return self._label_outputs[scores.index(max(scores))], dict(zip(self.labels, scores))

    @cached_property
    def _member_ids(self) -> list[np.ndarray]:
        """Per member: the member's id of each feature id of the ensemble, or -1."""
        return [feature_ids(member.feature_domain.ids, self.feature_domain.names()) for member in self.members]

    def _score_compiled(self, columns: Columns) -> ScoreTable:
        """Each member's rows of :meth:`_shares` times its weight, added up in
        member order and divided by the total weight of the members that
        score each row: :func:`combine`'s float operations, bit for bit."""
        n = len(columns.indptr) - 1
        merged, total = np.zeros((n, max(len(self.labels), 1))), np.zeros(n)  # a regression's one column
        for weight, at, rows in self._member_results(columns):
            merged[at] += weight * rows
            total[at] += weight
        with np.errstate(invalid="ignore"):  # 0 / 0 in the rows no member scores
            merged /= total[:, None]
        scored = (total > 0).tolist()
        if self.task == REAL:
            return ScoreTable([RealOutput(v) if s else None for v, s in zip(merged[:, 0].tolist(), scored)], merged[:, 0])
        best = merged.argmax(axis=1).tolist()
        return ScoreTable([self._label_outputs[i] if s else None for i, s in zip(best, scored)], merged)

    def _member_results(self, columns: Columns):
        """Per member, in order: its weight, the rows it scores and its rows
        of :meth:`_shares` there.  The forest table descends all (member,
        row) pairs at once, on these columns; any other ensemble hands each
        member a view in its ids."""
        forest = self._forest
        if forest is not None:  # reduceat needs each row to have an entry, as score_compiled ensures
            overlap = np.logical_or.reduceat(forest.mask[:, columns.feature_ids], columns.indptr[:-1], axis=1)
            member, at = overlap.nonzero()  # member by member, rows ascending
            leaves = descend(forest.arrays, columns, len(self.feature_domain), np.take(forest.roots, member), at)
            table, ends = forest.table.take(leaves, axis=0), np.cumsum(overlap.sum(axis=1)).tolist()
            for weight, start, end in zip(self.member_weights, [0, *ends], ends):
                yield weight, at[start:end], table[start:end]
            return
        n = len(columns.indptr) - 1
        rows = np.repeat(np.arange(n), np.diff(columns.indptr))
        for member, weight, ids in zip(self.members, self.member_weights, self._member_ids):
            member_ids = ids.take(columns.feature_ids)
            keep = member_ids >= 0
            counts = np.bincount(rows[keep], minlength=n)
            overlap = np.flatnonzero(counts)  # a member that overlaps no feature of a row skips it
            indptr = np.zeros(len(overlap) + 1, dtype=np.int64)
            np.cumsum(counts[overlap], out=indptr[1:])
            view = Columns(indptr, member_ids[keep], columns.values[keep], columns.targets, columns.weights[overlap])
            scored = member._score_compiled(view)
            ok = np.flatnonzero([output is not None for output in scored.outputs])  # a nested ensemble may reject a row
            yield weight, overlap.take(ok), self._shares(member, scored.scores.take(ok, axis=0))


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
        """The members, trained by the base trainer from bootstrap samples
        drawn one by one as it takes them."""
        cfg = self.cfg
        samples = (
            bootstrap_sample(dataset, cfg.sample_fraction, cfg.with_replacement, splitmix64((self.seed + i) & MASK64))
            for i in range(cfg.num_members)
        )
        return cfg.base_trainer.train_many(samples, range(base_count, base_count + cfg.num_members))

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
        weights = [1.0 / n] * n
        members: list[Model] = []
        alphas: list[float] = []

        for i in range(cfg.num_members):
            weighted = replace(dataset, columns=replace(columns, weights=np.array(weights)))
            member = cfg.base_trainer.train_with_count(weighted, base_count + i)
            outputs = member.score_compiled(columns).outputs
            missed = [output.label != truth for output, truth in zip(outputs, truths)]
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

    Bagging and random-forest members are handed to the base trainer
    through :meth:`Trainer.train_many`, their bootstrap samples drawn as it
    takes them: a tree trainer grows runs of them in lockstep, within a
    memory bound, any other trains them one after another.  Each
    depends only on its member seed and invocation count, so the result is
    the same in any order.  AdaBoost is inherently sequential.
    """
    trainer = EnsembleTrainer(cfg)
    count = trainer.reserve_invocations(1)
    return trainer.train_with_count(dataset, count, user_info=user_info)
