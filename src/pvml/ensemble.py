"""Bagging, random forests and multi-class AdaBoost over any base trainer.

Member i trains from the stream seeded by splitmix64(seed + i) with
invocation count base + i, where the block of counts starting at base is
reserved up front, so each member is exactly the model the base trainer
would build alone from those two numbers.  Ensemble provenance nests one
full model provenance per member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .core import (
    CATEGORICAL,
    REAL,
    CategoricalOutput,
    Columns,
    Dataset,
    Example,
    Model,
    Output,
    Prediction,
    RealOutput,
    Trainer,
    argmax_label,
    data_provenance,
    dataset_from_examples,
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
from .trees import CartTrainer, TreeModel

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
    example once, original order).  The sample's provenance wraps the
    original data provenance and records the member seed plus a hash of the
    drawn indices.
    """
    n_total = len(dataset.examples)
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

    examples = [dataset.examples[i] for i in indices]
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
    sampled = dataset_from_examples(examples, provenance=dataset.provenance)
    prov = data_provenance(len(examples), len(sampled.feature_domain), (), source)
    return Dataset(sampled.examples, sampled.feature_domain, sampled.output_domain, prov)


def _reweighted(dataset: Dataset, weights: Sequence[float]) -> Dataset:
    examples = tuple(
        Example(ex.features, ex.output, w) for ex, w in zip(dataset.examples, weights)
    )
    return Dataset(examples, dataset.feature_domain, dataset.output_domain, dataset.provenance)


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
    total = sum(weights)

    if task == REAL:
        value = sum(p.output.value * w for p, w in zip(predictions, weights)) / total
        return Prediction(RealOutput(value), {}, 0, 0)

    merged: dict[str, float] = {}
    for pred, weight in zip(predictions, weights):
        norm = sum(pred.scores.values())
        for label, score in pred.scores.items():
            share = score / norm if norm > 0 else 0.0
            merged[label] = merged.get(label, 0.0) + weight * share
    scores = {label: value / total for label, value in merged.items()}
    return Prediction(CategoricalOutput(argmax_label(scores)), scores, 0, 0)


class EnsembleModel(Model):
    """Weighted committee of trained members."""

    model_class = ENSEMBLE_MODEL_CLASS

    def __init__(
        self,
        name,
        provenance,
        feature_domain,
        output_domain,
        members: Sequence[Model],
        member_weights: Sequence[float],
    ):
        super().__init__(name, provenance, feature_domain, output_domain)
        if len(members) != len(member_weights):
            raise ValueError("need one weight per member")
        self.members = tuple(members)
        self.member_weights = tuple(member_weights)

    def _predict_intersected(self, example, sparse: Mapping[int, float]) -> tuple[Output, dict[str, float]]:
        preds, used_weights = [], []
        for member, weight in zip(self.members, self.member_weights):
            try:
                preds.append(member.predict(example))
            except NoFeatureOverlap:
                continue  # a member whose bootstrap never saw these features
            used_weights.append(weight)
        if not preds:
            raise NoFeatureOverlap("no ensemble member overlaps the example's features")
        merged = combine(preds, used_weights)
        return merged.output, merged.scores

    @cached_property
    def _member_ids(self) -> list[np.ndarray]:
        """Per member: the member's id of each feature id of the ensemble, or -1.

        A trained member's domain is a subset of the ensemble's, so these
        views hold every feature the member knows.
        """
        views = []
        for member in self.members:
            ids = np.full(len(self.feature_domain), -1, dtype=np.int32)
            for name, info in member.feature_domain.items():
                parent = self.feature_domain.id_of(name)
                if parent is not None:
                    ids[parent] = info.id
            views.append(ids)
        return views

    def _score_compiled(self, columns: Columns) -> list[tuple[Output, dict[str, float]] | None]:
        """Each member scores the rows it overlaps through a view of the
        columns.  When every member regresses, the weighted values add up as
        arrays in member order, the order :func:`combine` adds them in, so
        the means are equal bit for bit; otherwise each row's member results
        merge through :func:`combine`.
        """
        n = len(columns.indptr) - 1
        rows = np.repeat(np.arange(n), np.diff(columns.indptr))
        regression = all(member.task == REAL for member in self.members)
        acc, total, used = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
        per_row: list[tuple[list[Prediction], list[float]]] = [([], []) for _ in range(n)]
        for member, weight, ids in zip(self.members, self.member_weights, self._member_ids):
            member_ids = ids.take(columns.feature_ids)
            keep = member_ids >= 0
            counts = np.bincount(rows[keep], minlength=n)
            overlap = np.flatnonzero(counts)  # a member that overlaps no feature of a row skips it
            indptr = np.zeros(len(overlap) + 1, dtype=np.int64)
            np.cumsum(counts[overlap], out=indptr[1:])
            view = Columns(indptr, member_ids[keep], columns.values[keep], columns.targets, columns.weights[overlap])
            if regression:
                ok, values = _regression_values(member, view)
                at = overlap[ok]
                acc[at] += values[ok] * weight
                total[at] += weight
                used[at] = True
                continue
            for r, result in zip(overlap.tolist(), member._score_compiled(view)):
                if result is not None:
                    per_row[r][0].append(Prediction(*result, 0, 0))
                    per_row[r][1].append(weight)
        if regression:
            with np.errstate(all="ignore"):
                means = (acc / total).tolist()
            return [(RealOutput(v), {}) if u else None for v, u in zip(means, used.tolist())]
        merged = [combine(preds, weights) if preds else None for preds, weights in per_row]
        return [None if m is None else (m.output, m.scores) for m in merged]


def _regression_values(member: Model, view: Columns) -> tuple[np.ndarray, np.ndarray]:
    """Which rows of ``view`` a regressing member scores, and its values there.

    A tree looks up the leaf each row reaches; any other member scores
    through its own :meth:`Model._score_compiled`.
    """
    if isinstance(member, TreeModel):
        return np.ones(len(view.indptr) - 1, dtype=bool), member.leaf_values.take(member.leaves_of(view))
    results = member._score_compiled(view)
    ok = np.array([result is not None for result in results], dtype=bool)
    return ok, np.array([result[0].value if result is not None else 0.0 for result in results], dtype=np.float64)


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
        """SAMME: reweight examples, weight members by their alpha.

        Stops early on a degenerate round: err >= 1 - 1/K discards the
        member and ends boosting; err == 0 keeps the member with a capped
        alpha and ends boosting (further rounds would not change weights).
        """
        cfg = self.cfg
        n = len(dataset.examples)
        k = len(dataset.output_domain.labels())
        log_k1 = math.log(k - 1) if k > 1 else 0.0
        weights = [1.0 / n] * n
        members: list[Model] = []
        alphas: list[float] = []

        for i in range(cfg.num_members):
            member = cfg.base_trainer.train_with_count(_reweighted(dataset, weights), base_count + i)
            predictions = member.predict_batch(dataset.examples)
            missed = [p.output.label != ex.output.label for p, ex in zip(predictions, dataset.examples)]
            err = sum(w for w, m in zip(weights, missed) if m)

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
            total = sum(weights)
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
