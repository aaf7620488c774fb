"""Core domain types: examples, domains, datasets, models, predictions.

Features are named, sparse and validated; datasets are immutable and carry
their own provenance; models embed the provenance and the exact feature and
output domains they were trained over, and enforce the inference-time
contract (unknown features dropped, no-overlap rejected, out-of-range
values flagged).
"""

from __future__ import annotations

import math
import operator
import platform
import re
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import cache, cached_property, reduce
from itertools import repeat
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, get_args, get_type_hints

import numpy as np

from ._version import __version__
from .errors import (
    EmptyExample,
    EmptyScores,
    EmptySource,
    InvalidFeatureName,
    MissingProperty,
    MixedOutputTypes,
    NoFeatureOverlap,
    NonFiniteFeature,
    NonFiniteStatistic,
    OutputTypeMismatch,
    ParseError,
    UnknownClass,
    UnlabelledExample,
)
from .provenance import (
    PBool,
    PFlt,
    PInt,
    PList,
    PMap,
    PObj,
    PStr,
    ProvValue,
    config_fields,
    object_provenance,
    timestamp_now,
)
from .rng import MASK64, splitmix64, to_signed64, to_unsigned64

CATEGORICAL = "categorical"
REAL = "real"

DATASET_CLASS = "pvml.Dataset"


_CONTROL_CHARACTER = re.compile(r"[\x00-\x1f\x7f-\x9f]")


def check_feature_name(name: str) -> None:
    """Raise :class:`InvalidFeatureName` for an empty name or one holding a control character."""
    if not name:
        raise InvalidFeatureName("feature names must be non-empty")
    if _CONTROL_CHARACTER.search(name):
        raise InvalidFeatureName(f"feature name {name!r} contains control characters")


def check_feature_names(names: Sequence[str]) -> None:
    """:func:`check_feature_name` of each of ``names``, in order.  One pass over
    them all clears the usual case: a printable string holds no control
    character."""
    if not (all(names) and "".join(names).isprintable()):
        for name in names:
            check_feature_name(name)


@dataclass(frozen=True)
class FeatureValue:
    """One named feature observation."""

    name: str
    value: float

    def __post_init__(self):
        check_feature_name(self.name)
        if not math.isfinite(self.value):
            raise NonFiniteFeature(f"feature {self.name!r} has non-finite value {self.value!r}")


@dataclass(frozen=True)
class CategoricalOutput:
    label: str


@dataclass(frozen=True)
class RealOutput:
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("regression targets must be finite")


class UnknownOutput:
    """Absent ground truth; a shared singleton, see :data:`UNKNOWN`."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNKNOWN"


UNKNOWN = UnknownOutput()

Output = CategoricalOutput | RealOutput | UnknownOutput


def output_task(output: Output) -> str | None:
    """Task tag of an output value, or None when ground truth is absent."""
    if isinstance(output, CategoricalOutput):
        return CATEGORICAL
    if isinstance(output, RealOutput):
        return REAL
    return None


@dataclass(frozen=True)
class Example:
    """A sparse, name-sorted feature bundle with optional ground truth.

    Construct via :func:`make_example` to get duplicate merging; direct
    construction validates but does not normalize.
    """

    features: tuple[FeatureValue, ...]
    output: Output = UNKNOWN
    weight: float = 1.0

    def __post_init__(self):
        if not self.features:
            raise EmptyExample("an example needs at least one feature")
        names = [f.name for f in self.features]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("features must be sorted by name without duplicates")
        if not (self.weight > 0 and math.isfinite(self.weight)):
            raise ValueError("example weight must be a positive finite float")

    def as_dict(self) -> dict[str, float]:
        return {f.name: f.value for f in self.features}


def make_example(
    pairs: Iterable[tuple[str, float]],
    output: Output = UNKNOWN,
    weight: float = 1.0,
) -> Example:
    """Build an example from (name, value) pairs.

    Pairs are sorted by name; duplicate names merge by summing their values,
    so order of the input never matters.
    """
    merged: dict[str, float] = {}
    for name, value in pairs:
        value = float(value)
        if not math.isfinite(value):
            raise NonFiniteFeature(f"feature {name!r} has non-finite value {value!r}")
        merged[name] = merged.get(name, 0.0) + value
    if not merged:
        raise EmptyExample("an example needs at least one feature")
    features = tuple(FeatureValue(name, merged[name]) for name in sorted(merged))
    return Example(features, output, weight)


def checked_example(
    names: Sequence[str], values: Sequence[float], output: Output, weight: float = 1.0
) -> Example:
    """The example of features already validated: ``names`` non-empty, sorted,
    distinct and passed by :func:`check_feature_name`, ``values`` finite,
    ``weight`` positive and finite.

    Used by featurizers that check each distinct name once rather than once
    per occurrence; the fields are set as the frozen dataclasses' own
    ``__init__`` sets them, without the validation in ``__post_init__``.
    (Writing to ``__dict__`` instead is quicker here, but makes every later
    attribute read of the objects slower.)
    """
    new, put = object.__new__, object.__setattr__
    features = []
    for name, value in zip(names, values):
        feature = new(FeatureValue)
        put(feature, "name", name)
        put(feature, "value", value)
        features.append(feature)
    example = new(Example)
    put(example, "features", tuple(features))
    put(example, "output", output)
    put(example, "weight", weight)
    return example


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

class FeatureDomain:
    """The named feature space a dataset or model was built over, by column.

    ``names`` are sorted and distinct, so a feature's id is its position.
    ``count`` (int64) and ``min``, ``max``, ``mean`` and ``variance``
    (float64, population variance) are read-only arrays indexed by id.
    """

    STATISTICS = ("min", "max", "mean", "variance")

    def __init__(self, names: Sequence[str], count, min, max, mean, variance):
        names = tuple(names)
        if names != tuple(sorted(set(names))):
            raise ValueError("feature names must be sorted and distinct")
        self._names = names
        self.count = _column(count, np.int64, len(names))
        self.min, self.max, self.mean, self.variance = (
            _column(stat, np.float64, len(names)) for stat in (min, max, mean, variance)
        )

    @classmethod
    def observed(cls, names: Sequence[str], ids: np.ndarray, values: np.ndarray) -> "FeatureDomain":
        """The domain of the features ``names``, each of which ``values`` holds,
        with feature ids ``ids``: one :class:`_RunningStats` per feature over its
        values in order, grouped by a stable sort on id.  A feature whose values
        all have the same bits ``v`` takes Welford's result in closed form:
        ``min = max = v``, ``mean = v + 0.0`` (its first step turns ``-0.0``
        into ``0.0``) and variance 0.0."""
        order = np.argsort(ids, kind="stable")
        grouped, grouped_ids = values.take(order), ids.take(order)
        count = np.bincount(ids, minlength=len(names))
        ends = np.cumsum(count)
        starts = ends - count
        bits, same_feature = grouped.view(np.int64), grouped_ids[1:] == grouped_ids[:-1]
        varies = np.bincount(grouped_ids[1:][same_feature & (bits[1:] != bits[:-1])], minlength=len(names))
        constant = (count > 0) & (varies == 0)
        lo = np.zeros(len(names))
        lo[constant] = grouped[starts[constant]]
        hi, mean, variance = lo.copy(), lo + 0.0, np.zeros(len(names))
        for f in np.flatnonzero(~constant).tolist():
            s = _RunningStats(grouped[starts[f]:ends[f]].tolist())
            lo[f], hi[f], mean[f], variance[f] = s.min, s.max, s.mean, s.variance
        return cls(names, count, lo, hi, mean, variance)

    def subset(self, ids: np.ndarray) -> "FeatureDomain":
        """The features with the ascending ids ``ids``, with these statistics."""
        names = [self._names[i] for i in ids.tolist()]
        return FeatureDomain(names, *(getattr(self, key).take(ids) for key in ("count", *self.STATISTICS)))

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self.ids

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FeatureDomain)
            and self._names == other._names
            and all(np.array_equal(getattr(self, key), getattr(other, key)) for key in ("count", *self.STATISTICS))
        )

    def names(self) -> tuple[str, ...]:
        return self._names

    @cached_property
    def ids(self) -> dict[str, int]:
        """Feature id by name, built once."""
        return dict(zip(self._names, range(len(self._names))))

    @cached_property
    def bounds(self) -> tuple[list[float], list[float]]:
        """``min`` and ``max`` as lists of Python floats, built once: a float
        compares faster than a numpy scalar."""
        return self.min.tolist(), self.max.tolist()


def _column(values, dtype, length: int) -> np.ndarray:
    """``values`` as a new read-only 1-d array of ``dtype``, which must hold ``length`` entries."""
    column = np.array(values, dtype=dtype)
    if column.shape != (length,):
        raise ValueError(f"a feature statistic of shape {column.shape} does not match {length} names")
    column.flags.writeable = False
    return column


class _RunningStats:
    """Welford count/min/max/mean/population-variance of ``values`` in order; of
    equal values min and max keep the first, as Python's ``min`` and ``max`` do."""

    __slots__ = ("count", "min", "max", "mean", "variance")

    def __init__(self, values: Iterable[float]):
        count, mean, m2, lo, hi = 0, 0.0, 0.0, math.inf, -math.inf
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value < lo:
                lo = value
            if value > hi:
                hi = value
        self.count, self.min, self.max, self.mean = count, lo, hi, mean
        self.variance = m2 / count if count else 0.0


@dataclass(frozen=True)
class CategoricalDomain:
    """Label universe with per-label example counts."""

    counts: dict[str, int]

    @property
    def task(self) -> str:
        return CATEGORICAL

    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(self.counts))


@dataclass(frozen=True)
class RealDomain:
    """Target statistics of a regression dataset."""

    min: float
    max: float
    mean: float
    variance: float
    count: int

    @property
    def task(self) -> str:
        return REAL


OutputDomain = CategoricalDomain | RealDomain


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows stored once, as :class:`Columns`, plus domains plus data provenance;
    :attr:`examples` builds the rows as examples on request."""

    columns: Columns
    feature_domain: FeatureDomain
    output_domain: OutputDomain
    provenance: PObj

    @property
    def task(self) -> str:
        return self.output_domain.task

    def __len__(self) -> int:
        return len(self.columns.weights)

    def outputs(self) -> list[Output]:
        """Each row's output, from its target: a label of the output domain or a real value."""
        targets = self.columns.targets.tolist()
        if self.task == REAL:
            return list(map(RealOutput, targets))
        labels = self.output_domain.labels()
        return [CategoricalOutput(labels[t]) for t in targets]

    @cached_property
    def examples(self) -> tuple[Example, ...]:
        """The rows as examples, built from the columns on first use."""
        names, columns = self.feature_domain.names(), self.columns
        ids, values, bounds = columns.feature_ids.tolist(), columns.values.tolist(), columns.indptr.tolist()
        return tuple(
            checked_example([names[i] for i in ids[a:b]], values[a:b], output, weight)
            for a, b, output, weight in zip(bounds, bounds[1:], self.outputs(), columns.weights.tolist())
        )


@dataclass(frozen=True, eq=False)
class Columns:
    """Rows compiled to arrays against a feature domain.

    Row ``i`` holds the features ``feature_ids[indptr[i]:indptr[i + 1]]``
    with ``values`` alongside, in name order; absent features read as 0.0.
    ``targets`` are label indices into the sorted labels for
    classification and target values for regression.
    """

    indptr: np.ndarray  # int64, one more than the rows
    feature_ids: np.ndarray  # int32
    values: np.ndarray  # float64
    targets: np.ndarray  # intp label indices, or float64 targets
    weights: np.ndarray  # float64

    def take(self, rows: np.ndarray) -> Columns:
        """The rows ``rows`` of these columns, in that order, repeats included."""
        starts = self.indptr.take(rows)
        lengths = self.indptr.take(rows + 1) - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        flat = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        targets, weights = self.targets.take(rows), self.weights.take(rows)
        return Columns(indptr, self.feature_ids.take(flat), self.values.take(flat), targets, weights)


def _flatten(examples: Sequence[Example]) -> tuple[list[str], np.ndarray, list[int], list[Output], np.ndarray]:
    """The examples' feature names and values, flat, and each one's feature count, output and weight."""
    return (
        [f.name for ex in examples for f in ex.features],
        np.array([f.value for ex in examples for f in ex.features], dtype=np.float64),
        [len(ex.features) for ex in examples],
        [ex.output for ex in examples],
        np.array([ex.weight for ex in examples], dtype=np.float64),
    )


def _targets(outputs: Sequence[Output], labels: Sequence[str] | None) -> np.ndarray:
    """Each output's label index into ``labels`` or, without ``labels``, its real value."""
    if labels is None:
        return np.array([output.value for output in outputs], dtype=np.float64)
    position = dict(zip(labels, range(len(labels))))
    return np.array([position[output.label] for output in outputs], dtype=np.intp)


def compile_examples(
    examples: Sequence[Example],
    domain: FeatureDomain,
    labels: Sequence[str] | None = None,
    targets: bool = True,
) -> Columns:
    """Map feature names to ids once, dropping names outside ``domain``.

    With ``labels``, the targets are each example's label index into them;
    without, each example's real-valued target.  With ``targets`` false the
    outputs are not read, so unlabelled examples compile, and ``targets``
    is empty.
    """
    names, values, lengths, outputs, weights = _flatten(examples)
    indptr, ids, values = compile_features(feature_ids(domain.ids, names), values, lengths)
    return Columns(indptr, ids, values, _targets(outputs, labels) if targets else np.empty(0), weights)


def feature_ids(index: Mapping[str, int], names: Sequence[str]) -> np.ndarray:
    """Each of ``names``' id in ``index``, such as :attr:`FeatureDomain.ids`, or -1 outside it."""
    return np.fromiter(map(index.get, names, repeat(-1)), dtype=np.int32, count=len(names))


def compile_features(
    ids: np.ndarray, values: np.ndarray, lengths: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, feature_ids, values)`` of rows given flat: row ``i`` holds the
    next ``lengths[i]`` of ``ids`` and ``values``, in name order.  A negative id,
    a name outside the domain, is dropped with its value.
    """
    lengths = np.array(lengths, dtype=np.int64)
    known = ids >= 0
    if not known.all():
        rows = np.repeat(np.arange(len(lengths)), lengths)
        ids, values = ids[known], values[known]
        lengths = np.bincount(rows[known], minlength=len(lengths))
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr, ids, values


def data_provenance(
    num_examples: int,
    num_features: int,
    transformations: Sequence[PObj],
    source: PObj,
) -> PObj:
    return object_provenance(
        DATASET_CLASS,
        config={},
        instance={
            "num-examples": PInt(num_examples),
            "num-features": PInt(num_features),
            "transformations": PList(tuple(transformations)),
            "source": source,
        },
    )


def dataset_from_columns(
    feature_domain: FeatureDomain, columns: Columns, labels: Sequence[str] | None, source: PObj
) -> Dataset:
    """A dataset of ``columns`` over ``feature_domain`` with fresh provenance recording ``source``.

    Feature ids index the domain, each of them used.  Targets index
    ``labels``, re-indexed to the labels hit, or are regression targets.
    """
    targets = columns.targets
    if labels is None:
        output_domain: OutputDomain = real_domain(targets.tolist())
    else:
        hit, targets = np.unique(targets, return_inverse=True)
        counts = np.bincount(targets).tolist()
        output_domain = CategoricalDomain({labels[i]: n for i, n in zip(hit.tolist(), counts)})
    prov = data_provenance(len(targets), len(feature_domain), (), source)
    return Dataset(replace(columns, targets=targets), feature_domain, output_domain, prov)


def real_domain(targets: Iterable[float]) -> RealDomain:
    """The statistics of regression targets.

    Raises :class:`NonFiniteStatistic` when their variance, or their spread
    squared, overflows: the variance of some tree node would then overflow
    in training.
    """
    stats = _RunningStats(targets)
    spread = stats.max - stats.min
    if not (math.isfinite(stats.variance) and math.isfinite(spread * spread)):
        raise NonFiniteStatistic(
            f"regression targets from {stats.min!r} to {stats.max!r} are too far apart: their variance overflows"
        )
    return RealDomain(stats.min, stats.max, stats.mean, stats.variance, stats.count)


def build_dataset(source) -> Dataset:
    """Materialize a data source into a dataset with fresh provenance.

    The source has a ``provenance`` attribute.  One with a ``blocks`` method,
    a :class:`~pvml.data.CsvDataSource`, hands over its rows as one
    :class:`~pvml.data.Block`, whose sorted vocabulary becomes the feature
    names, and builds no example; any other is an iterable of examples.
    Statistics use population variance (divisor = count).
    """
    blocks = getattr(source, "blocks", None)
    if blocks is None:
        names, values, lengths, outputs, weights = _flatten(tuple(source))
        vocabulary = sorted(set(names))
        ids = feature_ids(dict(zip(vocabulary, range(len(vocabulary)))), names)
    else:
        # every row in one block; an empty file gives none
        vocabulary, _, ids, values, lengths, outputs = next(blocks(len(source) or 1), ((), None, None, None, [], []))
        weights = np.ones(len(lengths))
    if not lengths:
        raise EmptySource("data source yielded no examples")
    tasks = set(map(output_task, outputs))
    if None in tasks:
        raise UnlabelledExample("datasets require ground truth on every example")
    if len(tasks) != 1:
        raise MixedOutputTypes("source mixes categorical and real outputs")
    labels = sorted({output.label for output in outputs}) if tasks.pop() == CATEGORICAL else None
    indptr, ids, values = compile_features(ids, values, lengths)
    columns = Columns(indptr, ids, values, _targets(outputs, labels), weights)
    domain = FeatureDomain.observed(vocabulary, ids, values)
    return dataset_from_columns(domain, columns, labels, source.provenance)


# ---------------------------------------------------------------------------
# Predictions and models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prediction:
    output: Output
    scores: dict[str, float]
    features_used: int
    features_total: int
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.features_used > self.features_total:
            raise ValueError("features_used cannot exceed features_total")


def _fold(values: Iterable[float]) -> float:
    """``values`` added one by one from 0.0, left to right: a sum whose bits
    do not depend on the Python version (builtin ``sum`` compensates floats
    from 3.12 on)."""
    return reduce(operator.add, values, 0.0)


def argmax_label(scores: Mapping[str, float]) -> str:
    """Label with the maximum score; ties go to the lexicographically smallest."""
    if not scores:
        raise EmptyScores("cannot take the argmax of an empty score map")
    best_label = None
    best_score = -math.inf
    for label in sorted(scores):
        if scores[label] > best_score:
            best_label, best_score = label, scores[label]
    return best_label


def model_provenance(
    model_class: str,
    trainer_provenance: PObj,
    dataset_provenance: PObj,
    user_info: Mapping[str, str] | None = None,
    members: Sequence[PObj] | None = None,
) -> PObj:
    """Assemble the provenance embedded in every trained model."""
    instance: dict[str, ProvValue] = {
        "data": dataset_provenance,
        "trained-at": timestamp_now(),
        "os-name": PStr(platform.system()),
        "architecture": PStr(platform.machine()),
        "library-version": PStr(__version__),
        "user-info": PMap({k: PStr(v) for k, v in (user_info or {}).items()}),
    }
    if members is not None:
        instance["members"] = PList(tuple(members))
    return object_provenance(model_class, config={"trainer": trainer_provenance}, instance=instance)


class Model(ABC):
    """A trained predictor bound to the domains it was trained on.

    Subclasses implement :meth:`_predict_intersected` over the id-indexed
    sparse vector; this base class owns the runtime checks shared by every
    model: unknown features are dropped, an empty intersection raises, and
    values outside the training range produce named warnings.  Every
    scoring method takes model-space values, as the trainer saw them; raw
    data enters model space in :mod:`pvml.data`, through the recorded pipeline.
    """

    model_class: str = "pvml.Model"

    def __init__(
        self,
        name: str,
        provenance: PObj,
        feature_domain: FeatureDomain,
        output_domain: OutputDomain,
    ):
        if provenance is None:
            raise ValueError("models must carry provenance")
        self.name = name
        self.provenance = provenance
        self.feature_domain = feature_domain
        self.output_domain = output_domain

    @property
    def task(self) -> str:
        return self.output_domain.task

    def predict(self, example: Example, expected_task: str | None = None) -> Prediction:
        if expected_task is not None and expected_task != self.task:
            raise OutputTypeMismatch(
                f"model performs {self.task} prediction, caller asked for {expected_task}"
            )
        index, (lo, hi) = self.feature_domain.ids, self.feature_domain.bounds
        sparse: dict[int, float] = {}
        warnings: list[str] = []
        for f in example.features:
            fid = index.get(f.name)
            if fid is None:
                continue  # unseen features are dropped, not errors
            value = sparse[fid] = f.value
            if value < lo[fid] or value > hi[fid]:
                warnings.append(f"out-of-range:{f.name}")
        if not sparse:
            raise NoFeatureOverlap(
                "example shares no features with the model's training domain"
            )
        output, scores = self._predict_intersected(sparse)
        return Prediction(
            output=output,
            scores=scores,
            features_used=len(sparse),
            features_total=len(example.features),
            warnings=tuple(warnings),
        )

    def predict_batch(self, examples: Sequence[Example]) -> list[Prediction]:
        """Score many examples at once, as ``[self.predict(x) for x in examples]`` would.

        The examples are compiled once against the model's domain; their
        outputs are not read.  A row that shares no feature with the model
        raises :class:`NoFeatureOverlap` for the whole batch.
        """
        examples = tuple(examples)
        columns = compile_examples(examples, self.feature_domain, targets=False)
        return self.predict_compiled(columns, [len(ex.features) for ex in examples])

    def predict_compiled(self, columns: Columns, features_total: Sequence[int]) -> list[Prediction]:
        """Score rows already compiled against the model's domain, as
        :meth:`predict_batch` scores the examples they were compiled from,
        through :meth:`score_compiled`.  ``features_total`` holds each row's
        feature count before names outside the domain were dropped.
        """
        scored, warnings = self.score_compiled(columns), self._range_warnings(columns)
        maps = scored.score_maps(self.output_domain.labels() if self.task == CATEGORICAL else ())
        used = np.diff(columns.indptr).tolist()
        return [
            Prediction(output, scores, n_used, n_total, warnings.get(i, ()))
            for i, (output, scores, n_used, n_total) in enumerate(zip(scored.outputs, maps, used, features_total))
        ]

    def score_compiled(self, columns: Columns) -> ScoreTable:
        """The :class:`ScoreTable` of rows compiled against the model's domain.
        A row that shares no feature with the model, or that the model
        rejects, raises :class:`NoFeatureOverlap` for the whole batch."""
        if not np.diff(columns.indptr).all():
            raise NoFeatureOverlap("an example shares no features with the model's training domain")
        scored = self._score_compiled(columns)
        if None in scored.outputs:
            raise NoFeatureOverlap("no part of the model overlaps an example's features")
        return scored

    def _range_warnings(self, columns: Columns) -> dict[int, tuple[str, ...]]:
        """``out-of-range:<name>`` warnings of each compiled row that has any, in name order."""
        domain, ids, values = self.feature_domain, columns.feature_ids, columns.values
        hits = np.flatnonzero((values < domain.min.take(ids)) | (values > domain.max.take(ids)))
        rows = np.searchsorted(columns.indptr, hits, side="right") - 1
        warnings: dict[int, list[str]] = {}
        for row, fid in zip(rows.tolist(), ids.take(hits).tolist()):
            warnings.setdefault(row, []).append(f"out-of-range:{domain.names()[fid]}")
        return {row: tuple(found) for row, found in warnings.items()}

    def _score_compiled(self, columns: Columns) -> ScoreTable:
        """Score each row compiled against the model's domain; an output of None rejects a row as no overlap.

        This default passes each row's ``{id: value}`` to
        :meth:`_predict_intersected`.  Subclasses may override it with array
        kernels.
        """
        ids, values, bounds = columns.feature_ids.tolist(), columns.values.tolist(), columns.indptr.tolist()
        results: list[tuple[Output | None, dict[str, float]]] = []
        for start, end in zip(bounds, bounds[1:]):
            try:
                results.append(self._predict_intersected(dict(zip(ids[start:end], values[start:end]))))
            except NoFeatureOverlap:
                results.append((None, {}))
        return self._table(results)

    def _table(self, results: Sequence[tuple[Output | None, dict[str, float]]]) -> ScoreTable:
        """The table of rows scored one by one, as ``(output, scores)``, which
        keeps their maps: a label a map lacks reads 0.0, a rejected row's value NaN."""
        outputs, maps = [output for output, _ in results], [scores for _, scores in results]
        if self.task == CATEGORICAL:
            labels = self.output_domain.labels()
            scores = np.array([[row.get(label, 0.0) for label in labels] for row in maps], dtype=np.float64)
            return ScoreTable(outputs, scores.reshape(len(maps), len(labels)), maps)
        return ScoreTable(outputs, np.array([math.nan if o is None else o.value for o in outputs], dtype=np.float64), maps)

    @abstractmethod
    def _predict_intersected(self, sparse: Mapping[int, float]) -> tuple[Output, dict[str, float]]:
        """Score one example's intersected sparse vector, ``{feature id: value}``
        over ids the model's domain knows; absent ids mean 0.0.  Raising
        :class:`NoFeatureOverlap` rejects the example."""


class ScoreTable(NamedTuple):
    """Rows scored as one table: each row's output, None where the model
    rejects the row, and its ``scores``, one column per label in label order
    (a label a row's map lacks reads 0.0), or for regression its value.
    ``maps`` keeps each row's score map where a kernel's maps are not the
    rows of ``scores`` in label order: :func:`~pvml.ensemble.combine` orders
    its keys by the members that score a row, and a kernel from outside the
    library returns maps of its own."""

    outputs: list[Output | None]
    scores: np.ndarray
    maps: list[dict[str, float]] | None = None

    def score_maps(self, labels: Sequence[str]) -> list[dict[str, float]]:
        """:attr:`maps`, or each row of :attr:`scores` as a map in ``labels`` order; a regression's are empty."""
        if self.maps is not None:
            return self.maps
        return [dict(zip(labels, row)) for row in self.scores.tolist()] if labels else [{} for _ in self.outputs]


BATCH_ROWS = 256


# ---------------------------------------------------------------------------
# Trainers
# ---------------------------------------------------------------------------

class Trainer(ABC):
    """An algorithm configuration with a seed and an invocation counter.

    Subclasses keep their configuration in ``cfg``, a frozen dataclass whose
    fields :func:`config_properties` records as the trainer provenance.
    The counter increases once per training call and is recorded in the
    trainer provenance, so the pseudo-random stream position of any past
    call can be re-created.  ``train_with_count`` is pure; the stateful
    ``train`` wrapper reserves the next count under a lock.
    """

    trainer_class: str = "pvml.Trainer"

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._count = 0
        self._lock = threading.Lock()

    @property
    def invocation_count(self) -> int:
        return self._count

    def set_invocation_count(self, count: int) -> None:
        if count < 0:
            raise ValueError("invocation count must be >= 0")
        with self._lock:
            self._count = count

    def reserve_invocations(self, n: int = 1) -> int:
        """Atomically claim the next ``n`` counts; returns the first."""
        with self._lock:
            first = self._count
            self._count += n
        return first

    def stream_seed(self, count: int) -> int:
        """Seed of the pseudo-random stream used by invocation ``count``."""
        return splitmix64((self.seed + count) & MASK64)

    def train(self, dataset: Dataset, user_info: Mapping[str, str] | None = None) -> Model:
        count = self.reserve_invocations(1)
        return self.train_with_count(dataset, count, user_info=user_info)

    @abstractmethod
    def train_with_count(
        self, dataset: Dataset, count: int, user_info: Mapping[str, str] | None = None
    ) -> Model:
        """Train a model as invocation ``count``; pure given its arguments."""

    def train_many(
        self, datasets: Iterable[Dataset], counts: Iterable[int], user_info: Mapping[str, str] | None = None
    ) -> list[Model]:
        """One model per dataset, dataset ``i`` trained as invocation
        ``counts[i]``: each the model ``train_with_count`` gives it alone.
        Here one after another, each dataset taken as it is trained; a
        trainer may train some together."""
        return [self.train_with_count(d, c, user_info=user_info) for d, c in zip(datasets, counts)]

    def provenance_with_count(self, count: int, nested_count: int | None = None) -> PObj:
        """Trainer provenance: the fields of ``self.cfg``, nested trainers at
        ``nested_count`` (or their own count), and invocation ``count``."""
        return object_provenance(
            self.trainer_class,
            config=config_properties(self.cfg, nested_count),
            instance={"invocation-count": PInt(count)},
        )

    def provenance(self) -> PObj:
        return self.provenance_with_count(self._count)


# ---------------------------------------------------------------------------
# Configurations as provenance
# ---------------------------------------------------------------------------

_LEAF_TYPES = {int: PInt, float: PFlt, str: PStr, bool: PBool}


@cache
def _declared_fields(cls) -> tuple[tuple[str, str, object], ...]:
    """Name, property key and annotated type of each field of config class ``cls``."""
    hints = get_type_hints(cls)
    return tuple((f.name, f.name.replace("_", "-"), hints[f.name]) for f in fields(cls))


def config_properties(cfg, nested_count: int | None = None) -> dict[str, ProvValue]:
    """The fields of the config dataclass ``cfg`` as provenance properties.

    Field ``snake_name`` is written under the key ``snake-name``, as the leaf
    its annotation names (``int``, ``float``, ``str`` or ``bool``); ``seed``
    is written as a signed 64-bit integer.  A nested config dataclass is
    written as a ``pvml.<ClassName>`` object, and a nested trainer as its
    own provenance, at invocation ``nested_count`` when that is given.
    """
    properties: dict[str, ProvValue] = {}
    for name, key, kind in _declared_fields(type(cfg)):
        value = getattr(cfg, name)
        if isinstance(value, Trainer):
            count = value.invocation_count if nested_count is None else nested_count
            properties[key] = value.provenance_with_count(count)
        elif is_dataclass(value):
            properties[key] = object_provenance(f"pvml.{type(value).__name__}", config=config_properties(value))
        else:
            properties[key] = PInt(to_signed64(value)) if name == "seed" else _LEAF_TYPES[kind](value)
    return properties


def config_from_properties(cls, properties: PMap, read_trainer: Callable[[PObj], Trainer]):
    """Inverse of :func:`config_properties`: the ``cls`` that ``properties`` record.

    Nested trainers are rebuilt by ``read_trainer``.  A missing property
    raises :class:`MissingProperty`, one of the wrong type
    :class:`ParseError`, and a nested config of a class the annotation does
    not name :class:`UnknownClass`.
    """
    values = {}
    for name, key, kind in _declared_fields(cls):
        prov = properties.get(key)
        if prov is None:
            raise MissingProperty(key)
        if kind in _LEAF_TYPES:
            if type(prov) is not _LEAF_TYPES[kind]:
                raise ParseError(f"property {key!r} must be {_LEAF_TYPES[kind].__name__}, found {type(prov).__name__}")
            values[name] = to_unsigned64(prov.value) if name == "seed" else prov.value
        elif not isinstance(prov, PObj):
            raise ParseError(f"property {key!r} must be an object, found {type(prov).__name__}")
        elif isinstance(kind, type) and issubclass(kind, Trainer):
            values[name] = read_trainer(prov)
        else:
            classes = {f"pvml.{c.__name__}": c for c in get_args(kind) or (kind,)}
            if prov.class_name not in classes:
                raise UnknownClass(f"property {key!r} names unknown class {prov.class_name!r}")
            values[name] = config_from_properties(classes[prov.class_name], config_fields(prov), read_trainer)
    return cls(**values)
