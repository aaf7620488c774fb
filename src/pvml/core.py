"""Core domain types: examples, domains, datasets, models, predictions.

Features are named, sparse and validated; datasets are immutable and carry
their own provenance; models embed the provenance and the exact feature and
output domains they were trained over, and enforce the inference-time
contract (unknown features dropped, no-overlap rejected, out-of-range
values flagged).
"""

from __future__ import annotations

import math
import platform
import re
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields, is_dataclass
from functools import cache, cached_property
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, Sequence, get_args, get_type_hints

import numpy as np

from ._version import __version__
from .errors import (
    EmptyExample,
    EmptyScores,
    EmptySource,
    MissingProperty,
    MixedOutputTypes,
    NoFeatureOverlap,
    NonFiniteFeature,
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


def _check_feature_name(name: str) -> None:
    if not name:
        raise ValueError("feature names must be non-empty")
    if _CONTROL_CHARACTER.search(name):
        raise ValueError(f"feature name {name!r} contains control characters")


@dataclass(frozen=True)
class FeatureValue:
    """One named feature observation."""

    name: str
    value: float

    def __post_init__(self):
        _check_feature_name(self.name)
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

    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

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


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureInfo:
    """Summary of one feature over a dataset; ids are dense and name-ordered."""

    id: int
    count: int
    min: float
    max: float
    mean: float
    variance: float


class FeatureDomain:
    """The named feature space a dataset or model was built over."""

    def __init__(self, infos: Mapping[str, FeatureInfo]):
        self._infos = dict(infos)
        names = sorted(self._infos)
        ids = [self._infos[n].id for n in names]
        if ids != list(range(len(names))):
            raise ValueError("feature ids must be 0..N-1 in lexicographic name order")
        self._names = tuple(names)

    @classmethod
    def from_observations(cls, observations: Mapping[str, "_RunningStats"]) -> "FeatureDomain":
        infos = {}
        for idx, name in enumerate(sorted(observations)):
            stats = observations[name]
            infos[name] = FeatureInfo(idx, stats.count, stats.min, stats.max, stats.mean, stats.variance)
        return cls(infos)

    def __len__(self) -> int:
        return len(self._infos)

    def __contains__(self, name: str) -> bool:
        return name in self._infos

    def __getitem__(self, name: str) -> FeatureInfo:
        return self._infos[name]

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureDomain) and self._infos == other._infos

    def names(self) -> tuple[str, ...]:
        return self._names

    def id_of(self, name: str) -> int | None:
        info = self._infos.get(name)
        return None if info is None else info.id

    @cached_property
    def ids(self) -> dict[str, int]:
        """Feature id by name, built once."""
        return {name: info.id for name, info in self.items()}

    def items(self):
        return ((n, self._infos[n]) for n in self._names)


class _RunningStats:
    """Welford accumulator for count/min/max/mean/population-variance."""

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0


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

@dataclass(frozen=True)
class Dataset:
    """Immutable example collection plus domains plus data provenance."""

    examples: tuple[Example, ...]
    feature_domain: FeatureDomain
    output_domain: OutputDomain
    provenance: PObj

    @property
    def task(self) -> str:
        return self.output_domain.task

    def __len__(self) -> int:
        return len(self.examples)

    @cached_property
    def columns(self) -> Columns:
        """The examples compiled to arrays, once, on first use.

        Built lazily so that datasets which are only scored never pay for it.
        """
        labels = self.output_domain.labels() if self.task == CATEGORICAL else None
        return compile_examples(self.examples, self.feature_domain, labels)


@dataclass(frozen=True, eq=False)
class Columns:
    """Examples compiled to arrays against a feature domain.

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
    index = domain.ids
    ids = np.array([index.get(f.name, -1) for ex in examples for f in ex.features], dtype=np.int32)
    values = np.array([f.value for ex in examples for f in ex.features], dtype=np.float64)
    lengths = np.array([len(ex.features) for ex in examples], dtype=np.int64)
    known = ids >= 0
    if not known.all():
        rows = np.repeat(np.arange(len(examples)), lengths)
        ids, values = ids[known], values[known]
        lengths = np.bincount(rows[known], minlength=len(examples))
    indptr = np.zeros(len(examples) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    if not targets:
        compiled = np.empty(0)
    elif labels is None:
        compiled = np.array([ex.output.value for ex in examples], dtype=np.float64)
    else:
        position = {label: i for i, label in enumerate(labels)}
        compiled = np.array([position[ex.output.label] for ex in examples], dtype=np.intp)
    weights = np.array([ex.weight for ex in examples], dtype=np.float64)
    return Columns(indptr, ids, values, compiled, weights)


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


def dataset_from_examples(examples: Sequence[Example], provenance: PObj) -> Dataset:
    """Assemble a dataset, computing feature and output domains."""
    examples = tuple(examples)
    if not examples:
        raise EmptySource("no examples to build a dataset from")

    observations: dict[str, _RunningStats] = {}
    for ex in examples:
        for f in ex.features:
            stats = observations.get(f.name)
            if stats is None:
                stats = observations.setdefault(f.name, _RunningStats())
            stats.add(f.value)
    feature_domain = FeatureDomain.from_observations(observations)

    tasks = {output_task(ex.output) for ex in examples}
    if None in tasks:
        raise UnlabelledExample("datasets require ground truth on every example")
    if len(tasks) != 1:
        raise MixedOutputTypes("source mixes categorical and real outputs")
    task = tasks.pop()

    if task == CATEGORICAL:
        counts: dict[str, int] = {}
        for ex in examples:
            counts[ex.output.label] = counts.get(ex.output.label, 0) + 1
        output_domain: OutputDomain = CategoricalDomain(counts)
    else:
        stats = _RunningStats()
        for ex in examples:
            stats.add(ex.output.value)
        output_domain = RealDomain(stats.min, stats.max, stats.mean, stats.variance, stats.count)

    return Dataset(examples, feature_domain, output_domain, provenance)


def build_dataset(source) -> Dataset:
    """Materialize a data source into a dataset with fresh provenance.

    The source must be an iterable of examples exposing a ``provenance``
    attribute; statistics use population variance (divisor = count).
    """
    examples = tuple(source)
    if not examples:
        raise EmptySource("data source yielded no examples")
    dataset = dataset_from_examples(examples, provenance=_PLACEHOLDER)
    prov = data_provenance(
        num_examples=len(examples),
        num_features=len(dataset.feature_domain),
        transformations=(),
        source=source.provenance,
    )
    return Dataset(dataset.examples, dataset.feature_domain, dataset.output_domain, prov)


_PLACEHOLDER = object_provenance("pvml.PendingProvenance")


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
    values outside the training range produce named warnings.
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
        sparse: dict[int, float] = {}
        warnings: list[str] = []
        for f in example.features:
            info = self.feature_domain[f.name] if f.name in self.feature_domain else None
            if info is None:
                continue  # unseen features are dropped, not errors
            sparse[info.id] = f.value
            if f.value < info.min or f.value > info.max:
                warnings.append(f"out-of-range:{f.name}")
        if not sparse:
            raise NoFeatureOverlap(
                "example shares no features with the model's training domain"
            )
        output, scores = self._predict_intersected(example, sparse)
        return Prediction(
            output=output,
            scores=scores,
            features_used=len(sparse),
            features_total=len(example.features),
            warnings=tuple(warnings),
        )

    def predict_batch(self, examples: Sequence[Example], transformers: Sequence = ()) -> list[Prediction]:
        """Score many examples at once, as ``[self.predict(x) for x in examples]`` would.

        The examples are compiled once against the model's domain; their
        outputs are not read.  Each of ``transformers`` (fitted
        :class:`~pvml.data.TransformerMap` objects, in order) then rescales
        the compiled values as :func:`~pvml.data.apply_transformers` would
        have rewritten the examples.  A row that shares no feature with the
        model raises :class:`NoFeatureOverlap` for the whole batch.
        """
        examples = tuple(examples)
        columns = compile_examples(examples, self.feature_domain, targets=False)
        for transformer in transformers:
            columns = transformer.rescale(self.feature_domain, columns)
        used = np.diff(columns.indptr)
        if not used.all():
            raise NoFeatureOverlap("an example shares no features with the model's training domain")
        scored = self._score_compiled(columns)
        if None in scored:
            raise NoFeatureOverlap("no part of the model overlaps an example's features")
        warnings = self._range_warnings(columns)
        return [
            Prediction(output, scores, n_used, len(ex.features), warnings.get(i, ()))
            for i, ((output, scores), n_used, ex) in enumerate(zip(scored, used.tolist(), examples))
        ]

    @cached_property
    def _ranges(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """Feature names, minima and maxima, indexed by feature id."""
        infos = [info for _, info in self.feature_domain.items()]
        return (
            self.feature_domain.names(),
            np.array([info.min for info in infos], dtype=np.float64),
            np.array([info.max for info in infos], dtype=np.float64),
        )

    def _range_warnings(self, columns: Columns) -> dict[int, tuple[str, ...]]:
        """``out-of-range:<name>`` warnings of each compiled row that has any, in name order."""
        names, lo, hi = self._ranges
        ids, values = columns.feature_ids, columns.values
        hits = np.flatnonzero((values < lo.take(ids)) | (values > hi.take(ids)))
        rows = np.searchsorted(columns.indptr, hits, side="right") - 1
        warnings: dict[int, list[str]] = {}
        for row, fid in zip(rows.tolist(), ids.take(hits).tolist()):
            warnings.setdefault(row, []).append(f"out-of-range:{names[fid]}")
        return {row: tuple(found) for row, found in warnings.items()}

    def _score_compiled(self, columns: Columns) -> list[tuple[Output, dict[str, float]] | None]:
        """Score each row compiled against the model's domain; None rejects a row as no overlap.

        This default goes row by row through :meth:`_predict_intersected`,
        with an example rebuilt from the row's known features.  Subclasses
        override it with array kernels.
        """
        names = self.feature_domain.names()
        ids, values, bounds = columns.feature_ids.tolist(), columns.values.tolist(), columns.indptr.tolist()
        out: list[tuple[Output, dict[str, float]] | None] = []
        for start, end in zip(bounds, bounds[1:]):
            sparse = dict(zip(ids[start:end], values[start:end]))
            try:
                example = Example(tuple(FeatureValue(names[i], v) for i, v in sparse.items()))
                out.append(self._predict_intersected(example, sparse))
            except (EmptyExample, NoFeatureOverlap):
                out.append(None)
        return out

    @abstractmethod
    def _predict_intersected(
        self, example: Example, sparse: Mapping[int, float]
    ) -> tuple[Output, dict[str, float]]:
        """Score the intersected sparse vector; absent ids mean 0.0."""


def predict(model: Model, example: Example, expected_task: str | None = None) -> Prediction:
    return model.predict(example, expected_task)


BATCH_ROWS = 256


def predict_chunked(model: Model, examples: Iterable[Example], transformers: Sequence = ()) -> Iterator[Prediction]:
    """The predictions of ``examples`` in order, scored through
    :meth:`Model.predict_batch` :data:`BATCH_ROWS` at a time, so that the
    compiled arrays do not grow with the input."""
    rest = iter(examples)
    while chunk := tuple(islice(rest, BATCH_ROWS)):
        yield from model.predict_batch(chunk, transformers)


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
