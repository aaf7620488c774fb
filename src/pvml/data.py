"""Data ingestion and transformation with provenance capture.

Columnar rows become sparse examples (numeric columns parse directly,
categorical columns binarize as ``column@value``, text columns become
token counts); CSV files load with a SHA-256 of their raw bytes recorded;
fitted rescaling transforms remember both their spec and their fitted
statistics so a pipeline can be replayed from provenance alone.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import (
    BATCH_ROWS,
    CATEGORICAL,
    REAL,
    Columns,
    Dataset,
    Example,
    FeatureDomain,
    Model,
    Output,
    RealOutput,
    CategoricalOutput,
    UNKNOWN,
    check_feature_name,
    checked_example,
    compile_features,
)
from .errors import (
    CsvParseError,
    EmptyExample,
    HeaderMismatch,
    MissingProperty,
    MissingResponse,
    NonFiniteFeature,
    NonFiniteStatistic,
    ParseError,
    PipelineMismatch,
    UnknownClass,
    UnparseableNumeric,
)
from .provenance import (
    PBool,
    PFlt,
    PHash,
    PList,
    PMap,
    PObj,
    PStr,
    ProvValue,
    canonical_encode,
    config_section,
    instance_section,
    is_object_provenance,
    object_provenance,
    sha256_hex,
    timestamp_now,
    with_instance_entry,
)

NUMERIC = "numeric"
CATEGORICAL_FIELD = "categorical"
TEXT = "text"

CSV_SOURCE_CLASS = "pvml.CsvDataSource"
IN_MEMORY_SOURCE_CLASS = "pvml.InMemorySource"
SCHEMA_CLASS = "pvml.ColumnarSchema"
ZSCORE_CLASS = "pvml.ZScoreTransform"
MINMAX_CLASS = "pvml.MinMaxTransform"

_TOKEN = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class FieldProcessor:
    column: str
    kind: str

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL_FIELD, TEXT):
            raise ValueError(f"unknown field kind {self.kind!r}")
        check_feature_name(self.column)  # every feature name of the column starts with it


@dataclass(frozen=True)
class ColumnarSchema:
    """How to turn string-valued columns into features and a response."""

    response_column: str
    response_type: str
    processors: tuple[FieldProcessor, ...]

    def __post_init__(self):
        if self.response_type not in (CATEGORICAL, REAL):
            raise ValueError(f"response type must be categorical or real, got {self.response_type!r}")
        object.__setattr__(self, "processors", tuple(self.processors))
        columns = [p.column for p in self.processors]
        if len(set(columns)) != len(columns):
            raise ValueError("duplicate columns in schema")
        if self.response_column in columns:
            raise ValueError("the response column cannot also be processed as a feature")

    def columns(self) -> tuple[str, ...]:
        return tuple(p.column for p in self.processors)

    @cached_property
    def featurizer(self) -> "RowFeaturizer":
        """The featurizer of this schema; it remembers the names it has checked."""
        return RowFeaturizer(self)

    def provenance(self) -> PObj:
        return object_provenance(
            SCHEMA_CLASS,
            config={
                "response-column": PStr(self.response_column),
                "response-type": PStr(self.response_type),
                "columns": PList(
                    tuple(
                        PMap({"column": PStr(p.column), "kind": PStr(p.kind)})
                        for p in self.processors
                    )
                ),
            },
            instance={},
        )


def schema_from_properties(properties: Mapping[str, ProvValue] | PMap) -> ColumnarSchema:
    """Rebuild a schema from the configuration properties of its record."""
    for key in ("response-column", "response-type", "columns"):
        if key not in properties:
            raise MissingProperty(key)
    columns = properties["columns"]
    if not isinstance(columns, PList) or not all(
        isinstance(entry, PMap) and "column" in entry and "kind" in entry for entry in columns
    ):
        raise ParseError("schema columns must be a list of entries with 'column' and 'kind'")
    try:
        return ColumnarSchema(
            response_column=_text(properties["response-column"]),
            response_type=_text(properties["response-type"]),
            processors=tuple(FieldProcessor(_text(e["column"]), _text(e["kind"])) for e in columns),
        )
    except ValueError as exc:
        raise ParseError(f"invalid schema: {exc}") from exc


def _text(v: ProvValue) -> str:
    if not isinstance(v, PStr):
        raise ParseError(f"expected a string, found {type(v).__name__}")
    return v.value


class RowFeaturizer:
    """Turns rows of one schema into name-sorted features.

    Numeric columns parse directly, categorical columns binarize as
    ``column@value`` and text columns become ``column@token`` counts; a
    name met more than once in a row sums its values in column order, as
    :func:`~pvml.core.make_example` merges pairs.  Each distinct name is
    checked once per featurizer, since every check after the first would
    give the same answer.
    """

    def __init__(self, schema: ColumnarSchema):
        self.schema = schema
        self._checked: set[str] = set()
        self._fields = tuple((p.column, p.kind, f"{p.column}@") for p in schema.processors)

    def merge(self, row: Mapping[str, str]) -> tuple[list[str], list[float], Output]:
        """The row's feature names in order, their values, and its output.

        Raises, in this order: :class:`UnparseableNumeric` for a numeric
        cell, :class:`MissingResponse` or :class:`UnparseableNumeric` for
        the response cell, :class:`EmptyExample` for a row without
        features and :class:`InvalidFeatureName` for its first bad name.
        """
        merged: dict[str, float] = {}
        get = merged.get
        for column, kind, prefix in self._fields:
            cell = row.get(column, "")
            if cell == "":
                continue
            if kind == NUMERIC:
                merged[column] = get(column, 0.0) + _parse_numeric(column, cell)
            elif kind == CATEGORICAL_FIELD:
                name = prefix + cell
                merged[name] = get(name, 0.0) + 1.0
            else:
                for token in _TOKEN.findall(cell.lower()):
                    name = prefix + token
                    merged[name] = get(name, 0.0) + 1.0
        output = self._output(row)
        if not merged:
            raise EmptyExample("an example needs at least one feature")
        names = sorted(merged)
        if not self._checked.issuperset(names):
            for name in names:
                if name not in self._checked:
                    check_feature_name(name)
                    self._checked.add(name)
        return names, [merged[name] for name in names], output

    def _output(self, row: Mapping[str, str]) -> Output:
        """A missing response *key* means unlabelled; an empty response *cell* is an error."""
        schema = self.schema
        if schema.response_column not in row:
            return UNKNOWN
        cell = row[schema.response_column]
        if cell == "":
            raise MissingResponse(f"empty response cell in column {schema.response_column!r}")
        if schema.response_type == CATEGORICAL:
            return CategoricalOutput(cell)
        return RealOutput(_parse_numeric(schema.response_column, cell))


def featurize_row(schema: ColumnarSchema, row: Mapping[str, str]) -> Example:
    """Convert one row of strings into an example.

    Empty feature cells are skipped.  A missing response *key* yields an
    unlabelled example (prediction-time data); an empty response *cell* on
    data that carries the column is an error.
    """
    names, values, output = schema.featurizer.merge(row)
    _check_finite(names, values)
    return checked_example(names, values, output)


def _check_finite(names: Sequence[str], values: Sequence[float]) -> None:
    """Raise :class:`NonFiniteFeature` for the first non-finite value of ``values``."""
    if not all(map(math.isfinite, values)):
        name, value = next((n, v) for n, v in zip(names, values) if not math.isfinite(v))
        raise NonFiniteFeature(f"feature {name!r} has non-finite value {value!r}")


def _parse_numeric(column: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise UnparseableNumeric(column, cell) from None
    if not math.isfinite(value):
        raise UnparseableNumeric(column, cell)
    return value


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------

def _examples_fingerprint(examples: Sequence[Example]) -> str:
    """Content hash of an in-memory example list via the canonical encoding."""
    items = []
    for ex in examples:
        features = PList(tuple(PList((PStr(f.name), PFlt(f.value))) for f in ex.features))
        if isinstance(ex.output, CategoricalOutput):
            out: object = PStr(ex.output.label)
        elif isinstance(ex.output, RealOutput):
            out = PFlt(ex.output.value)
        else:
            out = PStr("?")
        items.append(PList((features, out, PFlt(ex.weight))))
    return sha256_hex(canonical_encode(PList(tuple(items))))


class InMemoryDataSource:
    """Examples created in memory, hashed by content for provenance."""

    def __init__(self, examples: Sequence[Example], description: str = "in-memory"):
        self._examples = tuple(examples)
        self.provenance = object_provenance(
            IN_MEMORY_SOURCE_CLASS,
            config={"description": PStr(description), "inline": PBool(True)},
            instance={
                "data-hash": PHash("SHA-256", _examples_fingerprint(self._examples)),
                "loaded-at": timestamp_now(),
            },
        )

    def __iter__(self) -> Iterator[Example]:
        return iter(self._examples)

    def __len__(self) -> int:
        return len(self._examples)


class CsvDataSource:
    """A CSV file plus a columnar schema; hashes the raw bytes on load.

    Dialect is fixed: comma separator, double-quote quoting, a header row,
    UTF-8.  Feature columns named by the schema must be present; the
    response column may be absent, in which case every example is
    unlabelled (prediction-time input).
    """

    def __init__(self, path: str, schema: ColumnarSchema):
        self.path = path
        self.schema = schema
        with open(path, "rb") as fh:
            raw = fh.read()
        digest = sha256_hex(raw)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CsvParseError(f"not valid UTF-8: {exc}") from exc
        self._rows = self._parse(text)
        self.provenance = object_provenance(
            CSV_SOURCE_CLASS,
            config={
                "path": PStr(path),
                "separator": PStr(","),
                "quote": PStr('"'),
                "schema": schema.provenance(),
            },
            instance={
                "data-hash": PHash("SHA-256", digest),
                "loaded-at": timestamp_now(),
            },
        )

    def _parse(self, text: str) -> list[dict[str, str]]:
        reader = csv.reader(io.StringIO(text, newline=""), delimiter=",", quotechar='"')
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise CsvParseError(str(exc), line=1) from exc
        if not header:
            raise CsvParseError("missing header row", line=1)
        required = set(self.schema.columns())
        missing = required - set(header)
        if missing:
            raise HeaderMismatch(sorted(missing))
        rows = []
        try:
            for row in reader:
                if not row:
                    continue  # blank line
                if len(row) != len(header):
                    raise CsvParseError(
                        f"expected {len(header)} fields, found {len(row)}", line=reader.line_num
                    )
                rows.append(dict(zip(header, row)))
        except csv.Error as exc:
            raise CsvParseError(str(exc), line=reader.line_num) from exc
        return rows

    def __iter__(self) -> Iterator[Example]:
        for row in self._rows:
            yield featurize_row(self.schema, row)

    def __len__(self) -> int:
        return len(self._rows)

    def merged(
        self, rows_per_chunk: int = BATCH_ROWS
    ) -> Iterator[tuple[list[str], list[float], list[int], list[Output]]]:
        """The rows through :meth:`RowFeaturizer.merge`, ``rows_per_chunk`` at a
        time: each chunk's feature names and values, flat and in row order,
        and each row's feature count and output.  A row that
        :func:`featurize_row` rejects raises the same error here."""
        featurizer = self.schema.featurizer
        for start in range(0, len(self._rows), rows_per_chunk):
            names: list[str] = []
            values: list[float] = []
            totals: list[int] = []
            outputs: list[Output] = []
            for row in self._rows[start:start + rows_per_chunk]:
                row_names, row_values, output = featurizer.merge(row)
                names += row_names
                values += row_values
                totals.append(len(row_names))
                outputs.append(output)
            _check_finite(names, values)
            yield names, values, totals, outputs

    def compiled(
        self, model: Model, seen: set[str] | None = None
    ) -> Iterator[tuple[Columns, list[int], list[Output]]]:
        """The rows in ``model``'s space, :data:`~pvml.core.BATCH_ROWS` at a
        time, for :meth:`~pvml.core.Model.predict_compiled`: each chunk's
        :func:`_compiled` columns, each row's feature count and each row's
        output.  Every feature name met is added to ``seen`` when it is given,
        so that after the last chunk it holds the names a dataset of the file
        would have in its domain."""
        domain, pipeline = model.feature_domain, recorded_pipeline(model)
        for names, values, totals, outputs in self.merged():
            if seen is not None:
                seen.update(names)
            yield _compiled(domain, pipeline, names, np.array(values, dtype=np.float64), totals), totals, outputs


def load_csv(path: str, schema: ColumnarSchema) -> CsvDataSource:
    return CsvDataSource(path, schema)


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------

ZSCORE = "zscore"
MINMAX = "minmax"

_TRANSFORM_CLASSES = {ZSCORE: ZSCORE_CLASS, MINMAX: MINMAX_CLASS}
_TRANSFORM_KINDS = {v: k for k, v in _TRANSFORM_CLASSES.items()}


@dataclass(frozen=True)
class TransformSpec:
    """What to fit: a transform kind over named features or all of them."""

    kind: str
    features: tuple[str, ...] | None = None  # None = every feature in the dataset

    def __post_init__(self):
        if self.kind not in _TRANSFORM_CLASSES:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.features is not None:
            object.__setattr__(self, "features", tuple(self.features))


@dataclass(frozen=True)
class ZScoreFit:
    mean: float
    std: float

    def affine(self) -> tuple[float, float]:
        """``(shift, divisor)``: the fit rewrites a value ``v`` as ``(v - shift) / divisor``."""
        return self.mean, self.std


@dataclass(frozen=True)
class MinMaxFit:
    lo: float
    hi: float

    def affine(self) -> tuple[float, float]:
        return self.lo, self.hi - self.lo


@dataclass(frozen=True)
class IdentityFit:
    """Stand-in for a degenerate fit (constant feature); values pass through."""

    def affine(self) -> tuple[float, float]:
        return 0.0, 1.0  # (v - 0.0) / 1.0 is v, signed zeros included


FeatureFit = ZScoreFit | MinMaxFit | IdentityFit


@dataclass(frozen=True)
class TransformerMap:
    """Fitted per-feature transforms plus the provenance describing them."""

    spec: TransformSpec
    fits: dict[str, FeatureFit]
    warnings: tuple[str, ...]
    provenance: PObj

    @cached_property
    def affine(self) -> dict[str, tuple[float, float]]:
        """Each fitted feature's ``(shift, divisor)``, computed once: :meth:`rescale`
        rewrites its value ``v`` as ``(v - shift) / divisor``."""
        return {name: fit.affine() for name, fit in self.fits.items()}

    def rescale(self, domain: FeatureDomain, columns: Columns) -> Columns:
        """``columns``, compiled against ``domain``, with every value rewritten
        as the IEEE ``(v - shift) / divisor``, elementwise: the one transform
        kernel, for :func:`apply_transformers` in training and for scoring
        alike.  Features without a fit pass through, since ``(v - 0.0) / 1.0``
        is ``v``.  A non-finite result raises :class:`NonFiniteFeature`.
        """
        shift, divisor = np.zeros(len(domain)), np.ones(len(domain))
        for name, pair in self.affine.items():
            fid = domain.ids.get(name)
            if fid is not None:
                shift[fid], divisor[fid] = pair
        ids = columns.feature_ids
        with np.errstate(all="ignore"):
            values = (columns.values - shift.take(ids)) / divisor.take(ids)
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            name, value = domain.names()[ids[bad[0]]], values[bad[0]].item()
            raise NonFiniteFeature(f"feature {name!r} has non-finite value {value!r}")
        return replace(columns, values=values)


def fit_transformers(dataset: Dataset, spec: TransformSpec) -> TransformerMap:
    """Fit the requested transform kinds over the dataset's observed values.

    Statistics come from the feature domain, so implicit zeros of absent
    features are not counted.  Degenerate fits (zero spread) become
    identity transforms and are reported in ``warnings`` rather than
    failing the pipeline.  A z-score over a feature whose mean or variance
    overflowed raises :class:`NonFiniteStatistic`.
    """
    domain = dataset.feature_domain
    names = spec.features if spec.features is not None else domain.names()
    # Python floats: a numpy scalar passes PFlt's float check, but its repr differs
    lows, highs, means, variances = (getattr(domain, key).tolist() for key in FeatureDomain.STATISTICS)
    fits: dict[str, FeatureFit] = {}
    warnings: list[str] = []
    fitted_prov: dict[str, PMap] = {}
    for name in names:
        fid = domain.ids.get(name)
        if fid is None:
            warnings.append(f"unknown-feature:{name}")
            continue
        if spec.kind == ZSCORE:
            mean, std = means[fid], math.sqrt(variances[fid])
            if not (math.isfinite(mean) and math.isfinite(std)):
                raise NonFiniteStatistic(f"cannot fit a z-score to feature {name!r}: its mean or variance overflows")
            if std == 0.0:
                fits[name] = IdentityFit()
                warnings.append(f"degenerate:{name}")
            else:
                fits[name] = ZScoreFit(mean, std)
                fitted_prov[name] = PMap({"mean": PFlt(mean), "std": PFlt(std)})
        elif lows[fid] == highs[fid]:
            fits[name] = IdentityFit()
            warnings.append(f"degenerate:{name}")
        else:
            fits[name] = MinMaxFit(lows[fid], highs[fid])
            fitted_prov[name] = PMap({"min": PFlt(lows[fid]), "max": PFlt(highs[fid])})

    prov = object_provenance(
        _TRANSFORM_CLASSES[spec.kind],
        config={
            "features": PStr("*") if spec.features is None else PList(tuple(PStr(n) for n in spec.features)),
        },
        instance={
            "fitted": PMap(fitted_prov),
            "warnings": PList(tuple(PStr(w) for w in warnings)),
        },
    )
    return TransformerMap(spec, fits, tuple(warnings), prov)


def apply_transformers(dataset: Dataset, transformer: TransformerMap) -> Dataset:
    """Rewrite feature values through :meth:`TransformerMap.rescale`, the kernel scoring replays.

    Features without a fit pass through unchanged.  The result is a new
    dataset with its feature domain recomputed and the transformation
    appended to the provenance's ordered transformation list.
    """
    columns = transformer.rescale(dataset.feature_domain, dataset.columns)
    domain = FeatureDomain.observed(dataset.feature_domain.names(), columns.feature_ids, columns.values)
    done = instance_section(dataset.provenance).get("transformations", PList())
    prov = with_instance_entry(dataset.provenance, "transformations", PList((*done.items, transformer.provenance)))
    return Dataset(columns, domain, dataset.output_domain, prov)


def recorded_transformers(data_provenance: PObj) -> list[TransformerMap]:
    """The transformations a dataset's provenance records, in order, with
    the exact fitted values it records.

    Replaying them with :func:`apply_transformers` or
    :meth:`TransformerMap.rescale` rewrites new data as the recorded
    pipeline rewrote its own.  Raises :class:`ParseError` for a
    ``transformations`` entry that is not a list of object provenances, and
    for a fit that is not a pair of floats with a positive ``std`` or a
    ``max`` above its ``min``; recorded floats are finite by construction.
    """
    return [_recorded_map(tprov) for tprov in _transformations(data_provenance)]


def _transformations(data_provenance: PObj) -> tuple[PObj, ...]:
    transformations = instance_section(data_provenance).get("transformations", PList())
    if not isinstance(transformations, PList) or not all(map(is_object_provenance, transformations)):
        raise ParseError("data provenance 'transformations' must be a list of object provenances")
    return transformations.items


def recorded_pipeline(model: Model) -> list[TransformerMap]:
    """The transformations in ``model``'s training-data provenance, which take
    raw values to the values its trainer saw, with the fits of
    :func:`pipeline_provenance` built."""
    return [_recorded_map(tprov) for tprov in pipeline_provenance(model)]


def pipeline_provenance(model: Model) -> tuple[PObj, ...]:
    """The provenance of each transformation in ``model``'s training-data
    provenance, in order: the one reader of a model's pipeline.  A model
    that records no training data raises :class:`MissingProperty`, as
    scoring raw values without its pipeline would be a silent wrong answer."""
    prov = model.provenance  # a model file's provenance is not checked on load
    data = instance_section(prov).get("data") if is_object_provenance(prov) else None
    if not is_object_provenance(data):
        raise MissingProperty("data")
    return _transformations(data)


def _compiled(domain: FeatureDomain, pipeline: Sequence[TransformerMap], names, values, totals) -> Columns:
    """Raw rows given flat, as :func:`~pvml.core.compile_features` takes them, in
    the space of a model of ``domain`` and ``pipeline``: the columns that
    ``compile_examples(..., targets=False)`` makes of their examples, rescaled."""
    indptr, ids, array = compile_features(names, values, totals, domain.ids)
    columns = Columns(indptr, ids, array, np.empty(0), np.ones(len(totals)))
    for transformer in pipeline:
        columns = transformer.rescale(domain, columns)
    return columns


def in_model_space(model: Model, dataset: Dataset) -> tuple[Columns, list[int], PObj]:
    """``dataset``'s rows as ``model``'s trainer saw its own data: their :func:`_compiled`
    columns, each row's feature count and their provenance.  Rows whose provenance records
    no transformation go through the model's :func:`recorded_pipeline`, which it then records;
    any pipeline but that one raises :class:`PipelineMismatch` rather than be rescaled twice."""
    pipeline, provenance = recorded_pipeline(model), dataset.provenance
    recorded = PList(tuple(t.provenance for t in pipeline))
    done = instance_section(provenance).get("transformations", PList())
    if done == recorded:
        pipeline = []
    elif done == PList():
        provenance = with_instance_entry(provenance, "transformations", recorded)
    else:
        raise PipelineMismatch("the dataset records transformations other than the model's pipeline")
    names, columns = dataset.feature_domain.names(), dataset.columns
    totals = np.diff(columns.indptr).tolist()
    flat = [names[i] for i in columns.feature_ids.tolist()]
    return _compiled(model.feature_domain, pipeline, flat, columns.values, totals), totals, provenance


def _recorded_map(tprov: PObj) -> TransformerMap:
    spec = transform_spec_from_provenance(tprov)
    instance = instance_section(tprov)
    fitted, warnings = instance.get("fitted"), instance.get("warnings", PList())
    if not isinstance(fitted, PMap) or not isinstance(warnings, PList):
        raise ParseError(f"{tprov.class_name} must record a 'fitted' map and a 'warnings' list")
    keys = ("mean", "std") if spec.kind == ZSCORE else ("min", "max")
    fits: dict[str, FeatureFit] = {}
    for name, entry in fitted.entries:
        if not (isinstance(entry, PMap) and set(entry.keys()) == set(keys) and all(isinstance(entry[k], PFlt) for k in keys)):
            raise ParseError(f"the fit of {name!r} must hold the floats {' and '.join(keys)}")
        a, b = entry[keys[0]].value, entry[keys[1]].value
        if spec.kind == ZSCORE and not b > 0.0:
            raise ParseError(f"the fit of {name!r} has a non-positive std {b!r}")
        if spec.kind == MINMAX and not b > a:
            raise ParseError(f"the fit of {name!r} has max {b!r} not above min {a!r}")
        fits[name] = ZScoreFit(a, b) if spec.kind == ZSCORE else MinMaxFit(a, b)
    return TransformerMap(spec, fits, tuple(_text(w) for w in warnings.items), tprov)


def transform_spec_from_provenance(tprov: PObj) -> TransformSpec:
    """Recover the fit spec (not the fitted numbers) from a recorded transform."""
    kind = _TRANSFORM_KINDS.get(tprov.class_name)
    if kind is None:
        raise UnknownClass(f"unknown transformation class {tprov.class_name!r}")
    features = config_section(tprov).get("features")
    if features is None or (isinstance(features, PStr) and features.value == "*"):
        return TransformSpec(kind, None)
    if not isinstance(features, PList):
        raise ParseError("transformation 'features' must be a list or \"*\"")
    return TransformSpec(kind, tuple(_text(f) for f in features.items))
