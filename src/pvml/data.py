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
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .core import (
    CATEGORICAL,
    REAL,
    Dataset,
    Example,
    FeatureValue,
    RealOutput,
    CategoricalOutput,
    UNKNOWN,
    dataset_from_examples,
    make_example,
)
from .errors import (
    CsvParseError,
    HeaderMismatch,
    MissingResponse,
    ParseError,
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
    from .errors import MissingProperty

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


def featurize_row(schema: ColumnarSchema, row: Mapping[str, str]) -> Example:
    """Convert one row of strings into an example.

    Empty feature cells are skipped.  A missing response *key* yields an
    unlabelled example (prediction-time data); an empty response *cell* on
    data that carries the column is an error.
    """
    pairs: list[tuple[str, float]] = []
    for proc in schema.processors:
        cell = row.get(proc.column, "")
        if cell == "":
            continue
        if proc.kind == NUMERIC:
            pairs.append((proc.column, _parse_numeric(proc.column, cell)))
        elif proc.kind == CATEGORICAL_FIELD:
            pairs.append((f"{proc.column}@{cell}", 1.0))
        else:
            for token in _TOKEN.findall(cell.lower()):
                pairs.append((f"{proc.column}@{token}", 1.0))

    if schema.response_column not in row:
        output = UNKNOWN
    else:
        cell = row[schema.response_column]
        if cell == "":
            raise MissingResponse(f"empty response cell in column {schema.response_column!r}")
        if schema.response_type == CATEGORICAL:
            output = CategoricalOutput(cell)
        else:
            output = RealOutput(_parse_numeric(schema.response_column, cell))

    return make_example(pairs, output)


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

    def apply(self, value: float) -> float:
        return (value - self.mean) / self.std


@dataclass(frozen=True)
class MinMaxFit:
    lo: float
    hi: float

    def apply(self, value: float) -> float:
        return (value - self.lo) / (self.hi - self.lo)


@dataclass(frozen=True)
class IdentityFit:
    """Stand-in for a degenerate fit (constant feature); values pass through."""

    def apply(self, value: float) -> float:
        return value


FeatureFit = ZScoreFit | MinMaxFit | IdentityFit


@dataclass(frozen=True)
class TransformerMap:
    """Fitted per-feature transforms plus the provenance describing them."""

    spec: TransformSpec
    fits: dict[str, FeatureFit]
    warnings: tuple[str, ...]
    provenance: PObj


def fit_transformers(dataset: Dataset, spec: TransformSpec) -> TransformerMap:
    """Fit the requested transform kinds over the dataset's observed values.

    Statistics come from the feature domain, so implicit zeros of absent
    features are not counted.  Degenerate fits (zero spread) become
    identity transforms and are reported in ``warnings`` rather than
    failing the pipeline.
    """
    names = spec.features if spec.features is not None else dataset.feature_domain.names()
    fits: dict[str, FeatureFit] = {}
    warnings: list[str] = []
    fitted_prov: dict[str, PMap] = {}
    for name in names:
        if name not in dataset.feature_domain:
            warnings.append(f"unknown-feature:{name}")
            continue
        info = dataset.feature_domain[name]
        if spec.kind == ZSCORE:
            std = math.sqrt(info.variance)
            if std == 0.0:
                fits[name] = IdentityFit()
                warnings.append(f"degenerate:{name}")
            else:
                fits[name] = ZScoreFit(info.mean, std)
                fitted_prov[name] = PMap({"mean": PFlt(info.mean), "std": PFlt(std)})
        else:
            if info.min == info.max:
                fits[name] = IdentityFit()
                warnings.append(f"degenerate:{name}")
            else:
                fits[name] = MinMaxFit(info.min, info.max)
                fitted_prov[name] = PMap({"min": PFlt(info.min), "max": PFlt(info.max)})

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
    """Rewrite feature values through the fitted transforms.

    Features without a fit pass through unchanged.  The result is a new
    dataset with recomputed domains and the transformation appended to the
    provenance's ordered transformation list.
    """
    new_examples = []
    for ex in dataset.examples:
        feats = tuple(
            FeatureValue(f.name, transformer.fits[f.name].apply(f.value))
            if f.name in transformer.fits
            else f
            for f in ex.features
        )
        new_examples.append(Example(feats, ex.output, ex.weight))
    prov = _append_transformation(dataset.provenance, transformer.provenance)
    return dataset_from_examples(new_examples, prov)


def _append_transformation(dp: PObj, tprov: PObj) -> PObj:
    existing = instance_section(dp).get("transformations", PList())
    return with_instance_entry(dp, "transformations", PList(tuple(existing.items) + (tprov,)))


def transform_spec_from_provenance(tprov: PObj) -> TransformSpec:
    """Recover the fit spec (not the fitted numbers) from a recorded transform."""
    kind = _TRANSFORM_KINDS.get(tprov.class_name)
    if kind is None:
        from .errors import UnknownClass

        raise UnknownClass(f"unknown transformation class {tprov.class_name!r}")
    features = config_section(tprov).get("features")
    if features is None or (isinstance(features, PStr) and features.value == "*"):
        return TransformSpec(kind, None)
    if not isinstance(features, PList):
        raise ParseError("transformation 'features' must be a list or \"*\"")
    return TransformSpec(kind, tuple(_text(f) for f in features.items))
