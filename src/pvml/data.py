"""Data ingestion and transformation with provenance capture.

Columnar rows become sparse examples (numeric columns parse directly,
categorical columns binarize as ``column@value``, text columns become
token counts); CSV files load with a SHA-256 of their raw bytes recorded;
fitted rescaling transforms remember both their spec and their fitted
statistics so a pipeline can be replayed from provenance alone.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import struct
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, compress, repeat
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import (
    BATCH_ROWS,
    CATEGORICAL,
    REAL,
    Block,
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
    check_feature_names,
    compile_features,
    feature_ids,
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
    PvmlError,
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
    _TAG_FLT,
    _TAG_LIST,
    _TAG_STR,
    _raw_str,
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


class _Codes(dict):
    """A code per key, given when it is first met: ``make(key)`` or, by default, the number
    of keys before it (a ``make`` that read the table would tie it in a reference cycle)."""

    def __init__(self, make=None):
        self._make = make

    def __missing__(self, key):
        code = self[key] = len(self) if self._make is None else self._make(key)
        return code


def featurize(schema: ColumnarSchema, columns: Sequence[Sequence[str]], responses: Sequence[str] | None, n: int) -> Block:
    """The :class:`~pvml.core.Block` of the ``n`` rows whose cells ``columns`` holds, one
    sequence per processor of ``schema``, and whose response cells ``responses`` holds
    (``None`` for unlabelled rows), made on its own.  One row raises, in this order, for
    its first bad numeric cell in column order, a bad response cell, no features
    (:class:`EmptyExample`) and its first bad name in name order.  A larger block that
    fails featurizes its halves apart, so its first bad row raises."""
    try:
        return _featurize(schema, columns, responses, n)
    except PvmlError:
        if n == 1:
            raise
    for part in (slice(0, n // 2), slice(n // 2, n)):
        featurize(schema, [column[part] for column in columns], None if responses is None else responses[part], len(range(n)[part]))
    raise AssertionError("a block that fails has a half that fails")


def _featurize(schema: ColumnarSchema, columns: Sequence[Sequence[str]], responses: Sequence[str] | None, n: int) -> Block:
    """:func:`featurize` in one pass.  Numeric columns parse through :func:`_parse_numeric`,
    categorical columns binarize as ``column@value`` and text columns become ``column@token``
    counts, each name coded once, in order of first sight.  A name met twice in a row sums
    its values in column order from 0.0, as :func:`~pvml.core.make_example` merges pairs:
    one sort of (row, name) keys groups them and ``np.bincount`` adds each group in order."""
    intern = _Codes()
    parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for processor, cells in zip(schema.processors, columns):
        table = _Codes(lambda cell, at=f"{processor.column}@": intern[at + cell] if cell else -1)
        if processor.kind == NUMERIC:  # a numeric cell's name is its column
            rows = np.fromiter(compress(range(n), cells), np.intp)
            codes = np.full(len(rows), intern[processor.column] if len(rows) else -1, np.intp)
            values = _numeric_cells(processor.column, cells)
        elif processor.kind == CATEGORICAL_FIELD:  # the empty cell's code is -1
            codes = np.fromiter(map(table.__getitem__, cells), np.intp, n)
            rows = np.flatnonzero(codes >= 0)
            codes, values = codes.take(rows), np.ones(len(rows))
        else:
            tokens = list(map(_tokens, cells))
            rows = np.arange(n).repeat(np.fromiter(map(len, tokens), np.intp, n))
            codes = np.fromiter(map(table.__getitem__, chain.from_iterable(tokens)), np.intp, len(rows))
            values = np.ones(len(rows))
        parts.append((rows, codes, values))
    rows, codes, values = map(np.concatenate, zip(*parts))
    if responses is None:
        outputs = [UNKNOWN] * n
    elif "" in responses:
        raise MissingResponse(f"empty response cell in column {schema.response_column!r}")
    elif schema.response_type == CATEGORICAL:
        outputs = list(map(CategoricalOutput, responses))
    else:
        outputs = list(map(RealOutput, map(_parse_numeric, repeat(schema.response_column), responses)))

    vocabulary = sorted(intern)  # every name interned is met in a row
    rank = np.argsort(np.fromiter(map(intern.__getitem__, vocabulary), np.intp, len(vocabulary)))  # each code's place
    width = max(len(vocabulary), 1)
    keys, entry = np.unique(rows * width + rank.take(codes), return_inverse=True)
    ids, totals = (keys % width).astype(np.int32), np.bincount(keys // width, minlength=n)
    if not totals.all():
        raise EmptyExample("an example needs at least one feature")
    check_feature_names(vocabulary)
    # No sum overflows: parsed numbers are finite, no two numeric columns
    # share a name, and the largest float plus a token count rounds to itself.
    summed = np.bincount(entry, weights=values, minlength=len(keys))
    return Block(vocabulary, ids, summed, totals.tolist(), outputs, np.ones(n))


_TOKEN_BYTES = bytes(b if 48 <= b <= 57 or 97 <= b <= 122 else 32 for b in range(256))


def _tokens(cell: str) -> list[str]:
    """``re.findall("[a-z0-9]+", cell.lower())`` in one C-level pass: any other
    character, a non-ASCII one as ``?``, becomes a space, and spaces split."""
    return cell.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).decode("ascii").split()


def featurize_row(schema: ColumnarSchema, row: Mapping[str, str]) -> Example:
    """One row of strings as an example: its block alone, raising what :func:`featurize`
    raises.  Empty feature cells are skipped; a missing response *key* means unlabelled."""
    responses = [row[schema.response_column]] if schema.response_column in row else None
    return featurize(schema, [[row.get(column, "")] for column in schema.columns()], responses, 1).examples()[0]


def _numeric_cells(column: str, cells: Sequence[str]) -> np.ndarray:
    """The non-empty ``cells`` parsed in one pass; on a bad cell, :func:`_parse_numeric`
    runs over them, accepting the cells ``float`` accepts, so that the first bad cell raises."""
    try:
        values = np.fromiter(map(float, filter(None, cells)), np.float64)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.fromiter(map(_parse_numeric, repeat(column), filter(None, cells)), np.float64)


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
    """Content hash of an in-memory example list: the SHA-256 of the canonical
    encoding of the list of ``[features, output, weight]``, where ``features``
    lists ``[name, value]`` pairs and an unlabelled output is ``"?"``.  The
    bytes stream into the hash; no provenance value is built."""
    pair, triple = _TAG_LIST + struct.pack(">I", 2), _TAG_LIST + struct.pack(">I", 3)
    digest = hashlib.sha256(_TAG_LIST + struct.pack(">I", len(examples)))
    for ex in examples:
        chunk = [triple, _TAG_LIST, struct.pack(">I", len(ex.features))]
        for f in ex.features:
            chunk += (pair, _TAG_STR, _raw_str(f.name), _TAG_FLT, struct.pack(">d", f.value))
        if isinstance(ex.output, RealOutput):
            chunk += (_TAG_FLT, struct.pack(">d", ex.output.value))
        else:
            chunk += (_TAG_STR, _raw_str(ex.output.label if isinstance(ex.output, CategoricalOutput) else "?"))
        chunk += (_TAG_FLT, struct.pack(">d", ex.weight))
        digest.update(b"".join(chunk))
    return digest.hexdigest()


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
            raw.decode("utf-8")  # the whole file, before any row is read
        except UnicodeDecodeError as exc:
            raise CsvParseError(f"not valid UTF-8: {exc}") from exc
        with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="") as lines:
            self._header, self._rows = self._parse(lines)
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

    def _parse(self, lines: Iterator[str]) -> tuple[list[str], list[list[str]]]:
        reader = csv.reader(lines, delimiter=",", quotechar='"')
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
        if repeated := sorted(c for c in required | {self.schema.response_column} if header.count(c) > 1):
            raise CsvParseError(f"header repeats schema columns: {', '.join(repeated)}", line=1)
        rows = []
        try:
            for row in reader:
                if not row:
                    continue  # blank line
                if len(row) != len(header):
                    raise CsvParseError(
                        f"expected {len(header)} fields, found {len(row)}", line=reader.line_num
                    )
                rows.append(row)
        except csv.Error as exc:
            raise CsvParseError(str(exc), line=reader.line_num) from exc
        return header, rows

    def __iter__(self) -> Iterator[Example]:
        """The rows as examples, built from the columns of :meth:`blocks`."""
        for block in self.blocks():
            yield from block.examples()

    def __len__(self) -> int:
        return len(self._rows)

    def blocks(self) -> Iterator[Block]:
        """Each :data:`~pvml.core.BATCH_ROWS` rows as a block that :func:`featurize` makes on its own; a row
        that :func:`featurize_row` rejects raises the same error once the blocks before its own are yielded."""
        for start in range(0, len(self._rows), BATCH_ROWS):
            rows = self._rows[start:start + BATCH_ROWS]
            cells = dict(zip(self._header, zip(*rows)))  # each column's cells
            yield featurize(self.schema, [cells[c] for c in self.schema.columns()], cells.get(self.schema.response_column), len(rows))

    def compiled(self, model: Model, seen: set[str] | None = None) -> Iterator[tuple[Columns, list[int], list[Output]]]:
        """The rows in ``model``'s space, block by block, for :meth:`~pvml.core.Model.predict_compiled`:
        each block's :func:`_compiled` columns and each row's feature count and output.  ``seen``, when
        given, gains each block's vocabulary: the names a dataset of the file would have."""
        domain, pipeline = model.feature_domain, recorded_pipeline(model)
        for block in self.blocks():
            if seen is not None:
                seen.update(block.vocabulary)
            yield _compiled(domain, pipeline, block.vocabulary, block.ids, block.values, block.totals), block.totals, block.outputs


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
    done = dataset.provenance.instance.get("transformations", PList())
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
    transformations = data_provenance.instance.get("transformations", PList())
    if not isinstance(transformations, PList) or not all(isinstance(t, PObj) for t in transformations):
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
    data = model.provenance.instance.get("data")
    if not isinstance(data, PObj):
        raise MissingProperty("data")
    return _transformations(data)


def _compiled(domain: FeatureDomain, pipeline: Sequence[TransformerMap], vocabulary, ids, values, totals) -> Columns:
    """Raw rows given flat, as a :class:`~pvml.core.Block` holds them, with ids into
    ``vocabulary``, in the space of a model of ``domain`` and ``pipeline``: the
    columns that ``compile_examples(..., targets=False)`` makes of their examples,
    rescaled."""
    indptr, ids, array = compile_features(feature_ids(domain.ids, vocabulary).take(ids), values, totals)
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
    done = provenance.instance.get("transformations", PList())
    if done == recorded:
        pipeline = []
    elif done == PList():
        provenance = with_instance_entry(provenance, "transformations", recorded)
    else:
        raise PipelineMismatch("the dataset records transformations other than the model's pipeline")
    columns = dataset.columns
    totals = np.diff(columns.indptr).tolist()
    names = dataset.feature_domain.names()
    return _compiled(model.feature_domain, pipeline, names, columns.feature_ids, columns.values, totals), totals, provenance


def _recorded_map(tprov: PObj) -> TransformerMap:
    spec = transform_spec_from_provenance(tprov)
    fitted, warnings = tprov.instance.get("fitted"), tprov.instance.get("warnings", PList())
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
    features = tprov.config.get("features")
    if features is None or (isinstance(features, PStr) and features.value == "*"):
        return TransformSpec(kind, None)
    if not isinstance(features, PList):
        raise ParseError("transformation 'features' must be a list or \"*\"")
    return TransformSpec(kind, tuple(_text(f) for f in features.items))
