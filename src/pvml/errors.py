"""Exception hierarchy for pvml.

Every library-specific failure derives from :class:`PvmlError` so callers
(including the CLI) can map whole families of errors to a single outcome.
"""


class PvmlError(Exception):
    """Base class for all pvml errors."""


# --- example / dataset construction ---------------------------------------

class NonFiniteFeature(PvmlError):
    """A feature value was NaN or infinite."""


class InvalidFeatureName(PvmlError, ValueError):
    """A feature or schema column name was empty or held a control character."""


class NonFiniteStatistic(PvmlError):
    """A statistic of a dataset (a mean, variance or spread) overflowed."""


class EmptyExample(PvmlError):
    """An example ended up with no features."""


class MixedOutputTypes(PvmlError):
    """A source yielded outputs of more than one task type."""


class EmptySource(PvmlError):
    """A data source yielded no examples."""


class UnlabelledExample(PvmlError):
    """An operation that needs ground truth met an example without it."""


# --- inference-time contract checks ----------------------------------------

class NoFeatureOverlap(PvmlError):
    """The input example shares no features with the model."""


class OutputTypeMismatch(PvmlError):
    """The caller asked a model for the wrong task type."""


class EmptyScores(PvmlError):
    """A score map was empty where a winner is required."""


class TaskMismatch(PvmlError):
    """Dataset, trainer or model task types disagree."""


class PipelineMismatch(PvmlError):
    """A dataset records transformations other than the model's own pipeline."""


# --- optimization -----------------------------------------------------------

class ShapeMismatch(PvmlError):
    """Parameter, state and gradient shapes disagree."""


class NonFiniteGradient(PvmlError):
    """A gradient contained NaN or infinite entries."""


class NonFiniteScore(PvmlError):
    """A model's score for an example overflowed to a non-finite value."""


# --- trees / ensembles -------------------------------------------------------

class EmptyNode(PvmlError):
    """Impurity was requested for a node with no weight."""


class AllMembersRejected(PvmlError):
    """Boosting discarded every candidate member."""


class InconsistentTask(PvmlError):
    """Ensemble members produced predictions of different task types."""


# --- columnar data -----------------------------------------------------------

class UnparseableNumeric(PvmlError):
    """A cell declared numeric could not be parsed as a finite float."""

    def __init__(self, column: str, value: str):
        super().__init__(f"column {column!r}: cannot parse {value!r} as a finite number")
        self.column = column
        self.value = value


class MissingResponse(PvmlError):
    """A training row had no value in the response column."""


class HeaderMismatch(PvmlError):
    """The CSV header lacks columns that the schema names."""

    def __init__(self, missing: list[str]):
        super().__init__(f"header is missing schema columns: {', '.join(sorted(missing))}")
        self.missing = tuple(sorted(missing))


class CsvParseError(PvmlError):
    """A CSV file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


# --- provenance serialization -------------------------------------------------

class ParseError(PvmlError):
    """Malformed provenance or configuration text, or a provenance value nested too deeply."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None and column is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownTag(PvmlError):
    """A serialized value carried an unrecognized type tag."""


# --- model persistence ----------------------------------------------------------

class FormatError(PvmlError):
    """A model file is not a well-formed container, or a model cannot be written as one."""


class UnknownModelClass(PvmlError):
    """A model file names a class that is not registered."""


# --- reconstruction / reproduction ------------------------------------------------

class UnknownClass(PvmlError):
    """A configuration names a class that is not registered."""


class MissingProperty(PvmlError):
    """A configuration record lacks a required property."""

    def __init__(self, name: str):
        super().__init__(f"required property {name!r} is missing")
        self.name = name


class ResourceChanged(PvmlError):
    """A reloaded resource no longer matches its recorded hash."""


class ReproductionMismatch(PvmlError):
    """A reproduced model's provenance hash differs from the original."""
