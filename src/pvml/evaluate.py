"""Model evaluation; every evaluation stores the model and test-data provenance.

Metric conventions: any 0/0 ratio (precision, recall, F1) is defined as 0;
macro averages are unweighted over the label universe (the union of model
and test labels); micro averages pool counts.  Example weights are ignored
at evaluation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    CATEGORICAL,
    REAL,
    UNKNOWN,
    Dataset,
    Model,
    Output,
    _fold,
    build_dataset,
    data_provenance,
    real_domain,
)
from .data import CsvDataSource, in_model_space, pipeline_provenance
from .errors import EmptySource, NonFiniteFeature, TaskMismatch, UnlabelledExample
from .provenance import PObj, object_provenance, to_json_value

CLASSIFICATION_EVAL_CLASS = "pvml.ClassificationEvaluation"
REGRESSION_EVAL_CLASS = "pvml.RegressionEvaluation"

_TASK_NAMES = {CATEGORICAL: "classification", REAL: "regression"}


def evaluation_provenance(kind: str, model: Model, test_data: PObj) -> PObj:
    """Model and test-data provenance."""
    return object_provenance(kind, config={}, instance={"model": model.provenance, "test-data": test_data})


@dataclass(frozen=True)
class LabelMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ClassificationEvaluation:
    confusion: dict[str, dict[str, int]]  # true label -> predicted label -> count
    accuracy: float
    per_label: dict[str, LabelMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    micro_precision: float
    micro_recall: float
    micro_f1: float
    num_examples: int
    provenance: PObj

    def to_report(self) -> dict:
        return {
            "task": CATEGORICAL,
            "metrics": {
                "accuracy": self.accuracy,
                "macro-precision": self.macro_precision,
                "macro-recall": self.macro_recall,
                "macro-f1": self.macro_f1,
                "micro-precision": self.micro_precision,
                "micro-recall": self.micro_recall,
                "micro-f1": self.micro_f1,
                "per-label": {
                    label: {"precision": m.precision, "recall": m.recall, "f1": m.f1}
                    for label, m in self.per_label.items()
                },
                "num-examples": self.num_examples,
            },
            "confusion": self.confusion,
            "provenance": to_json_value(self.provenance),
        }


@dataclass(frozen=True)
class RegressionEvaluation:
    rmse: float
    mae: float
    r2: float
    num_examples: int
    provenance: PObj

    def to_report(self) -> dict:
        return {
            "task": REAL,
            "metrics": {
                "rmse": self.rmse,
                "mae": self.mae,
                "r2": self.r2,
                "num-examples": self.num_examples,
            },
            "confusion": {},
            "provenance": to_json_value(self.provenance),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _scored(model: Model, data: Dataset | CsvDataSource, task: str) -> tuple[list[Output], list[Output], PObj]:
    """The truths, the model's outputs and the test-data provenance of ``data``,
    scored as columns in the model's space: a dataset's through
    :func:`~pvml.data.in_model_space`, a CSV source's chunk by chunk, with the
    provenance and the first error of that route for ``build_dataset(data)``.
    A file without rows, without the response column or with regression
    targets whose variance overflows raises before any row is scored."""
    name = _TASK_NAMES[task]
    if model.task != task:
        raise TaskMismatch(f"model does not perform {name}")
    if (data.task if isinstance(data, Dataset) else data.schema.response_type) != task:
        raise TaskMismatch(f"dataset does not carry {name} ground truth")
    if isinstance(data, Dataset):
        columns, _, provenance = in_model_space(model, data)
        return data.outputs(), model.score_compiled(columns).outputs, provenance

    names: set[str] = set()
    try:
        chunks = list(data.compiled(model, names))
    except NonFiniteFeature:
        build_dataset(data)  # a rescaled value overflowed: the file's own faults come first, as for a dataset
        raise
    truths = [output for _, _, outputs in chunks for output in outputs]
    if not truths:
        raise EmptySource("data source yielded no examples")
    if any(output is UNKNOWN for output in truths):
        raise UnlabelledExample("datasets require ground truth on every example")
    if task == REAL:
        real_domain(output.value for output in truths)
    scored = [output for columns, _, _ in chunks for output in model.score_compiled(columns).outputs]
    return truths, scored, data_provenance(len(truths), len(names), pipeline_provenance(model), data.provenance)


def evaluate_classification(model: Model, data: Dataset | CsvDataSource) -> ClassificationEvaluation:
    """Score ``data``, a dataset or a labelled CSV source, in batches, in the
    model's space: raw data goes through the model's recorded pipeline."""
    outputs, scored, test_data = _scored(model, data, CATEGORICAL)
    truths = [output.label for output in outputs]
    preds = [output.label for output in scored]

    labels = sorted(set(model.output_domain.labels()) | set(truths))
    confusion: dict[str, dict[str, int]] = {t: {} for t in labels}
    for t, p in zip(truths, preds):
        confusion[t][p] = confusion[t].get(p, 0) + 1

    n = len(truths)
    per_label: dict[str, LabelMetrics] = {}
    tp_total = 0
    for label in labels:
        tp = confusion[label].get(label, 0)
        fp = sum(confusion[t].get(label, 0) for t in labels if t != label)
        fn = sum(c for p, c in confusion[label].items() if p != label)
        precision = _ratio(tp, tp + fp)
        recall = _ratio(tp, tp + fn)
        f1 = _ratio(2 * precision * recall, precision + recall)
        per_label[label] = LabelMetrics(precision, recall, f1)
        tp_total += tp

    # a miss is a false positive of one label and a false negative of another,
    # so micro-averaged precision and recall are both the accuracy
    micro_p = micro_r = tp_total / n
    return ClassificationEvaluation(
        confusion=confusion,
        accuracy=micro_p,
        per_label=per_label,
        macro_precision=_fold(m.precision for m in per_label.values()) / len(labels),
        macro_recall=_fold(m.recall for m in per_label.values()) / len(labels),
        macro_f1=_fold(m.f1 for m in per_label.values()) / len(labels),
        micro_precision=micro_p,
        micro_recall=micro_r,
        micro_f1=_ratio(2 * micro_p * micro_r, micro_p + micro_r),
        num_examples=n,
        provenance=evaluation_provenance(CLASSIFICATION_EVAL_CLASS, model, test_data),
    )


def evaluate_regression(model: Model, data: Dataset | CsvDataSource) -> RegressionEvaluation:
    """Score ``data``, a dataset or a labelled CSV source, in batches, in the
    model's space: raw data goes through the model's recorded pipeline."""
    outputs, scored, test_data = _scored(model, data, REAL)
    targets = [output.value for output in outputs]
    residuals = [output.value - y for output, y in zip(scored, targets)]

    n = len(residuals)
    ss_res = _fold(r * r for r in residuals)
    mean_y = _fold(targets) / n
    ss_tot = _fold((y - mean_y) * (y - mean_y) for y in targets)
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res == 0 else 0.0
    return RegressionEvaluation(
        rmse=math.sqrt(ss_res / n),
        mae=_fold(abs(r) for r in residuals) / n,
        r2=r2,
        num_examples=n,
        provenance=evaluation_provenance(REGRESSION_EVAL_CLASS, model, test_data),
    )
