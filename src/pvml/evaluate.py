"""Model evaluation; every evaluation stores the model and test-data provenance.

Metric conventions: any 0/0 ratio (precision, recall, F1) is defined as 0;
macro averages are unweighted over the label universe (the union of model
and test labels); micro averages pool counts.  Example weights are ignored
at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import CATEGORICAL, REAL, Dataset, Model, predict_chunked
from .data import TransformerMap, append_transformation
from .errors import TaskMismatch
from .provenance import PObj, object_provenance, to_json_value

CLASSIFICATION_EVAL_CLASS = "pvml.ClassificationEvaluation"
REGRESSION_EVAL_CLASS = "pvml.RegressionEvaluation"


def evaluation_provenance(
    kind: str, model: Model, dataset: Dataset, transformers: Sequence[TransformerMap] = ()
) -> PObj:
    """Model and test-data provenance; the test data lists ``transformers``
    as :func:`~pvml.data.apply_transformers` would have appended them."""
    test_data = dataset.provenance
    for transformer in transformers:
        test_data = append_transformation(test_data, transformer.provenance)
    return object_provenance(
        kind,
        config={},
        instance={"model": model.provenance, "test-data": test_data},
    )


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


def evaluate_classification(
    model: Model, dataset: Dataset, transformers: Sequence[TransformerMap] = ()
) -> ClassificationEvaluation:
    """Score ``dataset`` in batches, each rescaled by ``transformers`` in order."""
    if model.task != CATEGORICAL:
        raise TaskMismatch("model does not perform classification")
    if dataset.task != CATEGORICAL:
        raise TaskMismatch("dataset does not carry classification ground truth")

    truths = [ex.output.label for ex in dataset.examples]
    preds = [p.output.label for p in predict_chunked(model, dataset.examples, transformers)]

    labels = sorted(set(model.output_domain.labels()) | set(truths))
    confusion: dict[str, dict[str, int]] = {t: {} for t in labels}
    for t, p in zip(truths, preds):
        confusion.setdefault(t, {})
        confusion[t][p] = confusion[t].get(p, 0) + 1

    n = len(truths)
    correct = sum(confusion.get(label, {}).get(label, 0) for label in labels)
    per_label: dict[str, LabelMetrics] = {}
    tp_total = fp_total = fn_total = 0
    for label in labels:
        tp = confusion.get(label, {}).get(label, 0)
        fp = sum(confusion.get(t, {}).get(label, 0) for t in labels if t != label)
        fn = sum(c for p, c in confusion.get(label, {}).items() if p != label)
        precision = _ratio(tp, tp + fp)
        recall = _ratio(tp, tp + fn)
        f1 = _ratio(2 * precision * recall, precision + recall)
        per_label[label] = LabelMetrics(precision, recall, f1)
        tp_total += tp
        fp_total += fp
        fn_total += fn

    micro_p = _ratio(tp_total, tp_total + fp_total)
    micro_r = _ratio(tp_total, tp_total + fn_total)
    return ClassificationEvaluation(
        confusion=confusion,
        accuracy=correct / n,
        per_label=per_label,
        macro_precision=sum(m.precision for m in per_label.values()) / len(labels),
        macro_recall=sum(m.recall for m in per_label.values()) / len(labels),
        macro_f1=sum(m.f1 for m in per_label.values()) / len(labels),
        micro_precision=micro_p,
        micro_recall=micro_r,
        micro_f1=_ratio(2 * micro_p * micro_r, micro_p + micro_r),
        num_examples=n,
        provenance=evaluation_provenance(CLASSIFICATION_EVAL_CLASS, model, dataset, transformers),
    )


def evaluate_regression(
    model: Model, dataset: Dataset, transformers: Sequence[TransformerMap] = ()
) -> RegressionEvaluation:
    """Score ``dataset`` in batches, each rescaled by ``transformers`` in order."""
    if model.task != REAL:
        raise TaskMismatch("model does not perform regression")
    if dataset.task != REAL:
        raise TaskMismatch("dataset does not carry regression ground truth")

    targets = [ex.output.value for ex in dataset.examples]
    preds = predict_chunked(model, dataset.examples, transformers)
    residuals = [p.output.value - y for p, y in zip(preds, targets)]

    n = len(residuals)
    ss_res = sum(r * r for r in residuals)
    mean_y = sum(targets) / n
    ss_tot = sum((y - mean_y) ** 2 for y in targets)
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res == 0 else 0.0
    return RegressionEvaluation(
        rmse=(ss_res / n) ** 0.5,
        mae=sum(abs(r) for r in residuals) / n,
        r2=r2,
        num_examples=n,
        provenance=evaluation_provenance(REGRESSION_EVAL_CLASS, model, dataset, transformers),
    )
