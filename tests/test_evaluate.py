"""Evaluation metrics and the provenance pairing stored with them."""

import pytest

from pvml.core import (
    CategoricalDomain,
    CategoricalOutput,
    FeatureDomain,
    Model,
    RealDomain,
    RealOutput,
    build_dataset,
    data_provenance,
    make_example,
)
from pvml.data import InMemoryDataSource
from pvml.errors import MissingProperty, TaskMismatch
from pvml.evaluate import evaluate_classification, evaluate_regression
from pvml.provenance import object_provenance, provenance_hash


def _provenance(model_class):
    """A model provenance whose training data records no transformation, so
    datasets are scored as they are."""
    return object_provenance(model_class, instance={"data": data_provenance(0, 1, (), object_provenance("test.Source"))})


class _FixedClassifier(Model):
    """Predicts preds[i] for the example whose 'i' feature equals i."""

    model_class = "test.FixedClassifier"

    def __init__(self, preds, labels):
        n = len(preds)
        domain = FeatureDomain(["i"], [n], [0.0], [float(n)], [n / 2.0], [1.0])
        super().__init__(
            "fixed",
            _provenance("test.FixedClassifier"),
            domain,
            CategoricalDomain({label: 1 for label in labels}),
        )
        self._preds = preds

    def _predict_intersected(self, sparse):
        label = self._preds[int(sparse[0])]
        scores = {l: (1.0 if l == label else 0.0) for l in self.output_domain.labels()}
        return CategoricalOutput(label), scores


class _FixedRegressor(Model):
    model_class = "test.FixedRegressor"

    def __init__(self, preds):
        n = len(preds)
        domain = FeatureDomain(["i"], [n], [0.0], [float(n)], [n / 2.0], [1.0])
        super().__init__(
            "fixed",
            _provenance("test.FixedRegressor"),
            domain,
            RealDomain(min(preds), max(preds), sum(preds) / n, 0.0, n),
        )
        self._preds = preds

    def _predict_intersected(self, sparse):
        return RealOutput(self._preds[int(sparse[0])]), {}


def _clf_dataset(truths):
    examples = [
        make_example([("i", float(i))], CategoricalOutput(t)) for i, t in enumerate(truths)
    ]
    return build_dataset(InMemoryDataSource(examples))


def _reg_dataset(targets):
    examples = [
        make_example([("i", float(i))], RealOutput(t)) for i, t in enumerate(targets)
    ]
    return build_dataset(InMemoryDataSource(examples))


class TestClassificationEvaluation:
    def test_hand_counted_confusion(self):
        ev = evaluate_classification(
            _FixedClassifier(["a", "b", "b"], ["a", "b"]), _clf_dataset(["a", "a", "b"])
        )
        assert ev.accuracy == pytest.approx(2 / 3)
        assert ev.per_label["a"].precision == 1.0
        assert ev.per_label["a"].recall == 0.5
        assert ev.confusion == {"a": {"a": 1, "b": 1}, "b": {"b": 1}}

    def test_perfect_predictions(self):
        ev = evaluate_classification(
            _FixedClassifier(["a", "b", "a"], ["a", "b"]), _clf_dataset(["a", "b", "a"])
        )
        assert ev.accuracy == 1.0
        assert all(m.f1 == 1.0 for m in ev.per_label.values())

    def test_never_predicted_label_gets_zero_precision(self):
        ev = evaluate_classification(
            _FixedClassifier(["a", "a", "a"], ["a", "b"]), _clf_dataset(["a", "a", "b"])
        )
        assert ev.per_label["b"].precision == 0.0
        assert ev.per_label["b"].recall == 0.0
        assert ev.per_label["b"].f1 == 0.0

    def test_micro_metrics_equal_accuracy(self):
        ev = evaluate_classification(
            _FixedClassifier(["a", "b", "b", "a"], ["a", "b"]),
            _clf_dataset(["a", "a", "b", "b"]),
        )
        assert ev.micro_precision == ev.accuracy
        assert ev.micro_recall == ev.accuracy
        assert ev.micro_f1 == ev.accuracy

    def test_confusion_row_sums_are_truth_counts(self):
        truths = ["a", "a", "b", "b", "b", "c"]
        ev = evaluate_classification(
            _FixedClassifier(["a", "b", "b", "c", "b", "a"], ["a", "b", "c"]),
            _clf_dataset(truths),
        )
        for label in ("a", "b", "c"):
            assert sum(ev.confusion[label].values()) == truths.count(label)

    def test_label_universe_includes_unmodelled_truths(self):
        ev = evaluate_classification(
            _FixedClassifier(["a", "a"], ["a"]), _clf_dataset(["a", "z"])
        )
        assert "z" in ev.per_label

    def test_counts_sum_to_test_size(self):
        ev = evaluate_classification(
            _FixedClassifier(["a", "b", "a"], ["a", "b"]), _clf_dataset(["b", "b", "a"])
        )
        assert sum(sum(row.values()) for row in ev.confusion.values()) == 3

    def test_provenance_links_model_and_test_data(self):
        model = _FixedClassifier(["a"], ["a"])
        ds = _clf_dataset(["a"])
        ev = evaluate_classification(model, ds)
        inst = ev.provenance.instance
        assert provenance_hash(inst["model"]) == provenance_hash(model.provenance)
        assert provenance_hash(inst["test-data"]) == provenance_hash(ds.provenance)

    def test_a_model_without_training_data_provenance_raises(self):
        model = _FixedClassifier(["a"], ["a"])
        model.provenance = object_provenance("test.FixedClassifier")
        with pytest.raises(MissingProperty):
            evaluate_classification(model, _clf_dataset(["a"]))

    def test_task_mismatch(self):
        with pytest.raises(TaskMismatch):
            evaluate_classification(_FixedRegressor([1.0]), _clf_dataset(["a"]))
        with pytest.raises(TaskMismatch):
            evaluate_classification(_FixedClassifier(["a"], ["a"]), _reg_dataset([1.0]))


class TestRegressionEvaluation:
    def test_perfect_fit(self):
        ev = evaluate_regression(_FixedRegressor([1.0, 2.0]), _reg_dataset([1.0, 2.0]))
        assert (ev.rmse, ev.mae, ev.r2) == (0.0, 0.0, 1.0)

    def test_hand_computed_errors(self):
        ev = evaluate_regression(_FixedRegressor([0.0, 0.0]), _reg_dataset([1.0, -1.0]))
        assert ev.rmse == pytest.approx(1.0)
        assert ev.mae == pytest.approx(1.0)
        assert ev.r2 == pytest.approx(0.0)

    def test_constant_targets_with_error_give_zero_r2(self):
        ev = evaluate_regression(_FixedRegressor([2.0, 2.0]), _reg_dataset([1.0, 1.0]))
        assert ev.r2 == 0.0

    def test_rmse_at_least_mae(self):
        ev = evaluate_regression(
            _FixedRegressor([0.5, -1.0, 2.0]), _reg_dataset([1.0, 1.0, 1.0])
        )
        assert ev.rmse >= ev.mae

    def test_report_shape(self):
        ev = evaluate_regression(_FixedRegressor([1.0]), _reg_dataset([2.0]))
        report = ev.to_report()
        assert set(report) == {"task", "metrics", "confusion", "provenance"}
        assert report["metrics"]["rmse"] == ev.rmse
