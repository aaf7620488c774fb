"""Scoring as one table: ``pvml predict`` writes its CSV from each block's
:class:`~pvml.core.ScoreTable`, and evaluation reads the table's outputs.

The references here are the per-row routes the table replaced: the CSV
written row by row from ``predict_compiled``'s predictions, and evaluation
reports whose outputs come from the one-row ``Model.predict``.  Labels hold
a comma, a quote and non-ASCII letters; trees repeat their leaves' scores;
hand-built leaves and a kernel from outside the library score ``-0.0``
beside ``0.0`` and ``5e-324``.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from pvml.cli import _predictions_csv, main
from pvml.core import CATEGORICAL, UNKNOWN, CategoricalOutput, Model, RealOutput, ScoreTable, build_dataset, checked_example
from pvml.data import CATEGORICAL_FIELD, NUMERIC, ColumnarSchema, FieldProcessor, load_csv
from pvml.ensemble import (
    ADABOOST, BAGGING, RANDOM_FOREST, EnsembleConfig, EnsembleModel, EnsembleTrainer, combine, train_ensemble,
)
from pvml.errors import NoFeatureOverlap, NonFiniteScore
from pvml.evaluate import evaluate_classification, evaluate_regression
from pvml.optimize import AdaGrad, LinearSgdModel, Sgd, train_linear_sgd
from pvml.persist import load_model, save_model
from pvml.provenance import config_to_json, extract_configuration
from pvml.trees import LEAF, CartTrainer, TreeConfig, TreeModel, train_cart

from test_batch import _bits

LABELS = ["plain", "a,b", 'say "hi"', "ünïcödé"]
TAGS = ["red", "green", "blue"]
FEATURES = (FieldProcessor("x", NUMERIC), FieldProcessor("y", NUMERIC), FieldProcessor("tag", CATEGORICAL_FIELD))
CLF_SCHEMA = ColumnarSchema("label", "categorical", FEATURES)
REG_SCHEMA = ColumnarSchema("target", "real", FEATURES)


def _row(i):
    x, y, tag = (i * 7) % 11 / 2.0 - 1.5, (i * 5) % 13 / 3.0, TAGS[i % 3]
    label = LABELS[3] if i % 17 == 0 else LABELS[(i + (x > 1.0)) % 3]  # the last label is rare
    return x, y, tag, label, 0.5 * x - 0.25 * y + (i % 4)


def _write(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("table")
    rows = [_row(i) for i in range(60)]
    score = [_row(i + 100)[:3] for i in range(40)]
    score += [("9.5", "", "blue"), ("-4", "", ""), ("0", "0", "purple")]  # out of range, one feature, an unknown tag
    return {
        "clf": _write(tmp / "clf.csv", ["x", "y", "tag", "label"], [r[:4] for r in rows]),
        "reg": _write(tmp / "reg.csv", ["x", "y", "tag", "target"], [(*r[:3], repr(r[4])) for r in rows]),
        "clf-test": _write(tmp / "clf-test.csv", ["x", "y", "tag", "label"], [_row(i + 200)[:4] for i in range(30)]),
        "reg-test": _write(tmp / "reg-test.csv", ["x", "y", "tag", "target"], [(*_row(i + 200)[:3], repr(_row(i)[4])) for i in range(30)]),
        "score": _write(tmp / "score.csv", ["x", "y", "tag"], score),
        "dir": tmp,
    }


def _forest(variant, base, members=4):
    return EnsembleConfig(base, members, seed=11, sample_fraction=0.5, variant=variant)


class _Outside(Model):
    """A kernel from outside the library whose maps lack a label and score
    ``-0.0``, ``0.0`` and ``5e-324``; a regression returns those values."""

    model_class = "outside.Sparse"

    def _predict_intersected(self, sparse):
        total = sum(sparse.values())
        low = -0.0 if total < 0 else 0.0 if total < 2 else 5e-324
        if self.task != CATEGORICAL:
            return RealOutput(low), {}
        labels = self.output_domain.labels()
        return CategoricalOutput(labels[1]), {labels[2]: low, labels[1]: float(len(sparse)), labels[0]: 5e-324}


class _Zero(Model):
    """A kernel from outside the library that scores ``0.0`` and ``-0.0``
    and lacks the smallest label, so every share of its rows is 0."""

    model_class = "outside.Zero"

    def _predict_intersected(self, sparse):
        labels = self.output_domain.labels()
        return CategoricalOutput(labels[2]), {labels[2]: 0.0, labels[1]: -0.0}


def _hand_built(tree):
    """``tree``'s domains and provenance over a table of hand-written leaves
    that score ``-0.0`` beside ``0.0`` and ``5e-324``."""
    x = tree.feature_domain.ids["x"]
    nodes = [(x, 0.0, 1, 2), LEAF, (x, 1.0, 3, 4), LEAF, LEAF]
    if tree.task == CATEGORICAL:
        a, b = tree.output_domain.labels()[:2]
        leaves = {1: (1, {a: -0.0, b: 2.0}), 3: (1, {a: 1.0, b: 0.0}), 4: (1, {a: 5e-324, b: 1.0})}
    else:
        leaves = {1: (1, -0.0), 3: (1, 0.0), 4: (1, 5e-324)}
    return TreeModel("hand-built", tree.provenance, tree.feature_domain, tree.output_domain, nodes, leaves)


@pytest.fixture(scope="module")
def models(files):
    clf = build_dataset(load_csv(files["clf"], CLF_SCHEMA))
    reg = build_dataset(load_csv(files["reg"], REG_SCHEMA))
    forest = CartTrainer(TreeConfig(max_depth=3, feature_subsampling_fraction=0.5, seed=2))
    nested = EnsembleTrainer(_forest(RANDOM_FOREST, CartTrainer(TreeConfig(max_depth=2, feature_subsampling_fraction=0.5, seed=4)), 2))
    found = {
        "linear-clf": train_linear_sgd(clf, "logistic", AdaGrad(0.3), 5, 8, 3),
        "linear-reg": train_linear_sgd(reg, "squared", Sgd(0.01), 5, 8, 3),
        "tree-clf": train_cart(clf, TreeConfig(max_depth=4)),
        "tree-reg": train_cart(reg, TreeConfig(max_depth=4)),
        "forest-clf": train_ensemble(clf, _forest(RANDOM_FOREST, forest)),
        "forest-reg": train_ensemble(reg, _forest(RANDOM_FOREST, forest)),
        "adaboost": train_ensemble(clf, EnsembleConfig(CartTrainer(TreeConfig(max_depth=1, seed=3)), 5, seed=5, variant=ADABOOST)),
        "bagging-of-forests": train_ensemble(clf, _forest(BAGGING, nested, 3)),
    }
    for task in ("clf", "reg"):
        tree = found[f"tree-{task}"]
        found[f"hand-built-{task}"] = _hand_built(tree)
        found[f"outside-{task}"] = _Outside("outside", tree.provenance, tree.feature_domain, tree.output_domain)
    tree = found["tree-clf"]
    zero = _Zero("zero", tree.provenance, tree.feature_domain, tree.output_domain)
    found["zero-shares"] = EnsembleModel("zero", tree.provenance, tree.feature_domain, tree.output_domain, [zero, zero], [0.5, 1.5])
    return found


SAVED = ["linear-clf", "linear-reg", "tree-clf", "tree-reg", "forest-clf", "forest-reg", "adaboost", "bagging-of-forests"]
ALL = [*SAVED, "hand-built-clf", "hand-built-reg", "outside-clf", "outside-reg", "zero-shares"]


def _reference_csv(model, source):
    """The predictions CSV written row by row from ``predict_compiled``'s predictions."""
    labels = model.output_domain.labels() if model.task == CATEGORICAL else ()
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["row", "prediction", *labels])
    predictions = (p for columns, totals, _ in source.compiled(model) for p in model.predict_compiled(columns, totals))
    for i, pred in enumerate(predictions):
        if model.task == CATEGORICAL:
            writer.writerow([i, pred.output.label, *(repr(pred.scores.get(label, 0.0)) for label in labels)])
        else:
            writer.writerow([i, repr(pred.output.value)])
    return buffer.getvalue()


def _schema_file(files, schema, name):
    path = files["dir"] / f"{name}.json"
    path.write_text(config_to_json(extract_configuration(schema.provenance())))
    return str(path)


class TestPredictionsCsv:
    @pytest.mark.parametrize("kind", ALL)
    def test_bytes_equal_the_row_by_row_writer(self, models, files, kind):
        model = models[kind]
        source = load_csv(files["score"], CLF_SCHEMA if model.task == CATEGORICAL else REG_SCHEMA)
        assert _predictions_csv(model, source) == _reference_csv(model, source)

    @pytest.mark.parametrize("kind", SAVED)
    def test_cli_writes_the_reference_bytes(self, models, files, kind):
        model = models[kind]
        schema = CLF_SCHEMA if model.task == CATEGORICAL else REG_SCHEMA
        path, out = str(files["dir"] / f"{kind}.pvml"), files["dir"] / f"{kind}.csv"
        save_model(model, path)
        args = ["--model", path, "--data", files["score"], "--schema", _schema_file(files, schema, kind)]
        assert main(["predict", *args, "--out", str(out)]) == 0
        assert out.read_bytes() == _reference_csv(load_model(path), load_csv(files["score"], schema)).encode("utf-8")

    def test_the_inputs_reach_every_case(self, models, files):
        texts = {kind: _predictions_csv(models[kind], load_csv(files["score"], CLF_SCHEMA if "clf" in kind else REG_SCHEMA))
                 for kind in ("tree-clf", "hand-built-clf", "hand-built-reg", "outside-clf", "forest-clf")}
        header = next(csv.reader(io.StringIO(texts["tree-clf"])))
        assert header == ["row", "prediction", *sorted(LABELS)]
        for kind in ("hand-built-clf", "hand-built-reg", "outside-clf"):
            cells = {cell for row in csv.reader(io.StringIO(texts[kind])) for cell in row[2:] or row[1:]}
            assert {"-0.0", "0.0", "5e-324"} <= cells, kind
        column = [row[2] for row in csv.reader(io.StringIO(texts["tree-clf"]))][1:]
        assert len(set(column)) < len(column)  # a tree's rows repeat their leaf's scores
        members = models["forest-clf"].members
        assert any(len(m.output_domain.labels()) < len(LABELS) for m in members)  # some member lacks the rare label

    def test_no_row_is_an_empty_header(self, models, files):
        empty = _write(files["dir"] / "empty.csv", ["x", "y", "tag"], [])
        for kind in ("tree-clf", "tree-reg"):
            model = models[kind]
            source = load_csv(empty, CLF_SCHEMA if model.task == CATEGORICAL else REG_SCHEMA)
            assert _predictions_csv(model, source) == _reference_csv(model, source)


def _one_row_table(self, columns):
    """The outputs of the one-row ``Model.predict`` of each compiled row."""
    names, ids, values, bounds = self.feature_domain.names(), columns.feature_ids.tolist(), columns.values.tolist(), columns.indptr.tolist()
    outputs = [
        self.predict(checked_example([names[i] for i in ids[a:b]], values[a:b], UNKNOWN)).output
        for a, b in zip(bounds, bounds[1:])
    ]
    return ScoreTable(outputs, np.empty(0))


class TestEvaluationReports:
    @pytest.mark.parametrize("kind", ALL)
    def test_report_equals_one_row_scoring(self, models, files, kind, monkeypatch):
        model = models[kind]
        if model.task == CATEGORICAL:
            evaluate, source = evaluate_classification, load_csv(files["clf-test"], CLF_SCHEMA)
        else:
            evaluate, source = evaluate_regression, load_csv(files["reg-test"], REG_SCHEMA)
        report = json.dumps(evaluate(model, source).to_report(), sort_keys=True)
        dataset_report = json.dumps(evaluate(model, build_dataset(source)).to_report(), sort_keys=True)
        monkeypatch.setattr(Model, "score_compiled", _one_row_table)
        assert json.dumps(evaluate(model, source).to_report(), sort_keys=True) == report
        assert json.dumps(evaluate(model, build_dataset(source)).to_report(), sort_keys=True) == dataset_report


class TestRejectedTables:
    def _cli(self, files, model, rows, name):
        path, out = str(files["dir"] / f"{name}.pvml"), files["dir"] / f"{name}-out.csv"
        save_model(model, path)
        data = _write(files["dir"] / f"{name}-data.csv", ["x", "y", "tag"], rows)
        args = ["--model", path, "--data", data, "--schema", _schema_file(files, CLF_SCHEMA, name), "--out", str(out)]
        return main(["predict", *args]), out.exists(), load_csv(data, CLF_SCHEMA)

    def test_no_feature_overlap_writes_nothing(self, models, files):
        model = models["tree-clf"]
        code, written, source = self._cli(files, model, [("1", "1", "red"), ("", "", "purple")], "overlap")
        assert code == 2 and not written
        with pytest.raises(NoFeatureOverlap):
            _predictions_csv(model, source)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_score_writes_nothing(self, models, files):
        linear = models["linear-clf"]
        huge = LinearSgdModel("huge", linear.provenance, linear.feature_domain, linear.output_domain, linear.weights * 1e300)
        code, written, source = self._cli(files, huge, [("1", "1", "red"), ("1e300", "1e300", "blue")], "overflow")
        assert code == 2 and not written
        with pytest.raises(NonFiniteScore):
            _predictions_csv(huge, source)


class TestOutsideKernelLackingALabel:
    """A label an outside kernel's map lacks scores 0.0: the one-row and the
    batch predictions keep the kernel's map, which lacks it, and the score
    table, so the predictions CSV, reads 0.0 for it."""

    def test_one_row_batch_and_table_agree(self, models, files):
        model = models["outside-clf"]
        missing = model.output_domain.labels()[3]
        source = load_csv(files["score"], CLF_SCHEMA)
        examples = list(source)
        one_row = [model.predict(x) for x in examples]
        assert [_bits(p) for p in model.predict_batch(examples)] == [_bits(p) for p in one_row]
        assert all(missing not in p.scores and p.scores.get(missing, 0.0) == 0.0 for p in one_row)
        (columns, _, _), *_ = source.compiled(model)
        table = model.score_compiled(columns)
        assert table.scores[:, 3].tolist() == [0.0] * len(table.outputs)
        rows = list(csv.reader(io.StringIO(_predictions_csv(model, source))))
        assert {row[rows[0].index(missing)] for row in rows[1:]} == {"0.0"}


class TestAllZeroShares:
    """A row whose shares are all 0: an ensemble's argmax ranges over every
    label of its domain, so the smallest wins, where ``combine``'s ranges
    over the labels its members score."""

    def test_the_smallest_label_wins(self, models, files):
        model = models["zero-shares"]
        labels = model.output_domain.labels()
        examples = list(load_csv(files["score"], CLF_SCHEMA))
        one_row = [model.predict(x) for x in examples]
        assert {p.output.label for p in one_row} == {labels[0]}
        assert all(list(p.scores.items()) == [(label, 0.0) for label in labels] for p in one_row)
        assert [_bits(p) for p in model.predict_batch(examples)] == [_bits(p) for p in one_row]
        member = model.members[0].predict(examples[0])
        assert combine([member, member], [0.5, 1.5]).output.label == labels[1]


def test_regression_table_is_the_output_column(models, files):
    for kind in ("linear-reg", "tree-reg", "forest-reg", "outside-reg"):
        model = models[kind]
        (columns, _, _), *_ = load_csv(files["score"], REG_SCHEMA).compiled(model)
        table = model.score_compiled(columns)
        assert table.scores.shape == (len(table.outputs),)
        assert [float.hex(v) for v in table.scores.tolist()] == [float.hex(float(o.value)) for o in table.outputs]
        assert not any(map(math.isnan, table.scores.tolist()))
