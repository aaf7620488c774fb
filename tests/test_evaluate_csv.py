"""``pvml evaluate`` scores compiled CSV columns.

The command must write the report that ``evaluate_*`` writes for the raw
dataset ``build_dataset(load_csv(...))`` and for the CSV source itself,
each of which the library takes through the model's recorded pipeline,
byte for byte apart from timestamps; a malformed test file must raise the
same error class on every path.
"""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pvml.core
import pvml.data
from pvml.cli import main
from pvml.core import CATEGORICAL, REAL, build_dataset
from pvml.data import (
    ColumnarSchema,
    FieldProcessor,
    TransformSpec,
    apply_transformers,
    fit_transformers,
    load_csv,
)
from pvml.errors import (
    EmptySource,
    NonFiniteFeature,
    NonFiniteStatistic,
    PvmlError,
    UnlabelledExample,
    UnparseableNumeric,
)
from pvml.evaluate import evaluate_classification, evaluate_regression
from pvml.optimize import AdaGrad, train_linear_sgd
from pvml.persist import load_model, save_model
from pvml.provenance import config_to_json, extract_configuration
from pvml.trees import TreeConfig, train_cart

POOL = {
    "n1": "numeric",
    "n2": "numeric",
    "c": "categorical",
    "t": "text",
}
TRAIN_ROWS = [
    # n1, n2, c, t, label, target
    ("0.5", "10", "red", "big cat", "a", "1.5"),
    ("1.5", "12", "blue", "small dog", "b", "2.0"),
    ("0.25", "9", "red", "cat cat", "a", "0.5"),
    ("2.0", "15", "green", "dog", "b", "3.25"),
    ("1.0", "11", "blue", "big dog", "a", "1.0"),
    ("3.0", "14", "green", "small cat", "b", "4.0"),
]

NUMERIC_CELLS = st.sampled_from(["", "0", "-0.0", "0.75", "2.5", "-3", "40", "1e6"])
CATEGORICAL_CELLS = st.sampled_from(["", "red", "blue", "green", "violet"])
TEXT_CELLS = st.sampled_from(["", "cat", "big dog", "fish", "small fish cat", "Dog DOG"])
CELLS = {"numeric": NUMERIC_CELLS, "categorical": CATEGORICAL_CELLS, "text": TEXT_CELLS}
RESPONSES = {
    CATEGORICAL: st.sampled_from(["a", "b", "never-seen"]),
    REAL: st.sampled_from(["0", "1.5", "-2.25", "7", "1e3"]),
}


def _schema(task, columns):
    return ColumnarSchema("y", task, tuple(FieldProcessor(c, POOL[c]) for c in columns))


def _write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _train(directory, task, columns, learner, transform):
    """Train on the fixed rows, rescaled by a fit of ``transform`` unless it
    is None, and save the model; returns the schema file and the model file."""
    schema = _schema(task, columns)
    train_csv = Path(directory, "train.csv")
    response = 4 if task == CATEGORICAL else 5
    _write_csv(train_csv, [*POOL, "y"], [(*row[:4], row[response]) for row in TRAIN_ROWS])
    dataset = build_dataset(load_csv(str(train_csv), schema))
    if transform is not None:
        dataset = apply_transformers(dataset, fit_transformers(dataset, TransformSpec(transform)))
    if learner == "cart":
        model = train_cart(dataset, TreeConfig(max_depth=3, min_examples_per_leaf=1, seed=3))
    else:
        objective = "logistic" if task == CATEGORICAL else "squared"
        model = train_linear_sgd(dataset, objective, AdaGrad(0.1), 3, 2, 7)
    schema_path, model_path = Path(directory, "schema.json"), Path(directory, "model.pvml")
    schema_path.write_text(config_to_json(extract_configuration(schema.provenance())))
    save_model(model, str(model_path))
    return str(schema_path), str(model_path)


_TIMESTAMP = re.compile(r'\{"type":"timestamp","value":\{"nanos":\d+,"seconds":\d+\}\}')


def _untimed(text):
    return _TIMESTAMP.sub("<timestamp>", text)


def _by_library(model_path, test_csv, schema, as_dataset=True):
    """The report text ``evaluate_*`` gives for the dataset of the file, or,
    with ``as_dataset`` false, for the CSV source itself; or the error class."""
    model = load_model(model_path)
    evaluate = evaluate_classification if model.task == CATEGORICAL else evaluate_regression
    try:
        source = load_csv(test_csv, schema)
        report = evaluate(model, build_dataset(source) if as_dataset else source).to_report()
    except PvmlError as exc:
        return type(exc)
    return _untimed(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")


def _by_cli(model_path, test_csv, schema_path, directory):
    """The report text ``pvml evaluate`` writes, or None with its exit code."""
    report = Path(directory, "report.json")
    code = main(["evaluate", "--model", model_path, "--data", test_csv,
                 "--schema", schema_path, "--report", str(report)])
    return (code, _untimed(report.read_text())) if code == 0 else (code, None)


@st.composite
def cases(draw):
    task = draw(st.sampled_from([CATEGORICAL, REAL]))
    columns = draw(st.lists(st.sampled_from(sorted(POOL)), min_size=1, max_size=4, unique=True))
    learner = draw(st.sampled_from(["cart", "linear"]))
    transform = draw(st.sampled_from([None, "zscore", "minmax"]))
    rows = draw(
        st.lists(
            st.tuples(*[CELLS[POOL[c]] for c in columns], RESPONSES[task]),
            min_size=1,
            max_size=6,
        )
    )
    return task, columns, learner, transform, rows


class TestReportParity:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=cases())
    def test_cli_report_equals_the_dataset_report(self, case):
        task, columns, learner, transform, rows = case
        with tempfile.TemporaryDirectory() as tmp:
            schema_path, model_path = _train(tmp, task, columns, learner, transform)
            test_csv = str(Path(tmp, "test.csv"))
            _write_csv(test_csv, [*columns, "y"], rows)
            schema = _schema(task, columns)
            with np.errstate(over="ignore"):  # softmax of large linear scores
                expected = _by_library(model_path, test_csv, schema)
                assert _by_library(model_path, test_csv, schema, as_dataset=False) == expected
                code, text = _by_cli(model_path, test_csv, schema_path, tmp)
        if isinstance(expected, type):
            assert code == 2
        else:
            assert (code, text) == (0, expected)

    def test_many_chunks(self, tmp_path):
        columns = ["c", "n1", "t"]
        schema_path, model_path = _train(tmp_path, CATEGORICAL, columns, "linear", "zscore")
        cells = [("red", "violet", ""), ("1", "-2.5", "40"), ("big cat", "fish dog", "")]
        rows = [(*(c[i % len(c)] for c in cells), "ab"[i % 2]) for i in range(2 * pvml.core.BATCH_ROWS + 7)]
        test_csv = str(tmp_path / "test.csv")
        _write_csv(test_csv, [*columns, "y"], rows)
        expected = _by_library(model_path, test_csv, _schema(CATEGORICAL, columns))
        assert not isinstance(expected, type)
        assert _by_cli(model_path, test_csv, schema_path, tmp_path) == (0, expected)


MALFORMED = {
    "no-rows": (CATEGORICAL, ["n1", "y"], [], EmptySource),
    "no-response-column": (CATEGORICAL, ["n1"], [("1.0",)], UnlabelledExample),
    "non-finite-cell": (CATEGORICAL, ["n1", "y"], [("1.0", "a"), ("inf", "b")], UnparseableNumeric),
    "overflow-after-zscore": (CATEGORICAL, ["n1", "y"], [("1.0", "a"), ("1.7e308", "b")], NonFiniteFeature),
    "overflowing-targets": (REAL, ["n1", "y"], [("1.0", "1e308"), ("2.0", "-1e308")], NonFiniteStatistic),
    # a fault of the file itself comes before a value its rescale overflows
    "overflow-without-response-column": (CATEGORICAL, ["n1"], [("1.0",), ("1.7e308",)], UnlabelledExample),
    "overflow-with-overflowing-targets": (
        REAL, ["n1", "y"], [("1.0", "1e308"), ("1.7e308", "-1e308")], NonFiniteStatistic
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_test_file_raises_the_same_error(tmp_path, case):
    task, header, rows, error = MALFORMED[case]
    schema_path, model_path = _train(tmp_path, task, ["n1"], "cart", "zscore")
    test_csv = str(tmp_path / "test.csv")
    _write_csv(test_csv, header, rows)
    schema = _schema(task, ["n1"])
    assert _by_library(model_path, test_csv, schema) is error
    assert _by_library(model_path, test_csv, schema, as_dataset=False) is error
    assert _by_cli(model_path, test_csv, schema_path, tmp_path) == (2, None)
    assert not Path(tmp_path, "report.json").exists()


@pytest.mark.parametrize("task", [CATEGORICAL, REAL])
def test_cli_evaluate_builds_no_example_and_no_domain(tmp_path, monkeypatch, task):
    schema_path, model_path = _train(tmp_path, task, sorted(POOL), "cart", "zscore")
    test_csv = str(tmp_path / "test.csv")
    response = 4 if task == CATEGORICAL else 5
    _write_csv(test_csv, [*POOL, "y"], [(*row[:4], row[response]) for row in TRAIN_ROWS])
    expected = _by_library(model_path, test_csv, _schema(task, sorted(POOL)))

    def refuse(*args, **kwargs):
        raise AssertionError("pvml evaluate built an example or a dataset domain")

    monkeypatch.setattr(pvml.core, "checked_example", refuse)
    monkeypatch.setattr(pvml.core, "dataset_from_columns", refuse)
    monkeypatch.setattr(pvml.core.FeatureDomain, "observed", refuse)
    assert _by_cli(model_path, test_csv, schema_path, tmp_path) == (0, expected)


@pytest.mark.parametrize("task", [CATEGORICAL, REAL])
@pytest.mark.parametrize("transform", [None, "zscore", "minmax"])
def test_a_dataset_is_evaluated_from_its_columns(tmp_path, monkeypatch, task, transform):
    """``evaluate_*`` of a dataset, raw or already in the model's space, builds
    no example, compiles no example and rescales no dataset, and gives the
    report of the CSV source it was built from."""
    schema_path, model_path = _train(tmp_path, task, sorted(POOL), "linear", transform)
    test_csv = str(tmp_path / "test.csv")
    response = 4 if task == CATEGORICAL else 5
    extra = [("7", "", "violet", "fish", "b", "2.5"), ("", "-3", "", "big fish", "a", "-1")]
    _write_csv(test_csv, [*POOL, "y"], [(*row[:4], row[response]) for row in TRAIN_ROWS + extra])
    schema = _schema(task, sorted(POOL))
    expected = _by_library(model_path, test_csv, schema, as_dataset=False)
    assert not isinstance(expected, type)
    model = load_model(model_path)
    raw = build_dataset(load_csv(test_csv, schema))
    rescaled = raw
    for transformer in pvml.data.recorded_pipeline(model):
        rescaled = apply_transformers(rescaled, transformer)

    def refuse(*args, **kwargs):
        raise AssertionError("the evaluation of a dataset built, compiled or rescaled examples")

    monkeypatch.setattr(pvml.core.Dataset, "examples", property(refuse))
    monkeypatch.setattr(pvml.core, "compile_examples", refuse)
    monkeypatch.setattr(pvml.data, "apply_transformers", refuse)
    evaluate = evaluate_classification if task == CATEGORICAL else evaluate_regression
    for dataset in (raw, rescaled):
        report = evaluate(model, dataset).to_report()
        assert _untimed(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n") == expected


@pytest.mark.parametrize("transform", [None, "zscore", "minmax"])
def test_compiled_predictions_are_the_cli_predictions(tmp_path, transform):
    """``CsvDataSource.compiled(model)`` and ``predict_compiled`` give the
    bytes ``pvml predict`` writes."""
    columns = list(POOL)
    schema_path, model_path = _train(tmp_path, CATEGORICAL, columns, "linear", transform)
    score_csv = str(tmp_path / "score.csv")
    _write_csv(score_csv, columns, [row[:4] for row in TRAIN_ROWS] + [("7", "-1", "violet", "fish"), ("", "3", "", "")])
    model = load_model(model_path)
    labels = model.output_domain.labels()
    lines = [",".join(["row", "prediction", *labels])]
    chunks = load_csv(score_csv, _schema(CATEGORICAL, columns)).compiled(model)
    predictions = [p for compiled, totals, _ in chunks for p in model.predict_compiled(compiled, totals)]
    for i, p in enumerate(predictions):
        lines.append(",".join([str(i), p.output.label, *(repr(p.scores[label]) for label in labels)]))
    out = tmp_path / "predictions.csv"
    assert main(["predict", "--model", model_path, "--data", score_csv, "--schema", schema_path, "--out", str(out)]) == 0
    assert out.read_bytes() == "".join(line + "\r\n" for line in lines).encode()
