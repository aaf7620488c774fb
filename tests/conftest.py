"""Shared fixtures: deterministic CSV files and small in-memory datasets."""

import pytest
from hypothesis import settings

from pvml import (
    CATEGORICAL,
    REAL,
    CategoricalOutput,
    ColumnarSchema,
    FieldProcessor,
    InMemoryDataSource,
    RealOutput,
    build_dataset,
    make_example,
)

# ``--hypothesis-profile=ci`` draws the same examples on every run, so a CI
# failure reproduces locally with the same option.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)

CLF_ROWS = [
    # f1, f2, color, label: label is "a" for small f1, "b" for large f1
    (0.1, 1.0, "red", "a"),
    (0.3, 2.0, "blue", "a"),
    (0.2, 1.5, "green", "a"),
    (0.4, 1.8, "red", "a"),
    (2.0, 0.5, "red", "b"),
    (2.5, 0.1, "blue", "b"),
    (2.2, 0.2, "green", "b"),
    (2.4, 0.7, "blue", "b"),
]

REG_ROWS = [
    # f1, f2, y = 2*f1 - f2 + 1
    (0.0, 0.0, 1.0),
    (1.0, 0.0, 3.0),
    (0.0, 1.0, 0.0),
    (1.0, 1.0, 2.0),
    (2.0, 1.0, 4.0),
    (0.5, 2.0, 0.0),
]


def write_classification_csv(path) -> None:
    lines = ["f1,f2,color,label"]
    lines += [f"{r[0]},{r[1]},{r[2]},{r[3]}" for r in CLF_ROWS]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_regression_csv(path) -> None:
    lines = ["f1,f2,y"]
    lines += [f"{r[0]},{r[1]},{r[2]}" for r in REG_ROWS]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def clf_schema() -> ColumnarSchema:
    return ColumnarSchema(
        "label",
        CATEGORICAL,
        (
            FieldProcessor("f1", "numeric"),
            FieldProcessor("f2", "numeric"),
            FieldProcessor("color", "categorical"),
        ),
    )


@pytest.fixture
def reg_schema() -> ColumnarSchema:
    return ColumnarSchema(
        "y", REAL, (FieldProcessor("f1", "numeric"), FieldProcessor("f2", "numeric"))
    )


@pytest.fixture
def clf_csv(tmp_path, clf_schema):
    path = tmp_path / "clf.csv"
    write_classification_csv(path)
    return path, clf_schema


@pytest.fixture
def reg_csv(tmp_path, reg_schema):
    path = tmp_path / "reg.csv"
    write_regression_csv(path)
    return path, reg_schema


@pytest.fixture
def separable_dataset():
    examples = [make_example([("x", -1.0)], CategoricalOutput("n")) for _ in range(50)]
    examples += [make_example([("x", 1.0)], CategoricalOutput("p")) for _ in range(50)]
    return build_dataset(InMemoryDataSource(examples, "separable-1d"))


@pytest.fixture
def xor_dataset():
    points = [
        ((0.0, 0.0), "a"),
        ((1.0, 1.0), "a"),
        ((0.0, 1.0), "b"),
        ((1.0, 0.0), "b"),
    ]
    examples = [
        make_example([("x", x), ("y", y)], CategoricalOutput(label)) for (x, y), label in points
    ]
    return build_dataset(InMemoryDataSource(examples, "xor"))


@pytest.fixture
def interleaved_dataset():
    # stumps achieve 0 < error < 0.5 here, so boosting has room to work
    labels = ["a", "a", "b", "b", "a", "a", "b", "b", "a", "a"]
    examples = [
        make_example([("x", float(i))], CategoricalOutput(label))
        for i, label in enumerate(labels, start=1)
    ]
    return build_dataset(InMemoryDataSource(examples, "interleaved-1d"))


@pytest.fixture
def regression_dataset():
    examples = [
        make_example([("f1", f1), ("f2", f2)], RealOutput(y)) for f1, f2, y in REG_ROWS
    ]
    return build_dataset(InMemoryDataSource(examples, "linear-reg"))
