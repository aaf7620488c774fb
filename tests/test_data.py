"""Columnar featurization, CSV loading, and fitted transformations."""

import hashlib
import math

import pytest

from pvml.core import CATEGORICAL, REAL, UNKNOWN, CategoricalOutput, RealOutput, build_dataset, make_example
from pvml.data import (
    ColumnarSchema,
    FieldProcessor,
    InMemoryDataSource,
    TransformSpec,
    apply_transformers,
    featurize_row,
    fit_transformers,
    load_csv,
    transform_spec_from_provenance,
)
from pvml.errors import (
    CsvParseError,
    HeaderMismatch,
    InvalidFeatureName,
    MissingResponse,
    NonFiniteStatistic,
    UnparseableNumeric,
)
from pvml.provenance import PHash, instance_section, provenance_hash


@pytest.fixture
def mixed_schema():
    return ColumnarSchema(
        "label",
        CATEGORICAL,
        (
            FieldProcessor("age", "numeric"),
            FieldProcessor("color", "categorical"),
            FieldProcessor("msg", "text"),
        ),
    )


class TestFeaturizeRow:
    def test_numeric_parses_directly(self, mixed_schema):
        ex = featurize_row(mixed_schema, {"age": "3.5", "label": "y"})
        assert ex.as_dict() == {"age": 3.5}

    def test_categorical_binarized(self, mixed_schema):
        ex = featurize_row(mixed_schema, {"color": "red", "label": "y"})
        assert ex.as_dict() == {"color@red": 1.0}

    def test_text_token_counts(self, mixed_schema):
        ex = featurize_row(mixed_schema, {"msg": "a b a", "label": "y"})
        assert ex.as_dict() == {"msg@a": 2.0, "msg@b": 1.0}

    def test_text_lowercased_and_split_on_non_alphanumeric(self, mixed_schema):
        ex = featurize_row(mixed_schema, {"msg": "Hello, hello WORLD!42", "label": "y"})
        assert ex.as_dict() == {"msg@hello": 2.0, "msg@world": 1.0, "msg@42": 1.0}

    def test_empty_cells_skipped(self, mixed_schema):
        ex = featurize_row(mixed_schema, {"age": "1.5", "color": "", "msg": "", "label": "y"})
        assert ex.as_dict() == {"age": 1.5}

    def test_unparseable_numeric(self, mixed_schema):
        with pytest.raises(UnparseableNumeric):
            featurize_row(mixed_schema, {"age": "three", "label": "y"})

    def test_infinite_numeric_rejected(self, mixed_schema):
        with pytest.raises(UnparseableNumeric):
            featurize_row(mixed_schema, {"age": "inf", "label": "y"})

    def test_missing_response_key_means_unlabelled(self, mixed_schema):
        ex = featurize_row(mixed_schema, {"age": "1.0"})
        assert ex.output is UNKNOWN

    def test_empty_response_cell_is_an_error(self, mixed_schema):
        with pytest.raises(MissingResponse):
            featurize_row(mixed_schema, {"age": "1.0", "label": ""})

    def test_control_character_in_a_categorical_cell(self, mixed_schema):
        with pytest.raises(InvalidFeatureName):
            featurize_row(mixed_schema, {"color": "am\x01ber", "label": "y"})

    @pytest.mark.parametrize("column", ["", "a\x85b"])
    def test_bad_column_names_rejected(self, column):
        with pytest.raises(InvalidFeatureName):
            FieldProcessor(column, "categorical")

    def test_real_response_parsed(self):
        schema = ColumnarSchema("y", REAL, (FieldProcessor("f", "numeric"),))
        ex = featurize_row(schema, {"f": "2.0", "y": "-1.5"})
        assert ex.output.value == -1.5

    def test_order_independent(self, mixed_schema):
        row = {"age": "2.0", "color": "red", "msg": "x y", "label": "y"}
        assert featurize_row(mixed_schema, dict(row)) == featurize_row(
            mixed_schema, dict(reversed(list(row.items())))
        )


class TestInMemoryFingerprint:
    """The data hash of an in-memory source is pinned: it is part of every
    provenance hash of a model trained on one."""

    def test_classification_digest(self):
        source = InMemoryDataSource(
            [
                make_example([("a", 1.0), ("b@x", -0.0)], CategoricalOutput("yes")),
                make_example([("caf\u00e9", 1e308), ("a", 2.5)], CategoricalOutput("n\u00f6"), 0.25),
                make_example([("z", -3.0)], UNKNOWN),
            ],
            "clf",
        )
        assert instance_section(source.provenance)["data-hash"] == PHash(
            "SHA-256", "227483f5f5a7cd5df1ff106a3e38bfc7af6a1d71405409faf249d35a14cab9d1"
        )

    def test_regression_digest(self):
        source = InMemoryDataSource(
            [
                make_example([("x", 0.1), ("y", 5e-324)], RealOutput(-1.5)),
                make_example([("x", -2.0)], RealOutput(0.0), 3.0),
            ],
            "reg",
        )
        assert instance_section(source.provenance)["data-hash"] == PHash(
            "SHA-256", "27c48ef32d0dfbb9a56a4835b588ef881ffeca79992e0ae5fb4e37ad2917fb3e"
        )


class TestLoadCsv:
    def test_yields_examples_and_hashes_file(self, clf_csv):
        path, schema = clf_csv
        source = load_csv(str(path), schema)
        examples = list(source)
        assert len(examples) == 8
        recorded = instance_section(source.provenance)["data-hash"]
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        assert recorded == PHash("SHA-256", expected)

    def test_header_mismatch(self, tmp_path, clf_schema):
        path = tmp_path / "bad.csv"
        path.write_text("f1,color,label\n1.0,red,a\n", encoding="utf-8")
        with pytest.raises(HeaderMismatch) as err:
            load_csv(str(path), clf_schema)
        assert "f2" in err.value.missing

    def test_missing_file(self, clf_schema):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/nope.csv", clf_schema)

    def test_ragged_row_reports_line(self, tmp_path, clf_schema):
        path = tmp_path / "ragged.csv"
        path.write_text("f1,f2,color,label\n1.0,2.0,red,a\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(CsvParseError) as err:
            load_csv(str(path), clf_schema)
        assert err.value.line == 3

    def test_quoted_fields(self, tmp_path):
        schema = ColumnarSchema("label", CATEGORICAL, (FieldProcessor("msg", "text"),))
        path = tmp_path / "quoted.csv"
        path.write_text('msg,label\n"hello, world",a\n', encoding="utf-8")
        examples = list(load_csv(str(path), schema))
        assert examples[0].as_dict() == {"msg@hello": 1.0, "msg@world": 1.0}

    def test_deterministic_reload(self, clf_csv):
        path, schema = clf_csv
        a = load_csv(str(path), schema)
        b = load_csv(str(path), schema)
        assert list(a) == list(b)
        assert provenance_hash(a.provenance) == provenance_hash(b.provenance)

    def test_iteration_repeatable(self, clf_csv):
        path, schema = clf_csv
        source = load_csv(str(path), schema)
        assert list(source) == list(source)

    def test_response_column_optional(self, tmp_path, clf_schema):
        path = tmp_path / "unlabelled.csv"
        path.write_text("f1,f2,color\n1.0,2.0,red\n", encoding="utf-8")
        examples = list(load_csv(str(path), clf_schema))
        assert examples[0].output is UNKNOWN


class TestFitTransformers:
    def _dataset(self, values, name="a"):
        from pvml.core import make_example
        from pvml.data import InMemoryDataSource

        examples = [make_example([(name, v)], CategoricalOutput("x")) for v in values]
        return build_dataset(InMemoryDataSource(examples))

    def test_zscore_population_fit(self):
        t = fit_transformers(self._dataset([1.0, 2.0, 3.0]), TransformSpec("zscore"))
        fit = t.fits["a"]
        assert fit.mean == pytest.approx(2.0, abs=1e-12)
        assert fit.std == pytest.approx(0.816496580927726, abs=1e-12)

    def test_constant_feature_degenerates_to_identity(self):
        t = fit_transformers(self._dataset([5.0, 5.0]), TransformSpec("zscore"))
        assert "degenerate:a" in t.warnings
        assert t.affine["a"] == (0.0, 1.0)
        assert [ex.features[0].value for ex in apply_transformers(self._dataset([5.0, 5.0]), t).examples] == [5.0, 5.0]

    def test_zscore_over_an_overflowing_variance_is_rejected(self):
        with pytest.raises(NonFiniteStatistic, match="'a'"):
            fit_transformers(self._dataset([1e300, -1e300, 5.0, 1e300]), TransformSpec("zscore"))

    def test_minmax_fit(self):
        t = fit_transformers(self._dataset([2.0, 4.0]), TransformSpec("minmax"))
        fit = t.fits["a"]
        assert (fit.lo, fit.hi) == (2.0, 4.0)
        assert fit.affine() == (2.0, 2.0)
        assert [ex.features[0].value for ex in apply_transformers(self._dataset([2.0, 4.0, 3.0]), t).examples] == [0.0, 1.0, 0.5]

    def test_selected_features_only(self, regression_dataset):
        t = fit_transformers(regression_dataset, TransformSpec("zscore", ("f1",)))
        assert set(t.fits) == {"f1"}

    def test_spec_recoverable_from_provenance(self, regression_dataset):
        for spec in (TransformSpec("zscore"), TransformSpec("minmax", ("f1",))):
            t = fit_transformers(regression_dataset, spec)
            assert transform_spec_from_provenance(t.provenance) == spec


class TestApplyTransformers:
    def _dataset(self, values):
        from pvml.core import make_example
        from pvml.data import InMemoryDataSource

        examples = [make_example([("a", v)], CategoricalOutput("x")) for v in values]
        return build_dataset(InMemoryDataSource(examples))

    def test_zscore_values(self):
        ds = self._dataset([1.0, 2.0, 3.0])
        out = apply_transformers(ds, fit_transformers(ds, TransformSpec("zscore")))
        values = [ex.features[0].value for ex in out.examples]
        assert values == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)

    def test_identity_transform_keeps_values(self):
        ds = self._dataset([5.0, 5.0])
        out = apply_transformers(ds, fit_transformers(ds, TransformSpec("zscore")))
        assert [ex.features[0].value for ex in out.examples] == [5.0, 5.0]

    def test_transformation_list_grows_by_one(self, regression_dataset):
        t = fit_transformers(regression_dataset, TransformSpec("zscore"))
        out = apply_transformers(regression_dataset, t)
        before = instance_section(regression_dataset.provenance)["transformations"]
        after = instance_section(out.provenance)["transformations"]
        assert len(after) == len(before) + 1

    def test_post_zscore_moments(self, regression_dataset):
        out = apply_transformers(
            regression_dataset, fit_transformers(regression_dataset, TransformSpec("zscore"))
        )
        for name in out.feature_domain.names():
            fid = out.feature_domain.ids[name]
            assert abs(out.feature_domain.mean[fid]) < 1e-9
            assert abs(out.feature_domain.variance[fid] - 1.0) < 1e-9

    def test_unfitted_features_pass_through(self, regression_dataset):
        t = fit_transformers(regression_dataset, TransformSpec("zscore", ("f1",)))
        out = apply_transformers(regression_dataset, t)
        before = [ex.as_dict()["f2"] for ex in regression_dataset.examples]
        after = [ex.as_dict()["f2"] for ex in out.examples]
        assert before == after

    def test_hash_changes_when_transformations_change(self, regression_dataset):
        t = fit_transformers(regression_dataset, TransformSpec("zscore"))
        out = apply_transformers(regression_dataset, t)
        assert provenance_hash(out.provenance) != provenance_hash(regression_dataset.provenance)


def _first_bad_numeric(column, cells):
    """The error of the cell-by-cell parse: the first cell ``float`` rejects
    or reads as non-finite, empty cells skipped; None when every cell parses."""
    for cell in filter(None, cells):
        try:
            value = float(cell)
        except ValueError:
            return UnparseableNumeric(column, cell)
        if not math.isfinite(value):
            return UnparseableNumeric(column, cell)
    return None


class TestNumericCellsInOnePass:
    """A numeric column parses in one pass; a bad cell raises the error of
    the cell-by-cell parse, naming the same first cell."""

    CELLS = ["abc", "nan", "inf", "-1e999", " 2.5 ", "1_0", ""]
    SCHEMA = ColumnarSchema("label", CATEGORICAL, (FieldProcessor("n", "numeric"), FieldProcessor("m", "numeric")))

    def _load(self, tmp_path, rows):
        path = tmp_path / "cells.csv"
        path.write_text("n,m,label\n" + "".join(f"{n},{m},a\n" for n, m in rows), encoding="utf-8")
        return load_csv(str(path), self.SCHEMA)

    def _outcome(self, source, rows_per_chunk):
        try:
            return [block.values.tolist() for block in source.blocks(rows_per_chunk)]
        except UnparseableNumeric as exc:
            return (exc.column, exc.value, str(exc))

    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("at", [0, 3, 7])  # the first, a middle and the last row of a block
    def test_a_cell_in_a_block(self, tmp_path, cell, at):
        rows = [("1.5", "2")] * 8
        rows[at] = (cell, "3") if cell else ("", "3")
        rows[5] = ("-4", "1e2")
        expected = _first_bad_numeric("n", [n for n, _ in rows])
        got = self._outcome(self._load(tmp_path, rows), 8)
        if expected is None:
            values = [float(v) for n, m in rows for v in (m, n) if v]  # a row's features in name order
            assert got == [values]
        else:
            assert got == (expected.column, expected.value, str(expected))

    @pytest.mark.parametrize("cell", ["abc", "nan", "-1e999"])
    def test_a_bad_cell_only_in_the_second_block(self, tmp_path, cell):
        rows = [("1", "2")] * 6 + [("3", cell), ("nan", "4")]
        assert self._outcome(self._load(tmp_path, rows), 4) == ("m", cell, str(UnparseableNumeric("m", cell)))

    def test_the_first_bad_row_raises_before_a_later_column(self, tmp_path):
        rows = [("1", "2"), ("2", "x"), ("y", "3")]
        assert self._outcome(self._load(tmp_path, rows), 3)[:2] == ("m", "x")


class TestIterationFromBlocks:
    """``iter(source)`` builds each example from a block's columns, as
    :func:`featurize_row` builds it from the row alone."""

    def test_examples_equal_featurize_row(self, tmp_path, mixed_schema):
        path = tmp_path / "mixed.csv"
        rows = [(str(i % 7 - 3) if i % 5 else "", "red" if i % 3 else "", f"go Go {i % 4} go" if i % 2 else "x", "ab"[i % 2]) for i in range(600)]
        path.write_text("age,color,msg,label\n" + "".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
        header = ["age", "color", "msg", "label"]
        expected = [featurize_row(mixed_schema, dict(zip(header, r))) for r in rows]
        got = list(load_csv(str(path), mixed_schema))
        assert got == expected
        assert [[math.copysign(1.0, f.value) for f in x.features] for x in got] == [[math.copysign(1.0, f.value) for f in x.features] for x in expected]

    def test_the_first_error_is_the_same(self, tmp_path, mixed_schema):
        path = tmp_path / "bad.csv"
        rows = [("1", "red", "hi", "a")] * 300 + [("2", "", "", "b"), ("abc", "", "x", "a")]
        path.write_text("age,color,msg,label\n" + "".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
        header = ["age", "color", "msg", "label"]
        with pytest.raises(Exception) as expected:
            for r in rows:
                featurize_row(mixed_schema, dict(zip(header, r)))
        seen = []
        with pytest.raises(type(expected.value)) as got:
            seen.extend(load_csv(str(path), mixed_schema))
        assert str(got.value) == str(expected.value)
        assert len(seen) == 256  # the rows of the blocks before the bad row's block
