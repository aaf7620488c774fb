"""Columnar featurization, CSV loading, and fitted transformations."""

import csv
import dataclasses
import hashlib
import importlib.util
import io
import math
import os
import sys
import tracemalloc

import pytest

from pvml.core import BATCH_ROWS, CATEGORICAL, REAL, UNKNOWN, CategoricalOutput, RealOutput, build_dataset, make_example
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
from pvml.provenance import PHash, provenance_hash

_BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


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
        assert source.provenance.instance["data-hash"] == PHash(
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
        assert source.provenance.instance["data-hash"] == PHash(
            "SHA-256", "27c48ef32d0dfbb9a56a4835b588ef881ffeca79992e0ae5fb4e37ad2917fb3e"
        )


class TestLoadCsv:
    def test_yields_examples_and_hashes_file(self, clf_csv):
        path, schema = clf_csv
        source = load_csv(str(path), schema)
        examples = list(source)
        assert len(examples) == 8
        recorded = source.provenance.instance["data-hash"]
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        assert recorded == PHash("SHA-256", expected)

    def test_header_mismatch(self, tmp_path, clf_schema):
        path = tmp_path / "bad.csv"
        path.write_text("f1,color,label\n1.0,red,a\n", encoding="utf-8")
        with pytest.raises(HeaderMismatch) as err:
            load_csv(str(path), clf_schema)
        assert "f2" in err.value.missing

    @pytest.mark.parametrize("header", ["a,a,y", "a,y,y"])
    def test_a_schema_column_named_twice_is_refused(self, tmp_path, header):
        """A feature or response column named twice in the header would read
        one of its columns and drop the other, so the header is refused, and
        ``pvml train`` exits 2."""
        from pvml.cli import main
        from pvml.provenance import config_to_json, extract_configuration
        from pvml.trees import CartTrainer, TreeConfig

        path = tmp_path / "twice.csv"
        path.write_text(f"{header}\n1,2,p\n3,4,q\n", encoding="utf-8")
        schema = ColumnarSchema("y", CATEGORICAL, (FieldProcessor("a", "numeric"),))
        with pytest.raises(CsvParseError) as err:
            load_csv(str(path), schema)
        assert err.value.line == 1
        for name, record in (("schema", schema), ("trainer", CartTrainer(TreeConfig(max_depth=2)))):
            (tmp_path / f"{name}.json").write_text(config_to_json(extract_configuration(record.provenance())))
        args = ["--data", str(path), "--schema", str(tmp_path / "schema.json"), "--trainer", str(tmp_path / "trainer.json")]
        assert main(["train", *args, "--output", str(tmp_path / "m.pvml")]) == 2
        assert not (tmp_path / "m.pvml").exists()

    def test_a_repeated_column_the_schema_ignores_is_read(self, tmp_path):
        path = tmp_path / "ignored.csv"
        path.write_text("b,a,b,y\nx,1,z,p\n,3,,q\n", encoding="utf-8")
        schema = ColumnarSchema("y", CATEGORICAL, (FieldProcessor("a", "numeric"),))
        assert [ex.as_dict() for ex in load_csv(str(path), schema)] == [{"a": 1.0}, {"a": 3.0}]

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

    def test_rows_are_those_of_the_decoded_text(self, tmp_path):
        """Every kind of line end, quoted line breaks and characters of two to
        four bytes, some across the reader's 8 KiB chunks: the rows are those
        that ``csv`` reads from the decoded text, and a ragged row reports the
        line it reports."""
        cells = ["plain", '"a\r\nb c"', '"x\ny"', "éé ok", "€a 𝄞b", '"q ""r"""', '"\rz"']
        lines = ["a,y"] + [f"{cells[i % len(cells)]}{'é' * (i % 5)},{'pq'[i % 2]}" for i in range(3000)]
        text = "".join(line + ("\n", "\r\n", "\r")[i % 3] for i, line in enumerate(lines))
        schema = ColumnarSchema("y", CATEGORICAL, (FieldProcessor("a", "text"),))
        path = tmp_path / "mixed.csv"
        path.write_bytes(text.encode("utf-8"))
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader)
        assert list(load_csv(str(path), schema)) == [featurize_row(schema, dict(zip(header, row))) for row in reader]

        ragged = text + '"multi\nline",p\r\n"one\r\nmore",p,extra\n'
        path.write_bytes(ragged.encode("utf-8"))
        reader = csv.reader(io.StringIO(ragged, newline=""))
        line = next(reader.line_num for row in reader if len(row) != 2)
        with pytest.raises(CsvParseError) as err:
            load_csv(str(path), schema)
        assert err.value.line == line

    def test_the_whole_file_is_checked_as_utf8_first(self, tmp_path, clf_schema):
        """A file whose third line is ragged and whose last is not UTF-8 fails as not UTF-8."""
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"f1,f2,color,label\n1.0,2.0,red,a\n1.0,2.0\n1.0,2.0,r\xe9d,a\n")
        with pytest.raises(CsvParseError, match="not valid UTF-8"):
            load_csv(str(path), clf_schema)

    def test_loading_holds_the_rows_and_the_file_bytes(self, tmp_path):
        """A 20 000-row copy of the sparse-sgd benchmark's training rows
        (3.6 MiB) loads within 12 MiB; reading the rows from the decoded text
        in a buffer of 4-byte code points took 28.6 MiB."""
        spec = importlib.util.spec_from_file_location("benchmark_workloads", os.path.join(_BENCHMARKS, "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        sys.modules.setdefault(spec.name, workloads)  # its dataclasses look their module up
        spec.loader.exec_module(sys.modules[spec.name])
        workload = dataclasses.replace(workloads.SPARSE_SGD, sizes={"train": 20_000, "test": 0, "score": 0, "warm": 0})
        inputs = workloads.write_inputs(workload, 1001, str(tmp_path))
        schema = ColumnarSchema(workload.response, workload.task, tuple(FieldProcessor(c, k) for c, k in workload.columns))
        tracemalloc.start()
        try:
            source = load_csv(inputs.train, schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(source) == 20_000
        assert peak <= 12 * 2**20

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
        before = regression_dataset.provenance.instance["transformations"]
        after = out.provenance.instance["transformations"]
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

    def _outcome(self, source):
        try:
            return [block.values.tolist() for block in source.blocks()]
        except UnparseableNumeric as exc:
            return (exc.column, exc.value, str(exc))

    @pytest.mark.parametrize("cell", CELLS)
    # the first, a middle and the last row of a block
    @pytest.mark.parametrize("at", [0, BATCH_ROWS // 2 - 1, BATCH_ROWS - 1])
    def test_a_cell_in_a_block(self, tmp_path, cell, at):
        rows = [("1.5", "2")] * BATCH_ROWS
        rows[at] = (cell, "3") if cell else ("", "3")
        rows[5] = ("-4", "1e2")
        expected = _first_bad_numeric("n", [n for n, _ in rows])
        got = self._outcome(self._load(tmp_path, rows))
        if expected is None:
            values = [float(v) for n, m in rows for v in (m, n) if v]  # a row's features in name order
            assert got == [values]
        else:
            assert got == (expected.column, expected.value, str(expected))

    @pytest.mark.parametrize("cell", ["abc", "nan", "-1e999"])
    def test_a_bad_cell_only_in_the_second_block(self, tmp_path, cell):
        rows = [("1", "2")] * (BATCH_ROWS + 2) + [("3", cell), ("nan", "4")]
        assert self._outcome(self._load(tmp_path, rows)) == ("m", cell, str(UnparseableNumeric("m", cell)))

    def test_the_first_bad_row_raises_before_a_later_column(self, tmp_path):
        rows = [("1", "2"), ("2", "x"), ("y", "3")]
        assert self._outcome(self._load(tmp_path, rows))[:2] == ("m", "x")


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
        rows = [("1", "red", "hi", "a")] * (2 * BATCH_ROWS + 44) + [("2", "", "", "b"), ("abc", "", "x", "a")]
        path.write_text("age,color,msg,label\n" + "".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
        header = ["age", "color", "msg", "label"]
        with pytest.raises(Exception) as expected:
            for r in rows:
                featurize_row(mixed_schema, dict(zip(header, r)))
        seen = []
        with pytest.raises(type(expected.value)) as got:
            seen.extend(load_csv(str(path), mixed_schema))
        assert str(got.value) == str(expected.value)
        assert len(seen) == 2 * BATCH_ROWS  # the rows of the blocks before the bad row's block
