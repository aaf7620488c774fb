"""CSV rows compiled straight to scoring columns.

``CsvDataSource.compiled`` followed by ``Model.predict_compiled`` must give
what ``featurize_row``, ``compile_examples`` and ``Model.predict_batch``
give, bit for bit, with the same row outputs, and reject a bad row with the
same exception class.
"""

import csv
import gc
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from pvml import CATEGORICAL, CategoricalOutput, InMemoryDataSource, build_dataset, make_example
from pvml.cli import main
from pvml.core import BATCH_ROWS, compile_examples
from pvml.core import UNKNOWN
from pvml.data import ColumnarSchema, CsvDataSource, FieldProcessor, _parse_numeric, _tokens, featurize, featurize_row
from pvml.errors import EmptySource, InvalidFeatureName, MissingResponse, PvmlError
from pvml.optimize import AdaGrad, train_linear_sgd
from pvml.persist import save_model
from pvml.provenance import config_to_json, extract_configuration
from pvml.trees import TreeConfig, train_cart

from test_batch import _bits

# ``a@b`` (numeric) collides with text column ``a``'s token ``b``, and
# ``c@r`` (numeric) with categorical column ``c``'s value ``r``; a name met
# twice in a row sums in column order.
PROCESSORS = [
    FieldProcessor("n", "numeric"),
    FieldProcessor("a@b", "numeric"),
    FieldProcessor("c@r", "numeric"),
    FieldProcessor("c", "categorical"),
    FieldProcessor("a", "text"),
]

_TRAINING = build_dataset(
    InMemoryDataSource(
        [
            make_example(features, CategoricalOutput(label))
            for features, label in [
                ([("n", 1.0), ("a@b", 2.0), ("c@r", 1.0)], "p"),
                ([("n", -2.0), ("a@c", 1.0), ("c@red", 1.0)], "q"),
                ([("a@b", 1.0), ("a@zz", 3.0)], "p"),
                ([("n", 0.5), ("c@r", 2.0), ("a@9", 1.0)], "q"),
                ([("a@c", 2.0), ("c@red", 1.0), ("n", 4.0)], "p"),
                ([("a@zz", 1.0), ("n", -1.0)], "q"),
            ]
        ],
        "compiled-rows",
    )
)

MODELS = {
    "linear": train_linear_sgd(_TRAINING, "logistic", AdaGrad(0.3), 4, 3, 5),
    "cart": train_cart(_TRAINING, TreeConfig(max_depth=3)),
}

NUMERIC_CELLS = st.one_of(
    # 1e16 + 1.0 rounds back to 1e16, so the order of a merged sum shows in its bits
    st.sampled_from(["", "", "1.5", "-0.0", "0", "2", "1e16", "1e308", "-3.25", "nan", "inf", "x"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
CATEGORICAL_CELLS = st.one_of(
    st.sampled_from(["", "r", "red", "b", "x y", "am\x01ber", "\x7f"]),
    st.text(alphabet="abr@ ,\"", max_size=4),
)
# the Kelvin sign lowercases to "k"; "\u00df" is no token and splits "stra\u00dfe"
TEXT_CELLS = st.lists(
    st.sampled_from(["b", "B", "c", "zz", "b", "9", ",", "!", "Q@b", "", "\u212aB", "stra\u00dfe\u0130b"]), max_size=6
).map(" ".join)
CELLS = {"numeric": NUMERIC_CELLS, "categorical": CATEGORICAL_CELLS, "text": TEXT_CELLS}
RESPONSES = st.sampled_from(["p", "q", "unseen", ""])


@st.composite
def csv_inputs(draw, max_rows=8):
    """A schema over a random subset of the processors, in random order, and
    rows for it, with or without the response column."""
    processors = draw(st.lists(st.sampled_from(PROCESSORS), min_size=1, unique=True))
    labelled = draw(st.booleans())
    header = [p.column for p in processors] + (["y"] if labelled else [])
    rows = draw(
        st.lists(
            st.tuples(*[CELLS[p.kind] for p in processors], *([RESPONSES] if labelled else [])),
            min_size=1,
            max_size=max_rows,
        )
    )
    return processors, header, rows


def _write_csv(directory, header, rows):
    path = os.path.join(directory, "rows.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _source(path, processors):
    """A CSV source of ``processors``, with the response column ``y``."""
    return CsvDataSource(path, ColumnarSchema("y", CATEGORICAL, tuple(processors)))


def _arrays(columns):
    return tuple(
        (a.dtype.str, a.shape, a.tobytes())
        for a in (columns.indptr, columns.feature_ids, columns.values, columns.targets, columns.weights)
    )


def _scored(score):
    try:
        with np.errstate(over="ignore"):  # softmax of drawn values near the float limit
            return [_bits(p) for p in score()]
    except PvmlError as exc:
        return type(exc)


def _by_examples(path, processors, model):
    """Featurize every row to an example, then compile and score the batch."""
    source = _source(path, processors)
    try:
        examples = list(source)
    except PvmlError as exc:
        return type(exc)
    columns = compile_examples(examples, model.feature_domain, targets=False)
    totals = [len(ex.features) for ex in examples]
    outputs = [ex.output for ex in examples]
    return _arrays(columns), totals, outputs, _scored(lambda: model.predict_batch(examples))


def _by_columns(path, processors, model):
    source = _source(path, processors)
    try:
        (columns, totals, outputs), = source.compiled(model)
    except PvmlError as exc:
        return type(exc)
    return _arrays(columns), totals, outputs, _scored(lambda: model.predict_compiled(columns, totals))


class TestCompiledEqualsExamples:
    @pytest.mark.parametrize("kind", sorted(MODELS))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(inputs=csv_inputs())
    def test_columns_totals_and_predictions_bit_for_bit(self, kind, inputs):
        processors, header, rows = inputs
        with tempfile.TemporaryDirectory() as tmp:
            path = _write_csv(tmp, header, rows)
            assert _by_columns(path, processors, MODELS[kind]) == _by_examples(path, processors, MODELS[kind])

    def test_chunks_of_batch_rows(self, tmp_path):
        rows = [(str(i % 7 - 3), "red" if i % 3 else "r", "b " * (i % 4) + "zz") for i in range(2 * BATCH_ROWS + 5)]
        processors = [PROCESSORS[0], PROCESSORS[3], PROCESSORS[4]]
        path = _write_csv(tmp_path, ["n", "c", "a"], rows)
        model = MODELS["linear"]
        chunks = list(_source(path, processors).compiled(model))
        assert [len(totals) for _, totals, _ in chunks] == [BATCH_ROWS, BATCH_ROWS, 5]
        got = [_bits(p) for columns, totals, _ in chunks for p in model.predict_compiled(columns, totals)]
        want = [_bits(p) for p in model.predict_batch(list(_source(path, processors)))]
        assert got == want


def _pairs_then_make_example(schema, row):
    """The featurization before names were checked once: every (name, value)
    pair in column order, merged and validated by ``make_example``."""
    pairs = []
    for proc in schema.processors:
        cell = row.get(proc.column, "")
        if cell == "":
            continue
        if proc.kind == "numeric":
            pairs.append((proc.column, _parse_numeric(proc.column, cell)))
        elif proc.kind == "categorical":
            pairs.append((f"{proc.column}@{cell}", 1.0))
        else:
            pairs.extend((f"{proc.column}@{token}", 1.0) for token in re.findall("[a-z0-9]+", cell.lower()))
    output = UNKNOWN
    if "y" in row:
        if row["y"] == "":
            raise MissingResponse("empty response cell")
        output = CategoricalOutput(row["y"])
    return make_example(pairs, output)


def _example_bits(featurize):
    try:
        example = featurize()
    except PvmlError as exc:
        return type(exc)
    return [(f.name, float.hex(f.value)) for f in example.features], example.output, example.weight


class TestFeaturizeRow:
    @settings(max_examples=300, deadline=None)
    @given(inputs=csv_inputs(max_rows=1))
    @example(inputs=([PROCESSORS[4], PROCESSORS[1]], ["a", "a@b"], [("b b", "1e16")]))
    @example(inputs=([PROCESSORS[1], PROCESSORS[4]], ["a@b", "a"], [("1e16", "b b")]))
    def test_equals_pairs_merged_by_make_example(self, inputs):
        processors, header, (cells,) = inputs
        schema = ColumnarSchema("y", CATEGORICAL, tuple(processors))
        row = dict(zip(header, cells))
        assert _example_bits(lambda: featurize_row(schema, row)) == _example_bits(
            lambda: _pairs_then_make_example(schema, row)
        )


class TestTokens:
    @settings(max_examples=500, deadline=None)
    @given(text=st.text())
    @example(text="\u212a")  # the Kelvin sign lowercases to "k"
    @example(text="\u0130x")  # lowercases to "i" and a combining dot
    @example(text="a\x00b")
    @example(text="\u00df")
    @example(text="\U0001F600z")
    def test_equal_the_regular_expression(self, text):
        assert _tokens(text) == re.findall("[a-z0-9]+", text.lower())

    def test_a_lone_surrogate_through_featurize_row(self):
        schema = ColumnarSchema("y", CATEGORICAL, (PROCESSORS[4],))
        row = {"a": "x\ud800Y \udfff"}
        assert _example_bits(lambda: featurize_row(schema, row)) == _example_bits(
            lambda: _pairs_then_make_example(schema, row)
        )
        assert [f.name for f in featurize_row(schema, row).features] == ["a@x", "a@y"]


def _model_files(directory, processors, model):
    """A schema file of ``processors`` and ``model``'s file, for the CLI."""
    schema_path, model_path = os.path.join(directory, "schema.json"), os.path.join(directory, "model.pvml")
    with open(schema_path, "w", encoding="utf-8") as fh:
        fh.write(config_to_json(extract_configuration(ColumnarSchema("y", CATEGORICAL, tuple(processors)).provenance())))
    save_model(model, model_path)
    return schema_path, model_path


def _predict(directory, path, processors, model):
    """``pvml predict``'s exit code and the path of its output file."""
    schema_path, model_path = _model_files(directory, processors, model)
    out = os.path.join(directory, "predictions.csv")
    return main(["predict", "--model", model_path, "--data", path, "--schema", schema_path, "--out", out]), out


class TestFirstBadRow:
    @pytest.mark.parametrize("cells", [("x", "red", "b"), ("", "", ""), ("1", "am\x01ber", "")])
    def test_a_large_file_raises_the_error_of_its_first_bad_row(self, tmp_path, cells):
        """The second row of the third block is bad, and so are the row after
        it and the last row: building, scoring and iterating raise what
        ``featurize_row`` raises for that row alone, iterating once the first
        two blocks' examples are yielded, and ``pvml predict`` exits 2 and
        writes no file."""
        header, processors = ["n", "c", "a"], [PROCESSORS[0], PROCESSORS[3], PROCESSORS[4]]
        rows = [(str(i % 5), "red", "b zz") for i in range(2 * BATCH_ROWS + 5)]
        bad = 2 * BATCH_ROWS + 1
        rows[bad], rows[bad + 1], rows[-1] = cells, ("y", "", ""), ("", "", "")
        path = _write_csv(tmp_path, header, rows)
        with pytest.raises(PvmlError) as want:
            featurize_row(ColumnarSchema("y", CATEGORICAL, tuple(processors)), dict(zip(header, cells)))
        for run in (build_dataset, lambda source: list(source.compiled(MODELS["cart"]))):
            with pytest.raises(type(want.value), match=re.escape(str(want.value))):
                run(_source(path, processors))
        seen = []
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            seen.extend(_source(path, processors))
        assert len(seen) == 2 * BATCH_ROWS
        code, out = _predict(tmp_path, path, processors, MODELS["cart"])
        assert code == 2
        assert not os.path.exists(out)


class TestNamesCheckedOnce:
    def test_each_distinct_name_once_per_block(self, monkeypatch, tmp_path):
        import pvml.data

        seen = []
        check = pvml.data.check_feature_names
        monkeypatch.setattr(pvml.data, "check_feature_names", lambda names: seen.append(list(names)) or check(names))
        path = _write_csv(tmp_path, ["a", "c"], [("b b zz", "r"), ("zz b", "r"), ("b", "red")])
        source = _source(path, [PROCESSORS[4], PROCESSORS[3]])
        list(source)
        list(source.compiled(MODELS["cart"]))
        assert seen == [["a@b", "a@zz", "c@r", "c@red"]] * 2

    def test_a_bad_name_is_never_taken_as_checked(self, tmp_path):
        path = _write_csv(tmp_path, ["c"], [("am\x01ber",), ("red",)])
        source = _source(path, [PROCESSORS[3]])
        for _ in range(2):
            with pytest.raises(InvalidFeatureName):
                list(source)
            with pytest.raises(InvalidFeatureName):
                list(source.compiled(MODELS["cart"]))


def _peak(run):
    """The tracemalloc peak, in bytes, of ``run()``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _block_bytes(block):
    return block.vocabulary, block.ids.dtype.str, block.ids.tobytes(), block.values.tobytes(), block.totals, block.outputs


class TestStandaloneBlocks:
    def test_each_block_is_its_rows_alone(self, monkeypatch, tmp_path):
        """Some names repeat across three blocks and some are new in each: every
        block is ``featurize`` of its rows alone, checks its names in one call
        and compiles as its rows' examples do."""
        import pvml.data

        header, processors = ["n", "c", "a", "y"], [PROCESSORS[0], PROCESSORS[3], PROCESSORS[4]]
        rows = [
            ("" if i % 13 == 0 else str(i % 7 - 3), ("red", "r", "blue")[i % 3], f"b zz t{i % 11} B u{i // 100}", "pq"[i % 2])
            for i in range(2 * BATCH_ROWS + 5)
        ]
        path = _write_csv(tmp_path, header, rows)
        schema = ColumnarSchema("y", CATEGORICAL, tuple(processors))
        seen = []
        check = pvml.data.check_feature_names
        monkeypatch.setattr(pvml.data, "check_feature_names", lambda names: seen.append(list(names)) or check(names))
        blocks = list(CsvDataSource(path, schema).blocks())
        assert [len(block.totals) for block in blocks] == [BATCH_ROWS, BATCH_ROWS, 5]
        assert seen == [block.vocabulary for block in blocks]
        assert blocks[1].vocabulary != blocks[0].vocabulary
        for k, block in enumerate(blocks):
            part = rows[k * BATCH_ROWS:(k + 1) * BATCH_ROWS]
            *cells, responses = zip(*part)
            assert _block_bytes(block) == _block_bytes(featurize(schema, cells, responses, len(part)))
            assert block.examples() == [featurize_row(schema, dict(zip(header, row))) for row in part]

        model = MODELS["linear"]
        examples = list(_source(path, processors))
        chunks = list(_source(path, processors).compiled(model))
        for k, (columns, totals, outputs) in enumerate(chunks):
            rows_of_block = examples[k * BATCH_ROWS:(k + 1) * BATCH_ROWS]
            assert _arrays(columns) == _arrays(compile_examples(rows_of_block, model.feature_domain, targets=False))
            assert totals == [len(ex.features) for ex in rows_of_block]
            assert outputs == [ex.output for ex in rows_of_block]

    @staticmethod
    def _ten_blocks(directory):
        """A text file of ten blocks, its source, and the tracemalloc peak of
        featurizing all its rows as one block."""
        rows = [(f"b zz t{i} u{i % 97} w{i * 7919 % 10007}", "pq"[i % 2]) for i in range(10 * BATCH_ROWS)]
        source = _source(_write_csv(directory, ["a", "y"], rows), [PROCESSORS[4]])
        *cells, responses = zip(*rows)
        return source, _peak(lambda: featurize(source.schema, cells, responses, len(rows)))

    def test_scoring_memory_is_bounded_by_the_block(self, tmp_path):
        """Scoring a file of ten blocks block by block peaks below a quarter of
        featurizing its rows as one block, which holds every row's names at once."""
        source, whole_file = self._ten_blocks(tmp_path)
        model = MODELS["linear"]
        assert _peak(lambda: [model.score_compiled(columns) for columns, _, _ in source.compiled(model)]) < whole_file / 4

    def test_training_memory_is_bounded_by_the_block(self, tmp_path):
        """Building the dataset of a file of ten blocks reads it block by block,
        and peaks below two-thirds of featurizing its rows as one block."""
        source, whole_file = self._ten_blocks(tmp_path)
        assert _peak(lambda: build_dataset(source)) < whole_file * 2 / 3

    def test_a_block_leaves_no_reference_cycle(self):
        """A block's intern tables are freed when ``featurize`` returns, not
        later by the cycle collector, so scoring block by block holds one
        block's names at a time."""
        schema = ColumnarSchema("y", CATEGORICAL, tuple(PROCESSORS))
        cells = [["1", "", "2"], ["3", "4", ""], ["", "5", "6"], ["r", "red", ""], ["b zz", "c", "b b 9"]]
        gc.collect()
        gc.disable()
        try:
            featurize(schema, cells, ["p", "q", "p"], 3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_header_only_file(self, tmp_path):
        """No rows: ``pvml predict`` writes the header alone, while a dataset
        and ``pvml evaluate`` need at least one row."""
        processors = [PROCESSORS[4]]
        path = _write_csv(tmp_path, ["a", "y"], [])
        code, out = _predict(tmp_path, path, processors, MODELS["linear"])
        assert code == 0
        with open(out, encoding="utf-8", newline="") as fh:
            assert fh.read() == "row,prediction,p,q\r\n"
        with pytest.raises(EmptySource):
            build_dataset(_source(path, processors))
        report = str(tmp_path / "report.json")
        schema_path, model_path = _model_files(tmp_path, processors, MODELS["linear"])
        assert main(["evaluate", "--model", model_path, "--data", path, "--schema", schema_path, "--report", report]) == 2
        assert not os.path.exists(report)
