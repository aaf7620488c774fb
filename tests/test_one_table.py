"""A dataset is one table: its columns and domains are built without examples.

The reference here is the per-example build that datasets used before:
one Welford accumulator per feature name, fed example by example, feature
by feature.  The columnar build (``build_dataset``) and
``apply_transformers`` must give the same domains bit for bit, NaN and
signed zeros included, and the same values, or raise the same error.  A
``bootstrap_sample`` keeps the parent's feature statistics for the features
it draws, bit for bit, and builds its output domain from the drawn rows.
"""

import math
import struct
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import pvml.data
from pvml.core import BATCH_ROWS, CategoricalDomain, CategoricalOutput, RealOutput, build_dataset, make_example, output_task
from pvml.data import (
    ColumnarSchema,
    CsvDataSource,
    FieldProcessor,
    InMemoryDataSource,
    MinMaxFit,
    TransformerMap,
    TransformSpec,
    ZScoreFit,
    apply_transformers,
)
from pvml.ensemble import bootstrap_sample
from pvml.errors import (
    EmptyExample,
    EmptySource,
    MixedOutputTypes,
    NonFiniteFeature,
    NonFiniteStatistic,
    PvmlError,
    UnlabelledExample,
    UnparseableNumeric,
)
from pvml.provenance import object_provenance
from pvml.rng import Xoshiro256StarStar

from test_compiled_rows import _arrays, _source, _write_csv, csv_inputs


class _ReferenceStats:
    """The per-example Welford accumulator, one ``add`` per observation."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value):
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def variance(self):
        return self._m2 / self.count if self.count else 0.0


def _bits(x):
    """Floats as their IEEE bytes, so that NaN equals NaN and -0.0 differs from 0.0."""
    return struct.pack("<d", x) if isinstance(x, float) else x


def _stats_bits(stats):
    return tuple(_bits(v) for v in (stats.count, stats.min, stats.max, stats.mean, stats.variance))


def _reference_feature_domain(rows):
    """``{name: (id, count, min, max, mean, variance)}``, floats as bits, of rows of ``(name, value)`` pairs."""
    observations = {}
    for row in rows:
        for name, value in row:
            observations.setdefault(name, _ReferenceStats()).add(value)
    return {name: (i, *_stats_bits(observations[name])) for i, name in enumerate(sorted(observations))}


def _reference_output_domain(outputs):
    """Label counts, or the regression targets' statistics as bits, raising as the library does."""
    tasks = {output_task(output) for output in outputs}
    if None in tasks:
        raise UnlabelledExample("datasets require ground truth on every example")
    if len(tasks) != 1:
        raise MixedOutputTypes("source mixes categorical and real outputs")
    if isinstance(outputs[0], CategoricalOutput):
        counts = {}
        for output in outputs:
            counts[output.label] = counts.get(output.label, 0) + 1
        return counts
    stats = _ReferenceStats()
    for output in outputs:
        stats.add(output.value)
    spread = stats.max - stats.min
    if not (math.isfinite(stats.variance) and math.isfinite(spread * spread)):
        raise NonFiniteStatistic(
            f"regression targets from {stats.min!r} to {stats.max!r} are too far apart: their variance overflows"
        )
    return _stats_bits(stats)


def _reference(examples):
    """The domains the per-example build gave ``examples``, or the error it raised."""
    try:
        return _reference_feature_domain(_pairs(examples)), _reference_output_domain([ex.output for ex in examples])
    except PvmlError as exc:
        return type(exc), str(exc)


def _domains(dataset):
    domain = dataset.feature_domain
    keys = ("count", "min", "max", "mean", "variance")
    features = {name: (fid, *(_bits(getattr(domain, key)[fid].item()) for key in keys)) for name, fid in domain.ids.items()}
    out = dataset.output_domain
    return features, (dict(out.counts) if isinstance(out, CategoricalDomain) else _stats_bits(out))


def _outcome(build):
    """The domains of ``build()`` as bits, or the error it raised."""
    try:
        return _domains(build())
    except PvmlError as exc:
        return type(exc), str(exc)


def _pairs(examples):
    return [[(f.name, f.value) for f in ex.features] for ex in examples]


def _example_bits(examples):
    return [([(n, _bits(v)) for n, v in row], ex.output, ex.weight) for row, ex in zip(_pairs(examples), examples)]


# signed zeros, values whose Welford step overflows (1e308 after -1e308 is
# an infinite delta, then a NaN mean or variance), and ordinary floats
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 1.7976931348623157e308, 5e-324, 1.0, -2.5, 1e16]),
    st.floats(allow_nan=False, allow_infinity=False),
)
NAMES = st.sampled_from(["a", "b", "b@x", "c", "z"])
OUTPUTS = {"categorical": st.sampled_from("pqr").map(CategoricalOutput), "real": VALUES.map(RealOutput)}


@st.composite
def example_sets(draw):
    """One to eight examples of one task over a few repeated names."""
    outputs = OUTPUTS[draw(st.sampled_from(sorted(OUTPUTS)))]
    features = st.lists(st.tuples(NAMES, VALUES), min_size=1, max_size=5)
    rows = st.tuples(features, outputs, st.sampled_from([1.0, 0.5, 3.0]))
    examples = []
    for pairs, output, weight in draw(st.lists(rows, min_size=1, max_size=8)):
        try:
            examples.append(make_example(pairs, output, weight))
        except NonFiniteFeature:  # a repeated name whose values sum past the float range
            pass
    assume(examples)
    return examples


SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestBuild:
    @SETTINGS
    @given(examples=example_sets())
    @example(examples=[make_example([("a", -0.0)], CategoricalOutput("p"))])
    @example(examples=[make_example([("a", 0.0)], RealOutput(1.0)), make_example([("a", -0.0)], RealOutput(2.0))])
    @example(examples=[make_example([("a", 1e308)], RealOutput(1.0)), make_example([("a", -1e308)], RealOutput(2.0))])
    @example(examples=[make_example([("a", 1e308)], RealOutput(1e308)), make_example([("a", 1.0)], RealOutput(-1e308))])
    def test_in_memory_domains_equal_the_per_example_build(self, examples):
        assert _outcome(lambda: build_dataset(InMemoryDataSource(examples))) == _reference(examples)

    @SETTINGS
    @given(examples=example_sets())
    def test_examples_are_the_rows_given(self, examples):
        try:
            dataset = build_dataset(InMemoryDataSource(examples))
        except NonFiniteStatistic:
            return
        assert dataset.examples == tuple(examples)
        assert _example_bits(dataset.examples) == _example_bits(examples)

    def test_mixed_outputs_and_missing_ones_raise(self):
        a, b = make_example([("a", 1.0)], CategoricalOutput("p")), make_example([("a", 1.0)], RealOutput(1.0))
        with pytest.raises(MixedOutputTypes):
            build_dataset(InMemoryDataSource([a, b]))
        with pytest.raises(UnlabelledExample):
            build_dataset(InMemoryDataSource([a, make_example([("a", 1.0)])]))
        with pytest.raises(EmptySource):
            build_dataset(InMemoryDataSource([]))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(inputs=csv_inputs())
    def test_csv_domains_and_first_error_equal_the_per_example_build(self, tmp_path_factory, inputs):
        """Every row through ``featurize_row`` first, as ``build_dataset`` did:
        a malformed file raises the same error, for the same first bad row,
        whether its rows make one block or blocks of one or three rows."""
        processors, header, rows = inputs
        path = _write_csv(tmp_path_factory.mktemp("rows"), header, rows)
        for rows_per_block in (BATCH_ROWS, 1, 3):
            with patch.object(pvml.data, "BATCH_ROWS", rows_per_block):
                try:
                    examples = list(_source(path, processors))
                except PvmlError as exc:
                    want = type(exc), str(exc)
                else:
                    want = _reference(examples)
                assert _outcome(lambda: build_dataset(_source(path, processors))) == want
                if not isinstance(want[0], type):
                    assert _example_bits(build_dataset(_source(path, processors)).examples) == _example_bits(examples)


# four columns: ``k`` is constant within a block and varies across blocks,
# so its statistics take Welford's steps over every block, not the closed form
BLOCKS_SCHEMA = ColumnarSchema(
    "y",
    "categorical",
    tuple(FieldProcessor(column, kind) for column, kind in (("n", "numeric"), ("k", "numeric"), ("c", "categorical"), ("a", "text"))),
)


class TestBlockJoin:
    """A CSV file's blocks join into the dataset that its examples build as one block."""

    @pytest.mark.parametrize("n", [BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1, 3 * BATCH_ROWS])
    def test_the_blocks_of_a_file_build_the_dataset_of_its_examples(self, tmp_path, n):
        """The token ``last`` is first met in the last row, so in the last block."""
        rows = [
            ("" if i % 5 == 0 else str(i % 7 - 3), str(1.5 + i // BATCH_ROWS), ("red", "r", "blue")[i % 3],
             f"b zz t{i % 11}" + (" last" if i == n - 1 else ""), "pq"[i % 2])
            for i in range(n)
        ]
        source = CsvDataSource(_write_csv(tmp_path, ["n", "k", "c", "a", "y"], rows), BLOCKS_SCHEMA)
        dataset, reference = build_dataset(source), build_dataset(InMemoryDataSource(tuple(source)))
        assert _arrays(dataset.columns) == _arrays(reference.columns)
        assert _domains(dataset) == _domains(reference)
        assert "a@last" in dataset.feature_domain

    def test_an_empty_row_in_block_two_raises_before_a_bad_cell_in_block_three(self, tmp_path):
        rows = [("1", "2", "red", "b", "p")] * (3 * BATCH_ROWS)
        rows[BATCH_ROWS + 5] = ("", "", "", "", "p")
        rows[2 * BATCH_ROWS + 5] = ("x", "2", "red", "b", "p")
        with pytest.raises(EmptyExample):
            build_dataset(CsvDataSource(_write_csv(tmp_path, ["n", "k", "c", "a", "y"], rows), BLOCKS_SCHEMA))

    def test_an_unlabelled_file_raises_the_bad_cell_of_its_last_block(self, tmp_path):
        """The task checks run once every block is read, so the cell's error comes first."""
        rows = [("1", "2", "red", "b")] * (2 * BATCH_ROWS + 3)
        rows[-1] = ("1", "x", "red", "b")
        with pytest.raises(UnparseableNumeric) as err:
            build_dataset(CsvDataSource(_write_csv(tmp_path, ["n", "k", "c", "a"], rows), BLOCKS_SCHEMA))
        assert err.value.value == "x"


def _reference_draw(n, fraction, with_replacement, member_seed):
    """The row indices ``bootstrap_sample`` draws."""
    n_draw = int(math.floor(fraction * n + 0.5))
    rng = Xoshiro256StarStar(member_seed)
    if with_replacement:
        return [rng.next_below(n) for _ in range(n_draw)]
    if n_draw == n:
        return list(range(n))
    return rng.sample_prefix(n, n_draw)


def _sample_reference(dataset, drawn):
    """The domains of a sample of ``dataset`` that draws the examples ``drawn``:
    the parent's feature statistics of the names drawn, renumbered in name
    order, and the drawn outputs' domain, or the error that raises."""
    parent = _domains(dataset)[0]
    names = sorted({name for row in _pairs(drawn) for name, _ in row})
    try:
        return {name: (i, *parent[name][1:]) for i, name in enumerate(names)}, _reference_output_domain(
            [ex.output for ex in drawn]
        )
    except PvmlError as exc:
        return type(exc), str(exc)


class TestBootstrap:
    @SETTINGS
    @given(
        examples=example_sets(),
        fraction=st.sampled_from([0.3, 0.5, 0.8, 1.0]),
        with_replacement=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_member_domains_are_the_parent_statistics_of_the_names_drawn(
        self, examples, fraction, with_replacement, seed
    ):
        try:
            dataset = build_dataset(InMemoryDataSource(examples))
        except NonFiniteStatistic:
            return
        drawn = [examples[i] for i in _reference_draw(len(examples), fraction, with_replacement, seed)]
        if not drawn:
            with pytest.raises(EmptySource):
                bootstrap_sample(dataset, fraction, with_replacement, seed)
            return
        want = _sample_reference(dataset, drawn)
        assert _outcome(lambda: bootstrap_sample(dataset, fraction, with_replacement, seed)) == want
        if not isinstance(want[0], type):
            sample = bootstrap_sample(dataset, fraction, with_replacement, seed)
            assert _example_bits(sample.examples) == _example_bits(drawn)

    def test_a_sample_that_misses_a_label(self):
        labels = ["p"] * 9 + ["z"]
        examples = [
            make_example([("x", float(i)), ("y", -float(i))], CategoricalOutput(label))
            for i, label in enumerate(labels)
        ]
        dataset = build_dataset(InMemoryDataSource(examples))
        seed = next(s for s in range(100) if 9 not in _reference_draw(10, 0.5, False, s))
        sample = bootstrap_sample(dataset, 0.5, False, seed)
        assert sample.output_domain.counts == {"p": 5}
        assert sample.columns.targets.tolist() == [0] * 5
        assert _domains(sample) == _sample_reference(dataset, [examples[i] for i in _reference_draw(10, 0.5, False, seed)])

    def test_member_ids_are_the_sorted_subset_of_the_parent_ids(self):
        examples = [
            make_example([("a", 1.0)], CategoricalOutput("p")),
            make_example([("b", 2.0), ("d", 1.0)], CategoricalOutput("q")),
            make_example([("c", 3.0)], CategoricalOutput("p")),
        ]
        dataset = build_dataset(InMemoryDataSource(examples))
        seed = next(s for s in range(100) if sorted(_reference_draw(3, 0.67, False, s)) == [1, 2])
        draw = _reference_draw(3, 0.67, False, seed)
        sample = bootstrap_sample(dataset, 0.67, False, seed)
        assert sample.feature_domain.names() == ("b", "c", "d")
        names = [sample.feature_domain.names()[i] for i in sample.columns.feature_ids.tolist()]
        assert names == [f.name for i in draw for f in examples[i].features]


def _reference_apply(examples, transformer):
    """The per-example rewrite: each fitted value becomes ``(v - shift) / divisor``,
    and a non-finite result raises :class:`NonFiniteFeature`."""
    rows = []
    for ex in examples:
        row = []
        for f in ex.features:
            pair = transformer.affine.get(f.name)
            value = f.value if pair is None else (f.value - pair[0]) / pair[1]
            if not math.isfinite(value):
                raise NonFiniteFeature(f"feature {f.name!r} has non-finite value {value!r}")
            row.append((f.name, value))
        rows.append(row)
    return rows


class TestApplyTransformers:
    @SETTINGS
    @given(
        examples=example_sets(),
        fits=st.dictionaries(NAMES, st.tuples(VALUES, VALUES), max_size=4),
        zscore=st.booleans(),
    )
    def test_domains_and_values_equal_the_per_example_rewrite(self, examples, fits, zscore):
        maps = {name: ZScoreFit(a, b) if zscore else MinMaxFit(a, b) for name, (a, b) in fits.items()}
        assume(all(fit.affine()[1] != 0.0 for fit in maps.values()))
        try:
            dataset = build_dataset(InMemoryDataSource(examples))
        except NonFiniteStatistic:
            return
        spec = TransformSpec("zscore" if zscore else "minmax")
        transformer = TransformerMap(spec, maps, (), object_provenance("pvml.ZScoreTransform"))
        try:
            rows = _reference_apply(dataset.examples, transformer)
        except NonFiniteFeature as exc:
            with pytest.raises(NonFiniteFeature) as raised:
                apply_transformers(dataset, transformer)
            assert str(raised.value) == str(exc)
            return
        out = apply_transformers(dataset, transformer)
        assert _domains(out)[0] == _reference_feature_domain(rows)
        assert [[(n, _bits(v)) for n, v in row] for row in rows] == [
            [(n, _bits(v)) for n, v in row] for row in _pairs(out.examples)
        ]
        assert out.output_domain == dataset.output_domain
