"""Core types and the runtime prediction contract."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvml.core import (
    CATEGORICAL,
    UNKNOWN,
    CategoricalDomain,
    CategoricalOutput,
    Dataset,
    Example,
    FeatureDomain,
    Model,
    RealOutput,
    argmax_label,
    build_dataset,
    check_feature_name,
    check_feature_names,
    make_example,
    _RunningStats,
)
from pvml.data import InMemoryDataSource
from pvml.errors import (
    EmptyExample,
    EmptyScores,
    EmptySource,
    MixedOutputTypes,
    NoFeatureOverlap,
    InvalidFeatureName,
    NonFiniteFeature,
    NonFiniteStatistic,
    OutputTypeMismatch,
    UnlabelledExample,
)
from pvml.provenance import object_provenance


class TestMakeExample:
    def test_sorts_by_name(self):
        ex = make_example([("b", 1.0), ("a", 2.0)])
        assert [(f.name, f.value) for f in ex.features] == [("a", 2.0), ("b", 1.0)]

    def test_duplicates_merge_by_sum(self):
        ex = make_example([("a", 1.0), ("a", 2.0)])
        assert [(f.name, f.value) for f in ex.features] == [("a", 3.0)]

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteFeature):
            make_example([("a", float("nan"))])

    def test_infinity_rejected(self):
        with pytest.raises(NonFiniteFeature):
            make_example([("a", float("inf"))])

    def test_empty_rejected(self):
        with pytest.raises(EmptyExample):
            make_example([])

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            make_example([("a", 1.0)], weight=0.0)

    def test_control_characters_rejected(self):
        for bad in ("\x00", "\x1f", "\x7f", "\x9f"):
            with pytest.raises(InvalidFeatureName):
                make_example([(f"a{bad}b", 1.0)])
        for fine in ("\x20", "\x7e", "\xa0"):
            assert make_example([(f"a{fine}b", 1.0)]).features[0].name == f"a{fine}b"

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abcdef", min_size=1, max_size=3),
                st.floats(-100, 100, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, pairs):
        once = make_example(pairs)
        twice = make_example([(f.name, f.value) for f in once.features])
        assert once == twice


class TestArgmax:
    def test_max_wins(self):
        assert argmax_label({"a": 0.2, "b": 0.8}) == "b"

    def test_tie_breaks_lexicographically(self):
        assert argmax_label({"b": 0.5, "a": 0.5}) == "a"

    def test_singleton(self):
        assert argmax_label({"z": 1.0}) == "z"

    def test_empty_rejected(self):
        with pytest.raises(EmptyScores):
            argmax_label({})


class TestFeatureDomain:
    @pytest.mark.parametrize(
        "names, count",
        [(["b", "a"], [1, 1]), (["a", "a"], [1, 1]), (["a", "b"], [1]), (["a"], [1, 1])],
        ids=["unsorted", "duplicate", "short-statistic", "long-statistic"],
    )
    def test_names_sorted_distinct_and_one_statistic_each(self, names, count):
        with pytest.raises(ValueError):
            FeatureDomain(names, count, *([0.0] * len(names) for _ in range(4)))

    def test_ids_are_positions(self):
        domain = FeatureDomain(["a", "b"], [2, 1], [0.0, 1.0], [1.0, 1.0], [0.5, 1.0], [0.25, 0.0])
        assert domain.ids == {"a": 0, "b": 1} and domain.names() == ("a", "b")
        assert domain.count.dtype == np.int64 and domain.max.dtype == np.float64
        assert not domain.min.flags.writeable

    def test_subset_keeps_the_statistics_of_the_ids_given(self):
        domain = FeatureDomain(["a", "b", "c"], [2, 1, 4], [0.0, 1.0, -2.0], [1.0, 1.0, 5.0], [0.5, 1.0, 0.0], [0.25, 0.0, 9.0])
        sub = domain.subset(np.array([0, 2]))
        assert sub == FeatureDomain(["a", "c"], [2, 4], [0.0, -2.0], [1.0, 5.0], [0.5, 0.0], [0.25, 9.0])
        assert domain.subset(np.arange(3)) == domain
        assert sub.bounds == ([0.0, -2.0], [1.0, 5.0]) and type(sub.bounds[0][0]) is float
        with pytest.raises(ValueError):
            domain.subset(np.array([2, 0]))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EXTREME = st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, 1e308, 5e-324, -5e-324, 2.2250738585072014e-308])
# the groups of values one feature can have: Welford's recurrence or its closed form
_GROUPS = st.one_of(
    st.tuples(_FINITE, st.integers(1, 6)).map(lambda vk: [vk[0]] * vk[1]),  # constant
    st.integers(1, 6).map(lambda k: [-0.0] * k),  # constant at -0.0
    st.lists(st.sampled_from([0.0, -0.0]), max_size=4).flatmap(lambda extra: st.permutations([0.0, -0.0, *extra])),
    _FINITE.map(lambda v: [v]),  # a single value
    st.lists(st.one_of(_EXTREME, _FINITE), min_size=1, max_size=8),  # very large and very small magnitudes
)


@settings(max_examples=300, deadline=None)
@given(groups=st.lists(_GROUPS, min_size=1, max_size=6), data=st.data())
def test_observed_is_one_running_stats_per_feature_bit_for_bit(groups, data):
    """The closed form of a constant feature gives the bits Welford gives, at
    ``-0.0`` too; a mix of ``0.0`` and ``-0.0`` has two bit patterns, so it
    runs the recurrence."""
    pairs = data.draw(st.permutations([(fid, v) for fid, group in enumerate(groups) for v in group]))
    ids = np.array([fid for fid, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.float64)
    domain = FeatureDomain.observed([f"f{i}" for i in range(len(groups))], ids, values)
    for fid in range(len(groups)):
        stats = _RunningStats(values[ids == fid].tolist())
        assert domain.count[fid] == stats.count
        for key in FeatureDomain.STATISTICS:
            assert np.float64(getattr(domain, key)[fid]).tobytes() == np.float64(getattr(stats, key)).tobytes(), key


def test_check_feature_names_refuses_what_check_feature_name_refuses():
    """The one pass over all names agrees with the check of each name, for
    every character of the first 1024 code points and the empty name."""
    for code in [None, *range(1024)]:
        bad = "" if code is None else f"x{chr(code)}"
        try:
            check_feature_name(bad)
        except InvalidFeatureName as exc:
            with pytest.raises(InvalidFeatureName) as raised:
                check_feature_names(["a", bad, "\x00"])
            assert str(raised.value) == str(exc)
        else:
            check_feature_names(["a", bad])


class TestCategoricalDomain:
    def test_labels_are_sorted_once(self):
        domain = CategoricalDomain({"q": 1, "b": 2, "p": 3})
        assert domain.labels() is domain.labels()
        assert domain.labels() == tuple(sorted(domain.counts)) == ("b", "p", "q")
        assert domain == CategoricalDomain({"p": 3, "q": 1, "b": 2})


class TestBuildDataset:
    def test_ids_assigned_lexicographically(self):
        examples = [
            make_example([("b", 1.0), ("a", 1.0)], CategoricalOutput("x")),
            make_example([("a", 2.0)], CategoricalOutput("x")),
            make_example([("b", 3.0)], CategoricalOutput("y")),
        ]
        ds = build_dataset(InMemoryDataSource(examples))
        assert ds.feature_domain.ids["a"] == 0
        assert ds.feature_domain.ids["b"] == 1

    def test_population_statistics(self):
        examples = [make_example([("a", v)], CategoricalOutput("x")) for v in (1.0, 2.0, 3.0)]
        ds = build_dataset(InMemoryDataSource(examples))
        domain, a = ds.feature_domain, ds.feature_domain.ids["a"]
        assert domain.mean[a] == pytest.approx(2.0, abs=1e-12)
        assert domain.variance[a] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert (domain.min[a], domain.max[a], domain.count[a]) == (1.0, 3.0, 3)

    def test_regression_targets_whose_variance_overflows_are_rejected(self):
        # legal floats up to 2**1019, whose squares overflow: CART's node
        # variance raised OverflowError in training before this check
        examples = [make_example([("x", float(i))], RealOutput(2.0**i)) for i in range(1020)]
        with pytest.raises(NonFiniteStatistic):
            build_dataset(InMemoryDataSource(examples))

    def test_mixed_outputs_rejected(self):
        examples = [
            make_example([("a", 1.0)], CategoricalOutput("x")),
            make_example([("a", 2.0)], RealOutput(1.0)),
        ]
        with pytest.raises(MixedOutputTypes):
            build_dataset(InMemoryDataSource(examples))

    def test_unlabelled_rejected(self):
        examples = [make_example([("a", 1.0)], UNKNOWN)]
        with pytest.raises(UnlabelledExample):
            build_dataset(InMemoryDataSource(examples))

    def test_empty_source_rejected(self):
        with pytest.raises(EmptySource):
            build_dataset(InMemoryDataSource([]))

    def test_statistics_match_bruteforce_second_pass(self):
        import random

        rnd = random.Random(7)
        examples = []
        for _ in range(200):
            pairs = [(name, rnd.uniform(-50, 50)) for name in "abcde" if rnd.random() < 0.7]
            if not pairs:
                pairs = [("a", rnd.uniform(-50, 50))]
            examples.append(make_example(pairs, CategoricalOutput(rnd.choice("xy"))))
        ds = build_dataset(InMemoryDataSource(examples))

        observed: dict[str, list[float]] = {}
        for ex in examples:
            for f in ex.features:
                observed.setdefault(f.name, []).append(f.value)
        for name, values in observed.items():
            domain, fid = ds.feature_domain, ds.feature_domain.ids[name]
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            assert domain.count[fid] == len(values)
            assert domain.min[fid] == min(values) and domain.max[fid] == max(values)
            assert math.isclose(domain.mean[fid], mean, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(domain.variance[fid], var, rel_tol=1e-12, abs_tol=1e-12)

    def test_output_domain_counts(self):
        examples = [
            make_example([("a", 1.0)], CategoricalOutput(l)) for l in ("x", "x", "y")
        ]
        ds = build_dataset(InMemoryDataSource(examples))
        assert ds.output_domain.counts == {"x": 2, "y": 1}
        assert sum(ds.output_domain.counts.values()) == len(ds.examples)


class _StubModel(Model):
    """Echoes back which feature ids the contract layer hands it."""

    model_class = "test.Stub"

    def __init__(self, feature_domain, output_domain):
        prov = object_provenance("test.Stub")
        super().__init__("stub", prov, feature_domain, output_domain)
        self.seen_ids: list[set[int]] = []

    def _predict_intersected(self, sparse):
        self.seen_ids.append(set(sparse))
        labels = self.output_domain.labels()
        scores = {label: (1.0 if i == 0 else 0.0) for i, label in enumerate(labels)}
        return CategoricalOutput(labels[0]), scores


def _stub_over(names_with_range):
    names, lows, highs = zip(*sorted(names_with_range))
    means = [(lo + hi) / 2 for lo, hi in zip(lows, highs)]
    domain = FeatureDomain(names, [3] * len(names), lows, highs, means, [1.0] * len(names))
    return _StubModel(domain, CategoricalDomain({"x": 2, "y": 1}))


class TestPredictContract:
    def test_no_overlap_raises(self):
        model = _stub_over([("f1", 0.0, 1.0), ("f2", 0.0, 1.0)])
        with pytest.raises(NoFeatureOverlap):
            model.predict(make_example([("f3", 1.0)]))

    def test_unseen_features_dropped_and_counted(self):
        model = _stub_over([("f1", 0.0, 1.0), ("f2", 0.0, 1.0)])
        pred = model.predict(make_example([("f1", 1.0), ("f3", 5.0)]))
        assert pred.features_used == 1
        assert pred.features_total == 2

    def test_out_of_range_warning(self):
        model = _stub_over([("f1", 0.0, 1.0)])
        pred = model.predict(make_example([("f1", 7.0)]))
        assert "out-of-range:f1" in pred.warnings

    def test_boundary_values_do_not_warn(self):
        model = _stub_over([("f1", 0.0, 1.0)])
        for v in (0.0, 1.0, 0.5):
            assert model.predict(make_example([("f1", v)])).warnings == ()

    def test_never_sees_unknown_feature_ids(self):
        model = _stub_over([("f1", 0.0, 1.0), ("f2", 0.0, 1.0)])
        model.predict(make_example([("f1", 1.0), ("zz", 9.0)]))
        model.predict(make_example([("f2", 2.0)]))
        valid = {0, 1}
        assert all(ids <= valid for ids in model.seen_ids)

    def test_overlap_of_one_feature_is_enough(self):
        model = _stub_over([("f1", 0.0, 1.0), ("f2", 0.0, 1.0)])
        pred = model.predict(make_example([("f2", 0.5), ("other", 1.0)]))
        assert pred.features_used == 1

    def test_expected_task_checked(self):
        model = _stub_over([("f1", 0.0, 1.0)])
        with pytest.raises(OutputTypeMismatch):
            model.predict(make_example([("f1", 0.5)]), expected_task="real")

    def test_matching_expected_task_predicts(self):
        model = _stub_over([("f1", 0.0, 1.0)])
        pred = model.predict(make_example([("f1", 0.5)]), expected_task=CATEGORICAL)
        assert pred.output == CategoricalOutput("x")


class TestDatasetImmutability:
    def test_examples_are_a_tuple(self, separable_dataset):
        assert isinstance(separable_dataset.examples, tuple)

    def test_example_fields_frozen(self):
        ex = make_example([("a", 1.0)])
        with pytest.raises(Exception):
            ex.weight = 2.0
