"""Batch scoring: ``Model.predict_batch`` against ``Model.predict``, the
recorded transformations it replays, and linear scores that overflow."""

from functools import cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pvml import (
    CategoricalOutput,
    InMemoryDataSource,
    RealOutput,
    TransformSpec,
    apply_transformers,
    build_dataset,
    fit_transformers,
    make_example,
)
from pvml.core import BATCH_ROWS, Example, FeatureValue, predict_chunked
from pvml.data import IdentityFit, MinMaxFit, ZScoreFit, recorded_transformers
from pvml.ensemble import ADABOOST, BAGGING, RANDOM_FOREST, EnsembleConfig, EnsembleTrainer, train_ensemble
from pvml.errors import NoFeatureOverlap, NonFiniteFeature, NonFiniteScore, ParseError, PvmlError
from pvml.optimize import AdaGrad, LinearSgdModel, LinearSgdTrainer, Sgd, train_linear_sgd
from pvml.provenance import PFlt, PInt, PList, PMap, PStr, instance_section, with_instance_entry
from pvml.trees import CartTrainer, TreeConfig, train_cart

# Two numeric features plus one rare token per row: a bootstrap sample
# misses some tokens, so some members cannot score a row of tokens alone.
TOKENS = [f"t@{i}" for i in range(12)]


def _rows(i):
    return [("x", float(i % 5) - 1.5), ("y", float((3 * i) % 7)), (TOKENS[i], 1.0)]


CLF = build_dataset(
    InMemoryDataSource([make_example(_rows(i), CategoricalOutput("abc"[i % 3])) for i in range(12)], "clf")
)
CLF9 = build_dataset(  # nine labels: a softmax row sums more than eight terms
    InMemoryDataSource([make_example(_rows(i), CategoricalOutput("abcdefghi"[i % 9])) for i in range(12)], "clf9")
)
REG = build_dataset(
    InMemoryDataSource([make_example(_rows(i), RealOutput(0.5 * i - 2.0)) for i in range(12)], "reg")
)


def _forest(variant, base, members=4):
    return EnsembleConfig(base, members, seed=7, sample_fraction=0.5, variant=variant)


MODELS = {
    "cart-clf": train_cart(CLF, TreeConfig(max_depth=4)),
    "cart-reg": train_cart(REG, TreeConfig(max_depth=4)),
    "linear-logistic": train_linear_sgd(CLF, "logistic", AdaGrad(0.3), 5, 4, 3),
    "linear-squared": train_linear_sgd(REG, "squared", Sgd(0.01), 5, 4, 3),
    "linear-logistic-9": train_linear_sgd(CLF9, "logistic", AdaGrad(0.3), 5, 4, 3),
    "bagging-clf": train_ensemble(CLF, _forest(BAGGING, CartTrainer(TreeConfig(max_depth=3, seed=1)))),
    "bagging-reg": train_ensemble(REG, _forest(BAGGING, CartTrainer(TreeConfig(max_depth=3, seed=1)))),
    "forest-clf": train_ensemble(
        CLF, _forest(RANDOM_FOREST, CartTrainer(TreeConfig(max_depth=3, feature_subsampling_fraction=0.5, seed=2)))
    ),
    "forest-reg": train_ensemble(
        REG, _forest(RANDOM_FOREST, CartTrainer(TreeConfig(max_depth=3, feature_subsampling_fraction=0.5, seed=2)))
    ),
    "adaboost-tree": train_ensemble(
        CLF, EnsembleConfig(CartTrainer(TreeConfig(max_depth=1, seed=3)), 5, seed=5, variant=ADABOOST)
    ),
    "bagging-linear": train_ensemble(
        CLF, _forest(BAGGING, LinearSgdTrainer("logistic", AdaGrad(0.3), 3, 4, 9), 3)
    ),
    "bagging-of-forests": train_ensemble(
        CLF,
        _forest(
            BAGGING,
            EnsembleTrainer(
                _forest(RANDOM_FOREST, CartTrainer(TreeConfig(max_depth=2, feature_subsampling_fraction=0.5, seed=4)), 2)
            ),
            3,
        ),
    ),
}

NAMES = ["x", "y", "z-unknown", *TOKENS, "t@99"]
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.5, 6.0]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
EXAMPLES = st.dictionaries(st.sampled_from(NAMES), VALUES, min_size=1, max_size=5).map(
    lambda d: make_example(d.items())
)


def _bits(prediction):
    """Everything a prediction holds, floats by their bit pattern, scores in their order."""
    output = prediction.output
    shown = output.label if isinstance(output, CategoricalOutput) else float.hex(output.value)
    scores = tuple((label, float.hex(v)) for label, v in prediction.scores.items())
    return shown, scores, prediction.features_used, prediction.features_total, prediction.warnings


def _one_by_one(model, examples):
    try:
        return [_bits(model.predict(x)) for x in examples]
    except PvmlError as exc:
        return type(exc)


def _batched(model, examples, transformers=()):
    try:
        return [_bits(p) for p in model.predict_batch(examples, transformers)]
    except PvmlError as exc:
        return type(exc)


class TestBatchEqualsOneByOne:
    @pytest.mark.parametrize("kind", sorted(MODELS))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(examples=st.lists(EXAMPLES, min_size=1, max_size=8))
    def test_every_field_bit_for_bit(self, kind, examples):
        model = MODELS[kind]
        assert _batched(model, examples) == _one_by_one(model, examples)

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_training_rows(self, kind):
        model = MODELS[kind]
        dataset = REG if model.task == "real" else CLF9 if kind == "linear-logistic-9" else CLF
        assert _batched(model, dataset.examples) == _one_by_one(model, dataset.examples)

    def test_some_member_skips_a_row(self):
        # a row of one token: some bootstrap saw it, some did not
        model = MODELS["bagging-reg"]
        token_rows = [make_example([(t, 1.0)]) for t in TOKENS]
        known = [sum(t in m.feature_domain for m in model.members) for t in TOKENS]
        assert any(0 < k < len(model.members) for k in known)
        scorable = [x for x, k in zip(token_rows, known) if k]
        assert _batched(model, scorable) == _one_by_one(model, scorable)
        if 0 in known:
            unscorable = [token_rows[known.index(0)]]
            assert _batched(model, unscorable) is NoFeatureOverlap is _one_by_one(model, unscorable)

    def test_no_overlap_is_the_same_error(self):
        rows = [make_example([("x", 1.0)]), make_example([("z-unknown", 1.0)])]
        for model in MODELS.values():
            assert _batched(model, rows) is NoFeatureOverlap is _one_by_one(model, rows)

    def test_unlabelled_and_labelled_rows_score_alike(self):
        model = MODELS["cart-clf"]
        unlabelled = [Example(ex.features) for ex in CLF.examples]
        assert _batched(model, unlabelled) == _batched(model, CLF.examples)

    def test_empty_batch(self):
        assert MODELS["forest-reg"].predict_batch([]) == []

    def test_chunks_cover_every_row_in_order(self):
        model = MODELS["cart-reg"]
        examples = [REG.examples[i % len(REG)] for i in range(BATCH_ROWS + 5)]
        assert [_bits(p) for p in predict_chunked(model, examples)] == _one_by_one(model, examples)

    def test_tree_deeper_than_the_recursion_limit(self):
        # the node arrays are built with a work list, not recursion
        import sys

        from pvml.trees import LeafNode, SplitNode, TreeModel

        tree = MODELS["cart-reg"]
        x = tree.feature_domain.id_of("x")
        node = LeafNode(1, mean=-1.0)
        for d in reversed(range(sys.getrecursionlimit() + 50)):
            node = SplitNode(x, float(d), LeafNode(1, mean=float(d)), node)
        deep = TreeModel("deep", tree.provenance, tree.feature_domain, tree.output_domain, node)
        rows = [make_example([("x", v)]) for v in (-1.0, 0.5, 40.0, 1e9)]
        assert [p.output.value for p in deep.predict_batch(rows)] == [0.0, 1.0, 40.0, -1.0]
        assert _batched(deep, rows) == _one_by_one(deep, rows)


@cache
def _pipeline(kinds):
    """CLF through fits of ``kinds`` in order, the fitted maps, and a tree trained on the result."""
    transformed, maps = CLF, []
    for kind in kinds:
        tmap = fit_transformers(transformed, TransformSpec(kind))
        transformed = apply_transformers(transformed, tmap)
        maps.append(tmap)
    return transformed, maps, train_cart(transformed, TreeConfig(max_depth=4))


class TestReplayedTransformations:
    @pytest.mark.parametrize("kinds", [("zscore",), ("minmax",), ("zscore", "minmax")])
    def test_recorded_fits_are_the_fitted_ones(self, kinds):
        transformed, maps, _ = _pipeline(kinds)
        recorded = recorded_transformers(transformed.provenance)
        assert [r.fits for r in recorded] == [
            {n: f for n, f in m.fits.items() if not isinstance(f, IdentityFit)} for m in maps
        ]
        assert [r.provenance for r in recorded] == [m.provenance for m in maps]
        assert [r.spec for r in recorded] == [m.spec for m in maps]

    @pytest.mark.parametrize("kinds", [("zscore",), ("minmax",), ("zscore", "minmax")])
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(examples=st.lists(EXAMPLES, min_size=1, max_size=6))
    def test_rescaled_batch_equals_transformed_examples(self, kinds, examples):
        transformed, _, model = _pipeline(kinds)
        recorded = recorded_transformers(transformed.provenance)
        queries = build_dataset(InMemoryDataSource([Example(x.features, CategoricalOutput("a")) for x in examples]))
        for tmap in recorded:
            queries = apply_transformers(queries, tmap)
        assert _batched(model, examples, recorded) == _one_by_one(model, queries.examples)

    def test_overflowing_rescale_is_a_non_finite_feature(self):
        tmap = fit_transformers(CLF, TransformSpec("zscore", ("x",)))
        tiny = type(tmap)(tmap.spec, {"x": ZScoreFit(0.0, 1e-300)}, (), tmap.provenance)
        rows = [make_example([("x", 1e10)])]
        with pytest.raises(NonFiniteFeature):
            MODELS["cart-clf"].predict_batch(rows, [tiny])
        with pytest.raises(NonFiniteFeature):
            apply_transformers(build_dataset(InMemoryDataSource([Example(rows[0].features, RealOutput(0.0))])), tiny)

    def _with_transformations(self, entries):
        return with_instance_entry(CLF.provenance, "transformations", entries)

    @pytest.mark.parametrize(
        "fitted",
        [
            PMap({"x": PMap({"mean": PFlt(0.0), "std": PFlt(0.0)})}),
            PMap({"x": PMap({"mean": PFlt(0.0), "std": PFlt(-1.0)})}),
            PMap({"x": PMap({"mean": PFlt(0.0), "std": PInt(1)})}),
            PMap({"x": PMap({"mean": PFlt(0.0)})}),
            PMap({"x": PStr("1")}),
            PList(),
        ],
    )
    def test_malformed_zscore_fit_is_a_parse_error(self, fitted):
        tprov = fit_transformers(CLF, TransformSpec("zscore")).provenance
        tprov = with_instance_entry(tprov, "fitted", fitted)
        with pytest.raises(ParseError):
            recorded_transformers(self._with_transformations(PList((tprov,))))

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0)])
    def test_minmax_max_not_above_min_is_a_parse_error(self, lo, hi):
        tprov = fit_transformers(CLF, TransformSpec("minmax")).provenance
        tprov = with_instance_entry(tprov, "fitted", PMap({"x": PMap({"min": PFlt(lo), "max": PFlt(hi)})}))
        with pytest.raises(ParseError):
            recorded_transformers(self._with_transformations(PList((tprov,))))

    @pytest.mark.parametrize("entries", [PStr("zscore"), PList((PStr("zscore"),)), PList((PMap({"fitted": PMap()}),))])
    def test_malformed_transformation_list_is_a_parse_error(self, entries):
        with pytest.raises(ParseError):
            recorded_transformers(self._with_transformations(entries))

    def test_recorded_minmax_fit(self):
        transformed, maps, _ = _pipeline(("minmax",))
        (recorded,) = recorded_transformers(transformed.provenance)
        info = CLF.feature_domain["x"]
        assert recorded.fits["x"] == MinMaxFit(info.min, info.max)
        assert instance_section(recorded.provenance) == instance_section(maps[0].provenance)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestNonFiniteLinearScores:
    def _huge_logistic(self):
        from test_parse_boundaries import _DATASETS

        clf, _ = _DATASETS
        return train_linear_sgd(clf, "logistic", Sgd(1e308), 1, 8, 0), clf

    def test_logistic_overflow_raises(self):
        model, clf = self._huge_logistic()
        assert np.isfinite(model.weights).all()
        with pytest.raises(NonFiniteScore):
            model.predict(clf.examples[-1])
        with pytest.raises(NonFiniteScore):
            model.predict_batch(clf.examples)

    def test_squared_overflow_raises(self):
        reg = REG
        weights = np.full((len(reg.feature_domain) + 1, 1), 1e308)
        model = LinearSgdModel("huge", MODELS["linear-squared"].provenance, reg.feature_domain, reg.output_domain, weights)
        example = Example((FeatureValue("x", 2.0), FeatureValue("y", 3.0)))
        with pytest.raises(NonFiniteScore):
            model.predict(example)
        with pytest.raises(NonFiniteScore):
            model.predict_batch([example])

    def test_cli_exits_2(self, tmp_path):
        from pvml.cli import main
        from pvml.data import CATEGORICAL_FIELD, NUMERIC, ColumnarSchema, FieldProcessor
        from pvml.persist import save_model
        from pvml.provenance import config_to_json, extract_configuration

        model, _ = self._huge_logistic()
        save_model(model, str(tmp_path / "model.pvml"))
        schema = ColumnarSchema("label", "categorical", (FieldProcessor("x", NUMERIC), FieldProcessor("t", CATEGORICAL_FIELD)))
        (tmp_path / "schema.json").write_text(config_to_json(extract_configuration(schema.provenance())))
        (tmp_path / "data.csv").write_text("x,t,label\n7,1,b\n")
        common = ["--model", str(tmp_path / "model.pvml"), "--data", str(tmp_path / "data.csv"),
                  "--schema", str(tmp_path / "schema.json")]
        assert main(["predict", *common, "--out", str(tmp_path / "p.csv")]) == 2
        assert main(["evaluate", *common, "--report", str(tmp_path / "r.json")]) == 2
        assert not (tmp_path / "p.csv").exists() and not (tmp_path / "r.json").exists()

