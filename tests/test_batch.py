"""Batch scoring: ``Model.predict_batch`` against ``Model.predict``, the
recorded transformations that take raw rows to the model's space, and
linear scores that overflow."""

import builtins
import copy
import os
import tempfile
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
from pvml.core import Example, FeatureValue, Prediction
from pvml.data import (
    ColumnarSchema,
    CsvDataSource,
    FieldProcessor,
    IdentityFit,
    MinMaxFit,
    in_model_space,
    recorded_transformers,
)
from pvml.ensemble import ADABOOST, BAGGING, RANDOM_FOREST, EnsembleConfig, EnsembleModel, EnsembleTrainer, combine, train_ensemble
from pvml.errors import NoFeatureOverlap, NonFiniteFeature, NonFiniteScore, ParseError, PipelineMismatch, PvmlError
from pvml.evaluate import evaluate_classification
from pvml.optimize import AdaGrad, LinearSgdModel, LinearSgdTrainer, Sgd, train_linear_sgd
from pvml.persist import load_model, save_model
from pvml.provenance import PFlt, PInt, PList, PMap, PStr, with_instance_entry
from pvml.trees import CartTrainer, TreeConfig, TreeModel, train_cart

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
    "bagging-linear-reg": train_ensemble(REG, _forest(BAGGING, LinearSgdTrainer("squared", Sgd(0.01), 3, 4, 9), 3)),
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
    "bagging-of-forests-reg": train_ensemble(
        REG,
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


def _batched(model, examples):
    try:
        return [_bits(p) for p in model.predict_batch(examples)]
    except PvmlError as exc:
        return type(exc)


def _compiled_csv(model, examples):
    """The predictions of ``examples`` written as CSV rows, one numeric column
    per name of :data:`NAMES`, through ``CsvDataSource.compiled``."""
    schema = ColumnarSchema("label", "categorical", tuple(FieldProcessor(n, "numeric") for n in NAMES))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(NAMES) + "\n")
            for values in (x.as_dict() for x in examples):
                fh.write(",".join(repr(values[n]) if n in values else "" for n in NAMES) + "\n")
        source = CsvDataSource(path, schema)
        try:
            return [_bits(p) for columns, totals, _ in source.compiled(model) for p in model.predict_compiled(columns, totals)]
        except PvmlError as exc:
            return type(exc)


def _in_model_space(model, dataset):
    """The predictions of ``dataset`` through ``in_model_space`` and ``predict_compiled``."""
    columns, totals, _ = in_model_space(model, dataset)
    try:
        return [_bits(p) for p in model.predict_compiled(columns, totals)]
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

    def test_forest_mean_ignores_a_compensated_builtin_sum(self, monkeypatch):
        # from Python 3.12 on, builtin sum adds floats with a compensation
        # term; a forest's one-row mean must add its members in the order a
        # batch adds their arrays, whatever builtin sum does
        rows = [make_example([("x", i / 7.0), ("y", (i * i) % 13 / 3.0)], RealOutput(i * 0.1 + i % 7 / 3.0)) for i in range(60)]
        data = build_dataset(InMemoryDataSource(rows, "sum-order"))
        base = CartTrainer(TreeConfig(max_depth=4, feature_subsampling_fraction=0.5, seed=6))
        model = train_ensemble(data, EnsembleConfig(base, 6, seed=8, variant=RANDOM_FOREST))

        def neumaier_sum(values, start=0):
            total, compensation = start, 0.0
            for value in values:
                step = total + value
                compensation += (total - step) + value if abs(total) >= abs(value) else (value - step) + total
                total = step
            return total + compensation if compensation else total

        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        assert _batched(model, data.examples) == _one_by_one(model, data.examples)

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

    def test_tree_deeper_than_the_recursion_limit(self):
        # the node table is walked with loops, not recursion
        import sys

        from pvml.trees import LEAF, TreeModel

        tree = MODELS["cart-reg"]
        x = tree.feature_domain.ids["x"]
        depth = sys.getrecursionlimit() + 50
        nodes, leaves = [], {}
        for d in range(depth):  # split d sends x <= d to a leaf of value d, any other row on to split d + 1
            nodes += [(x, float(d), 2 * d + 1, 2 * d + 2), LEAF]
            leaves[2 * d + 1] = (1, float(d))
        nodes.append(LEAF)
        leaves[2 * depth] = (1, -1.0)
        deep = TreeModel("deep", tree.provenance, tree.feature_domain, tree.output_domain, nodes, leaves)
        rows = [make_example([("x", v)]) for v in (-1.0, 0.5, 40.0, 1e9)]
        assert [p.output.value for p in deep.predict_batch(rows)] == [0.0, 1.0, 40.0, -1.0]
        assert _batched(deep, rows) == _one_by_one(deep, rows)


ENSEMBLES = sorted(kind for kind, model in MODELS.items() if isinstance(model, EnsembleModel))


@cache
def _round_trip(kind):
    """``MODELS[kind]`` saved and loaded again."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.pvml")
        save_model(MODELS[kind], path)
        return load_model(path)


def _labels(model):
    return model.output_domain.labels() if model.task == "categorical" else ()


def _committee(model, example, in_label_order=True):
    """An ensemble's prediction by its definition: each member predicts the
    example restricted to the member's own names, a member that knows none
    of them is skipped, and the rest merge through ``combine``, whose scores
    are read into the ensemble's label order, 0.0 for a label they lack.
    Without ``in_label_order`` every level keeps ``combine``'s own scores."""
    known = [f for f in example.features if f.name in model.feature_domain]
    predictions, weights = [], []
    for member, weight in zip(model.members, model.member_weights):
        own = tuple(f for f in known if f.name in member.feature_domain)
        if not own:
            continue
        try:
            if isinstance(member, EnsembleModel):
                predictions.append(_committee(member, Example(own), in_label_order))
            else:
                predictions.append(type(member).predict(member, Example(own)))
        except NoFeatureOverlap:
            continue  # a nested ensemble none of whose members knows them
        weights.append(weight)
    if not predictions:
        raise NoFeatureOverlap("no member knows the example's features")
    merged = combine(predictions, weights)
    if in_label_order:
        merged = Prediction(merged.output, {label: merged.scores.get(label, 0.0) for label in _labels(model)}, 0, 0)
    domain = model.feature_domain
    bounds = [(f.name, f.value, domain.min[domain.ids[f.name]], domain.max[domain.ids[f.name]]) for f in known]
    warnings = tuple(f"out-of-range:{name}" for name, value, lo, hi in bounds if value < lo or value > hi)
    return Prediction(merged.output, merged.scores, len(known), len(example.features), warnings)


class TestEnsembleDefinition:
    """An ensemble predicts, bit for bit, as its committee of members, trained
    or loaded from its file, whichever table or path scores it."""

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("kind", ENSEMBLES)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(examples=st.lists(EXAMPLES, min_size=1, max_size=6))
    def test_predict_is_the_committee(self, kind, loaded, examples):
        model = _round_trip(kind) if loaded else MODELS[kind]
        for example in examples:
            try:
                expected = _bits(_committee(model, example))
            except NoFeatureOverlap:
                with pytest.raises(NoFeatureOverlap):
                    model.predict(example)
                continue
            assert _bits(model.predict(example)) == expected

    def test_tree_ensembles_score_through_the_forest_table(self, monkeypatch):
        class MemberIdsUsed(Exception):
            pass

        def member_ids(self):
            raise MemberIdsUsed

        monkeypatch.setattr(EnsembleModel, "_member_ids", property(member_ids))
        forests = [kind for kind in ENSEMBLES if all(isinstance(m, TreeModel) for m in MODELS[kind].members)]
        assert sorted(forests) == ["adaboost-tree", "bagging-clf", "bagging-reg", "forest-clf", "forest-reg"]
        for kind in forests:
            model = MODELS[kind]
            dataset = REG if model.task == "real" else CLF
            model.predict(dataset.examples[0])
            model.predict_batch(dataset.examples)
            model.predict_compiled(dataset.columns, [len(x.features) for x in dataset.examples])
        with pytest.raises(MemberIdsUsed):
            MODELS["bagging-linear"].predict(CLF.examples[0])
        with pytest.raises(MemberIdsUsed):
            MODELS["bagging-linear"].predict_batch(CLF.examples)


class TestEveryLabelInLabelOrder:
    """A classification ensemble scores every label of its domain, in label
    order, one row or many.  Each score that ``combine`` gives keeps its
    bits, and a label that no member scores reads 0.0."""

    @pytest.mark.parametrize("kind", ENSEMBLES)
    def test_training_rows_and_rows_some_member_never_saw(self, kind):
        model = MODELS[kind]
        dataset = REG if model.task == "real" else CLF
        rows, present = [], []
        for example in [*dataset.examples, *(make_example([(t, 1.0)]) for t in TOKENS)]:
            try:
                present.append(_committee(model, example, in_label_order=False).scores)
            except NoFeatureOverlap:
                continue
            rows.append(example)
        expected = [[(label, scores.get(label, 0.0).hex()) for label in _labels(model)] for scores in present]
        for predictions in ([model.predict(x) for x in rows], model.predict_batch(rows)):
            assert [[(label, v.hex()) for label, v in p.scores.items()] for p in predictions] == expected
        gained = sum(len(scores) < len(_labels(model)) for scores in present)
        assert gained if kind in ("bagging-clf", "forest-clf", "bagging-linear", "bagging-of-forests") else not gained


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
    def test_raw_rows_reach_model_space_as_the_transformed_examples(self, kinds, examples):
        """Raw rows enter the model's space as rescaled columns, through
        ``CsvDataSource.compiled`` and through ``in_model_space``; both score
        as the examples that the recorded fits rewrote."""
        transformed, _, model = _pipeline(kinds)
        queries = build_dataset(InMemoryDataSource([Example(x.features, CategoricalOutput("a")) for x in examples]))
        rewritten = queries
        for tmap in recorded_transformers(transformed.provenance):
            rewritten = apply_transformers(rewritten, tmap)
        expected = _one_by_one(model, rewritten.examples)
        assert _in_model_space(model, queries) == expected
        assert _compiled_csv(model, examples) == expected

    def test_overflowing_rescale_is_a_non_finite_feature(self):
        transformed, (tmap,), model = _pipeline(("zscore",))
        tiny = with_instance_entry(tmap.provenance, "fitted", PMap({"x": PMap({"mean": PFlt(0.0), "std": PFlt(1e-300)})}))
        data = with_instance_entry(transformed.provenance, "transformations", PList((tiny,)))
        model = copy.copy(model)
        model.provenance = with_instance_entry(model.provenance, "data", data)
        row = make_example([("x", 1e10)], RealOutput(0.0))
        with pytest.raises(NonFiniteFeature):
            in_model_space(model, build_dataset(InMemoryDataSource([row])))
        assert _compiled_csv(model, [row]) is NonFiniteFeature

    def test_a_dataset_transformed_by_another_fit_is_a_pipeline_mismatch(self):
        transformed, _, model = _pipeline(("zscore",))
        half = build_dataset(InMemoryDataSource(CLF.examples[:6]))
        refitted = apply_transformers(CLF, fit_transformers(half, TransformSpec("zscore")))
        for dataset in (refitted, _pipeline(("zscore", "minmax"))[0]):
            with pytest.raises(PipelineMismatch):
                in_model_space(model, dataset)
            with pytest.raises(PipelineMismatch):
                evaluate_classification(model, dataset)
        # the raw rows and the rows the model's own pipeline rewrote are one evaluation
        assert evaluate_classification(model, CLF).to_report() == evaluate_classification(model, transformed).to_report()

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
        domain, x = CLF.feature_domain, CLF.feature_domain.ids["x"]
        assert recorded.fits["x"] == MinMaxFit(domain.min[x], domain.max[x])
        assert recorded.provenance.instance == maps[0].provenance.instance


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

