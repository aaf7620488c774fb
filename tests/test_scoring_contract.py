"""The scoring contract: an ensemble scores as a committee of its members
scored alone, and a model class written outside the library scores one
row and many rows alike through the single kernel it implements."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pvml import CategoricalOutput, make_example
from pvml.core import CategoricalDomain, FeatureDomain, Model, Prediction, compile_examples
from pvml.ensemble import combine
from pvml.errors import NoFeatureOverlap, PvmlError
from pvml.provenance import object_provenance

from test_batch import CLF, EXAMPLES, MODELS, REG, TOKENS, _batched, _bits, _labels, _one_by_one

ENSEMBLES = ["bagging-clf", "bagging-reg", "forest-clf", "forest-reg", "adaboost-tree", "bagging-of-forests"]


def _output_and_scores(prediction):
    output = prediction.output
    shown = output.label if isinstance(output, CategoricalOutput) else float.hex(output.value)
    return shown, tuple((label, float.hex(v)) for label, v in prediction.scores.items())


def _committee(model, example):
    """``combine`` over every member that scores ``example`` on its own, its
    scores read into the ensemble's label order, 0.0 for a label they lack."""
    predictions, weights = [], []
    for member, weight in zip(model.members, model.member_weights):
        try:
            predictions.append(member.predict(example))
        except NoFeatureOverlap:
            continue
        weights.append(weight)
    if not predictions:
        return NoFeatureOverlap
    merged = combine(predictions, weights)
    return _output_and_scores(Prediction(merged.output, {label: merged.scores.get(label, 0.0) for label in _labels(model)}, 0, 0))


def _ensemble(model, example):
    try:
        return _output_and_scores(model.predict(example))
    except PvmlError as exc:
        return type(exc)


def _known(model, example):
    return any(f.name in model.feature_domain for f in example.features)


class TestEnsembleIsItsCommittee:
    @pytest.mark.parametrize("kind", ENSEMBLES)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(example=EXAMPLES)
    def test_any_row(self, kind, example):
        model = MODELS[kind]
        expected = _committee(model, example) if _known(model, example) else NoFeatureOverlap
        assert _ensemble(model, example) == expected

    @pytest.mark.parametrize("kind", ENSEMBLES)
    def test_training_rows_and_rows_some_member_never_saw(self, kind):
        model = MODELS[kind]
        dataset = REG if model.task == "real" else CLF
        token_rows = [make_example([(t, 1.0)]) for t in TOKENS]
        for example in [*dataset.examples, *token_rows]:
            assert _ensemble(model, example) == _committee(model, example)
        if kind != "adaboost-tree":  # boosting trains every member on every row
            skipped = [sum(t not in m.feature_domain for m in model.members) for t in TOKENS]
            assert any(0 < k < len(model.members) for k in skipped)


class _Outside(Model):
    """A model class from outside the library: it implements only the kernel."""

    model_class = "outside.Weighted"

    def _predict_intersected(self, sparse):
        labels = self.output_domain.labels()
        scores = {label: sum(v * (fid + k + 1) for fid, v in sparse.items()) for k, label in enumerate(labels)}
        best = max(labels, key=scores.__getitem__)
        return CategoricalOutput(best), scores


OUTSIDE = _Outside(
    "outside",
    object_provenance("outside.Weighted"),
    # every feature: count 1, range [-2, 6], mean 0, variance 1
    FeatureDomain(sorted(["x", "y", *TOKENS]), *([stat] * (len(TOKENS) + 2) for stat in (1, -2.0, 6.0, 0.0, 1.0))),
    CategoricalDomain({"a": 1, "b": 1, "c": 1}),
)


def _compiled(model, examples):
    columns = compile_examples(examples, model.feature_domain, targets=False)
    try:
        return [_bits(p) for p in model.predict_compiled(columns, [len(x.features) for x in examples])]
    except PvmlError as exc:
        return type(exc)


class TestOutsideModelClass:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(examples=st.lists(EXAMPLES, min_size=1, max_size=8))
    def test_one_row_and_many_rows_alike(self, examples):
        expected = _one_by_one(OUTSIDE, examples)
        assert _batched(OUTSIDE, examples) == expected
        assert _compiled(OUTSIDE, examples) == expected
