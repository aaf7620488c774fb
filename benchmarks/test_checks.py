"""Fast tests of the benchmark's reference checkers on tiny hand-built models.

Run from the repository root: python3 -m pytest benchmarks -q
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402


def _domain(*names):
    return {"features": {n: {"id": i, "count": 1, "min": "0.0", "max": "1.0", "mean": "0.5",
                             "variance": "0.1"} for i, n in enumerate(sorted(names))}}


def _leaf_counts(**counts):
    return {"kind": "leaf", "n": 1, "counts": {k: repr(v) for k, v in counts.items()}}


def _leaf_mean(mean):
    return {"kind": "leaf", "n": 1, "mean": repr(mean)}


def _split(feature, threshold, left, right):
    return {"kind": "split", "feature": feature, "threshold": repr(threshold), "left": left, "right": right}


def _prov(transformations=()):
    data = {"type": "obj", "value": {"class": "pvml.Dataset", "fields": {
        "config": {"type": "map", "value": {}},
        "instance": {"type": "map", "value": {
            "transformations": {"type": "list", "value": list(transformations)}}}}}}
    return {"type": "obj", "value": {"class": "pvml.TreeModel", "fields": {
        "config": {"type": "map", "value": {}},
        "instance": {"type": "map", "value": {"data": data}}}}}


def _container(cls, domain, output, params, prov=None):
    return {"formatName": "PVML", "version": 1, "modelClass": cls, "name": "m",
            "provenance": prov or _prov(), "featureDomain": domain, "outputDomain": output,
            "parameters": params}


CLF_OUTPUT = {"type": "categorical", "counts": {"x": 4, "y": 4}}
REG_OUTPUT = {"type": "real", "min": "0.0", "max": "1.0", "mean": "0.5", "variance": "0.1", "count": 2}

TREE = _container(
    "pvml.TreeModel", _domain("a", "b"), CLF_OUTPUT,
    {"root": _split(0, 0.5, _leaf_counts(x=3.0), _leaf_counts(x=1.0, y=3.0))},
)


def test_tree_walk_scores_and_absent_features():
    out = checks.predict(TREE, [{"a": 0.2}, {"a": 0.9}, {"b": 1.0}, {"c": 1.0}])
    assert out[0] == ("x", {"x": 1.0, "y": 0.0})
    assert out[1] == ("y", {"x": 0.25, "y": 0.75})
    assert out[2][0] == "x"  # absent "a" reads as 0.0
    assert out[3] is None  # shares no feature with the model


def test_tree_ties_go_to_the_smaller_label():
    tie = _container("pvml.TreeModel", _domain("a"), CLF_OUTPUT,
                     {"root": _leaf_counts(x=2.0, y=2.0)})
    assert checks.predict(tie, [{"a": 1.0}])[0][0] == "x"


def test_linear_softmax_with_bias():
    weights = [["1.0", "0.0"], ["0.0", "2.0"], ["0.5", "-0.5"]]  # a, b, bias
    model = _container("pvml.LinearSgdModel", _domain("a", "b"), CLF_OUTPUT, {"weights": weights})
    (label, scores), = checks.predict(model, [{"a": 1.0, "b": 1.0, "zzz": 5.0}])
    assert label == "x"  # tie on equal logits
    assert scores["x"] == pytest.approx(0.5) and sum(scores.values()) == pytest.approx(1.0)
    (label, scores), = checks.predict(model, [{"b": 1.0}])
    z = (0.5, 1.5)
    expected = math.exp(z[1]) / (math.exp(z[0]) + math.exp(z[1]))
    assert label == "y" and scores["y"] == pytest.approx(expected, rel=1e-12)


def test_forest_mean_uses_each_members_domain():
    m1 = _container("pvml.TreeModel", _domain("a"), REG_OUTPUT,
                    {"root": _split(0, 0.5, _leaf_mean(1.0), _leaf_mean(3.0))})
    m2 = _container("pvml.TreeModel", _domain("b", "c"), REG_OUTPUT,
                    {"root": _split(1, 0.5, _leaf_mean(10.0), _leaf_mean(20.0))})
    forest = _container("pvml.EnsembleModel", _domain("a", "b", "c"), REG_OUTPUT,
                        {"members": [m1, m2], "memberWeights": ["0.25", "0.75"]})
    out = checks.predict(forest, [{"a": 1.0, "c": 1.0}, {"a": 0.0}])
    assert out[0][0] == pytest.approx(0.25 * 3.0 + 0.75 * 20.0)
    assert out[1][0] == 1.0  # m2 shares no feature and is skipped


def test_recorded_zscore_fits_are_applied_in_order():
    def fitted(**fits):
        return {"type": "map", "value": {n: {"type": "map", "value": {
            "mean": {"type": "flt", "value": m}, "std": {"type": "flt", "value": s}}}
            for n, (m, s) in fits.items()}}

    def transform(fits):
        return {"type": "obj", "value": {"class": "pvml.ZScoreTransform", "fields": {
            "config": {"type": "map", "value": {}},
            "instance": {"type": "map", "value": {"fitted": fits}}}}}

    model = dict(TREE, provenance=_prov([transform(fitted(a=(10.0, 2.0))),
                                         transform(fitted(a=(1.0, 0.5)))]))
    fits = checks.recorded_zscore_fits(model)
    assert fits == [{"a": (10.0, 2.0)}, {"a": (1.0, 0.5)}]
    assert checks.apply_fits({"a": 14.0, "b": 7.0}, fits) == {"a": 2.0, "b": 7.0}
    assert checks.recorded_zscore_fits(TREE) == []


def test_classification_metrics_by_hand():
    m = checks.classification_metrics(["x", "x", "y", "y"], ["x", "y", "y", "y"], ["x", "y", "z"])
    assert m["accuracy"] == 0.75
    assert m["per-label"]["x"] == {"precision": 1.0, "recall": 0.5, "f1": pytest.approx(2 / 3)}
    assert m["per-label"]["z"] == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    assert m["confusion"] == {"x": {"x": 1, "y": 1}, "y": {"y": 2}, "z": {}}
    assert m["micro-precision"] == 0.75


def test_regression_metrics_by_hand():
    m = checks.regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 5.0])
    assert m["rmse"] == pytest.approx(math.sqrt(4 / 3))
    assert m["mae"] == pytest.approx(2 / 3)
    assert m["r2"] == pytest.approx(1 - 4 / 2)


def test_parameter_block_ignores_provenance_and_domains():
    other = dict(TREE, provenance=_prov([{"type": "str", "value": "changed"}]), featureDomain=_domain("a"))
    assert checks.parameter_bytes(other) == checks.parameter_bytes(TREE)
    moved = json.loads(json.dumps(TREE))
    moved["parameters"]["root"]["threshold"] = "0.6"
    assert checks.parameter_sha256(moved) != checks.parameter_sha256(TREE)


def test_section_bytes_match_the_laid_out_file():
    forest = _container("pvml.EnsembleModel", _domain("a", "b"), REG_OUTPUT,
                        {"members": [TREE, TREE], "memberWeights": ["0.5", "0.5"]})

    def size(container):
        return len(json.dumps(container, sort_keys=True, indent=2).encode())

    def without(container, key):
        return dict(container, **{key: None})

    full = size(forest)
    sections = checks.section_bytes(forest)
    # a section's bytes are what the file loses when the section becomes null
    members_null = {"members": [without(without(without(TREE, "provenance"), "featureDomain"), "parameters")] * 2,
                    "memberWeights": None}
    stripped = size(dict(without(without(forest, "provenance"), "featureDomain"), parameters=members_null))
    assert sum(sections.values()) == full - stripped + 9 * len("null")  # 9 sections nulled
    tree = checks.section_bytes(TREE)
    for key, section in (("provenance", "provenance"), ("featureDomain", "domain"), ("parameters", "parameters")):
        assert tree[section] == size(TREE) - size(without(TREE, key)) + len("null")


def test_predictions_and_reports_round_trip(tmp_path):
    reference = checks.predict(TREE, [{"a": 0.2}, {"a": 0.9}])
    path = tmp_path / "preds.csv"
    path.write_text("row,prediction,x,y\n0,x,1.0,0.0\n1,y,0.25,0.75\n")
    assert checks.predictions_match(str(path), reference, ["x", "y"])
    path.write_text("row,prediction,x,y\n0,x,1.0,0.0\n1,x,0.25,0.75\n")
    assert not checks.predictions_match(str(path), reference, ["x", "y"])

    want = checks.reference_metrics(TREE, ["x", "x"], reference)
    report = {"task": "categorical", "confusion": want["confusion"],
              "metrics": {k: v for k, v in want.items() if k != "confusion"}}
    (tmp_path / "r.json").write_text(json.dumps(report))
    assert checks.report_matches(str(tmp_path / "r.json"), want)
    report["metrics"]["accuracy"] = 1.0
    (tmp_path / "r.json").write_text(json.dumps(report))
    assert not checks.report_matches(str(tmp_path / "r.json"), want)


def test_checkers_agree_with_pvml_on_a_tiny_trained_model(tmp_path):
    import pvml

    rows = [({"a": 0.1 * i, "b": float(i % 3)}, "x" if i < 6 else "y") for i in range(12)]
    examples = [pvml.make_example(f.items(), pvml.CategoricalOutput(y)) for f, y in rows]
    dataset = pvml.build_dataset(pvml.InMemoryDataSource(examples))
    model = pvml.train_cart(dataset, pvml.TreeConfig(max_depth=3))
    path = str(tmp_path / "m.pvml")
    pvml.save_model(model, path)
    container = checks.load_container(path)
    for (features, _), ref in zip(rows, checks.predict(container, [f for f, _ in rows])):
        got = model.predict(pvml.make_example(features.items()))
        assert got.output.label == ref[0] and got.scores == ref[1]


def test_inputs_are_a_function_of_the_seed(tmp_path):
    def files(seed, sub):
        inputs = write_inputs(WORKLOADS["mixed-cart"], seed, str(tmp_path / sub))
        return [open(p, "rb").read() for p in (inputs.train, inputs.score, inputs.trainer)]

    assert files(7, "a") == files(7, "b")
    assert files(7, "a") != files(8, "c")


def test_self_times_subtract_direct_children():
    spans = [("cli.train", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 2.0, 3.0, 1), ("c", 5.0, 6.0, 0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert tracing.has_ancestor(spans, 2, "cli.train") and not tracing.has_ancestor(spans, 0, "a")


def test_tracer_restores_every_name():
    import pvml.cli
    import pvml.trees

    before = (pvml.cli.load_csv, pvml.trees.best_split, pvml.cli.json, pvml.core.Model.predict)
    tracer = tracing.Tracer()
    tracer.install()
    assert pvml.cli.load_csv is not before[0]
    tracer.uninstall()
    after = (pvml.cli.load_csv, pvml.trees.best_split, pvml.cli.json, pvml.core.Model.predict)
    assert after == before and tracer.missing == []
