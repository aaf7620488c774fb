"""The PVML model container: determinism, round trips, and loud failures."""

import json

import numpy as np
import pytest

from pvml.core import CATEGORICAL, REAL, build_dataset
from pvml.data import load_csv
from pvml.ensemble import BAGGING, EnsembleConfig, train_ensemble
from pvml.errors import FormatError, TaskMismatch, UnknownModelClass
from pvml.optimize import AdaGrad, train_linear_sgd
from pvml.persist import load_model, save_model, write_atomically
from pvml.provenance import provenance_hash
from pvml.trees import CartTrainer, TreeConfig, train_cart


@pytest.fixture
def trained(clf_csv):
    path, schema = clf_csv
    ds = build_dataset(load_csv(str(path), schema))
    model = train_linear_sgd(ds, "logistic", AdaGrad(0.3), epochs=30, batch_size=4, shuffle_seed=2)
    return ds, model


class TestSaveModel:
    def test_two_saves_byte_identical(self, tmp_path, trained):
        _, model = trained
        a, b = tmp_path / "a.pvml", tmp_path / "b.pvml"
        save_model(model, str(a))
        save_model(model, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_file_is_compact_sorted_json(self, tmp_path, trained):
        _, model = trained
        path = tmp_path / "m.pvml"
        save_model(model, str(path))
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"

    def test_failed_write_keeps_old_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "m.pvml"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            write_atomically(str(path), "new\ud800")  # a lone surrogate cannot be encoded
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_file_is_json_with_magic(self, tmp_path, trained):
        _, model = trained
        path = tmp_path / "m.pvml"
        save_model(model, str(path))
        doc = json.loads(path.read_text())
        assert doc["formatName"] == "PVML"
        assert doc["version"] == 1
        assert doc["modelClass"] == "pvml.LinearSgdModel"

    def test_ensemble_nests_member_containers(self, tmp_path, interleaved_dataset):
        cfg = EnsembleConfig(
            CartTrainer(TreeConfig(max_depth=2, seed=1)), num_members=4, seed=2, variant=BAGGING
        )
        ensemble = train_ensemble(interleaved_dataset, cfg)
        path = tmp_path / "e.pvml"
        save_model(ensemble, str(path))
        doc = json.loads(path.read_text())
        members = doc["parameters"]["members"]
        assert len(members) == 4
        assert all(m["formatName"] == "PVML" for m in members)


class TestLoadModel:
    def test_round_trip_predictions_bitwise(self, tmp_path, trained):
        ds, model = trained
        path = tmp_path / "m.pvml"
        save_model(model, str(path))
        loaded = load_model(str(path), CATEGORICAL)
        assert np.array_equal(loaded.weights, model.weights)
        for ex in ds.examples:
            a, b = model.predict(ex), loaded.predict(ex)
            assert a.output == b.output
            assert a.scores == b.scores  # exact float equality

    def test_round_trip_preserves_provenance_hash(self, tmp_path, trained):
        _, model = trained
        path = tmp_path / "m.pvml"
        save_model(model, str(path))
        assert provenance_hash(load_model(str(path)).provenance) == provenance_hash(model.provenance)

    def test_wrong_expected_task(self, tmp_path, trained):
        _, model = trained
        path = tmp_path / "m.pvml"
        save_model(model, str(path))
        with pytest.raises(TaskMismatch):
            load_model(str(path), REAL)

    def test_truncated_file(self, tmp_path, trained):
        _, model = trained
        path = tmp_path / "m.pvml"
        save_model(model, str(path))
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(FormatError):
            load_model(str(path))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "m.pvml"
        path.write_text('{"formatName": "NOPE", "version": 1}')
        with pytest.raises(FormatError):
            load_model(str(path))

    def test_unknown_model_class(self, tmp_path, trained):
        _, model = trained
        path = tmp_path / "m.pvml"
        save_model(model, str(path))
        doc = json.loads(path.read_text())
        doc["modelClass"] = "mystery.Model"
        path.write_text(json.dumps(doc))
        with pytest.raises(UnknownModelClass):
            load_model(str(path))

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_model("/nonexistent/m.pvml")

    def test_tree_round_trip(self, tmp_path, xor_dataset):
        model = train_cart(xor_dataset, TreeConfig(max_depth=2))
        path = tmp_path / "t.pvml"
        save_model(model, str(path))
        loaded = load_model(str(path), CATEGORICAL)
        assert loaded.root == model.root
        for ex in xor_dataset.examples:
            assert loaded.predict(ex) == model.predict(ex)

    @pytest.mark.parametrize("feature", [1.0, True, False, -1, 2, "0", None])
    def test_split_on_a_feature_outside_the_domain(self, tmp_path, xor_dataset, feature):
        path = tmp_path / "t.pvml"
        save_model(train_cart(xor_dataset, TreeConfig(max_depth=2)), str(path))
        container = json.loads(path.read_text())
        root = container["parameters"]["root"]
        assert root["kind"] == "split" and len(container["featureDomain"]["features"]) == 2
        root["feature"] = feature
        path.write_text(json.dumps(container))
        with pytest.raises(FormatError, match="split feature"):
            load_model(str(path))

    def test_ensemble_round_trip(self, tmp_path, interleaved_dataset):
        cfg = EnsembleConfig(
            CartTrainer(TreeConfig(max_depth=2, seed=1)), num_members=3, seed=2, variant=BAGGING
        )
        ensemble = train_ensemble(interleaved_dataset, cfg)
        path = tmp_path / "e.pvml"
        save_model(ensemble, str(path))
        loaded = load_model(str(path), CATEGORICAL)
        assert loaded.member_weights == ensemble.member_weights
        for ex in interleaved_dataset.examples:
            assert loaded.predict(ex) == ensemble.predict(ex)


def _edit_and_load(path, edit):
    container = json.loads(path.read_text())
    edit(container)
    path.write_text(json.dumps(container))
    with pytest.raises(FormatError):
        load_model(str(path))


def _schema_file(tmp_path, schema):
    from pvml.provenance import config_to_json, extract_configuration

    schema_path = tmp_path / "schema.json"
    schema_path.write_text(config_to_json(extract_configuration(schema.provenance())))
    return str(schema_path)


class TestTreeLeavesOnLoad:
    """A depth-1 CART whose leaf is edited fails to load, and ``pvml predict`` exits 2."""

    CLASSIFICATION_LEAVES = {
        "no-counts": lambda leaf: leaf.pop("counts"),
        "mean-instead-of-counts": lambda leaf: leaf.update(mean="1.0") or leaf.pop("counts"),
        "all-zero": lambda leaf: leaf.update(counts={label: "0.0" for label in leaf["counts"]}),
        "unknown-label": lambda leaf: leaf["counts"].update(zzz="1.0"),
        "nan-weight": lambda leaf: leaf["counts"].update(a="nan"),
        "infinite-weight": lambda leaf: leaf["counts"].update(a="inf"),
        "negative-weight": lambda leaf: leaf["counts"].update(a="-1.0"),
        "counts-not-a-map": lambda leaf: leaf.update(counts=["1.0"]),
    }
    REGRESSION_LEAVES = {
        "no-mean": lambda leaf: leaf.pop("mean"),
        "counts-instead-of-mean": lambda leaf: leaf.update(counts={"a": leaf.pop("mean")}),
        "nan-mean": lambda leaf: leaf.update(mean="nan"),
        "null-mean": lambda leaf: leaf.update(mean=None),
    }

    def _check(self, tmp_path, csv, edit):
        path, schema = csv
        model_path = tmp_path / "t.pvml"
        save_model(train_cart(build_dataset(load_csv(str(path), schema)), TreeConfig(max_depth=1)), str(model_path))
        assert json.loads(model_path.read_text())["parameters"]["root"]["kind"] == "split"
        _edit_and_load(model_path, lambda c: edit(c["parameters"]["root"]["left"]))

        from pvml.cli import main

        out = tmp_path / "preds.csv"
        rc = main(["predict", "--model", str(model_path), "--data", str(path),
                   "--schema", _schema_file(tmp_path, schema), "--out", str(out)])
        assert rc == 2 and not out.exists()

    @pytest.mark.parametrize("case", sorted(CLASSIFICATION_LEAVES))
    def test_classification_leaf(self, tmp_path, clf_csv, case):
        self._check(tmp_path, clf_csv, self.CLASSIFICATION_LEAVES[case])

    @pytest.mark.parametrize("case", sorted(REGRESSION_LEAVES))
    def test_regression_leaf(self, tmp_path, reg_csv, case):
        self._check(tmp_path, reg_csv, self.REGRESSION_LEAVES[case])


def _swap_first_ids(features):
    a, b = sorted(features)[:2]
    features[a]["id"], features[b]["id"] = features[b]["id"], features[a]["id"]


class TestFeatureDomainOnLoad:
    """Ids must be 0..N-1 in name order and counts non-negative JSON
    integers; any other entry fails to load rather than be written back."""

    MALFORMED = {
        "ids-out-of-name-order": _swap_first_ids,
        "id-repeated": lambda fs: fs[max(fs)].__setitem__("id", 0),
        "id-past-the-end": lambda fs: fs[max(fs)].__setitem__("id", len(fs)),
        "id-float": lambda fs: fs[min(fs)].__setitem__("id", 0.0),
        "id-bool": lambda fs: fs[min(fs)].__setitem__("id", False),
        "id-missing": lambda fs: fs[min(fs)].pop("id"),
        "count-text": lambda fs: fs[min(fs)].__setitem__("count", "abc"),
        "count-negative": lambda fs: fs[min(fs)].__setitem__("count", -5),
        "count-float": lambda fs: fs[min(fs)].__setitem__("count", 3.0),
        "count-bool": lambda fs: fs[min(fs)].__setitem__("count", True),
        "count-past-int64": lambda fs: fs[min(fs)].__setitem__("count", 2**63),
        "count-missing": lambda fs: fs[min(fs)].pop("count"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_entry(self, tmp_path, trained, case):
        path = tmp_path / "m.pvml"
        save_model(trained[1], str(path))
        _edit_and_load(path, lambda c: self.MALFORMED[case](c["featureDomain"]["features"]))

    def test_member_feature_outside_the_ensemble(self, tmp_path, interleaved_dataset):
        cfg = EnsembleConfig(CartTrainer(TreeConfig(max_depth=2, seed=1)), num_members=3, seed=2, variant=BAGGING)
        path = tmp_path / "e.pvml"
        save_model(train_ensemble(interleaved_dataset, cfg), str(path))
        container = json.loads(path.read_text())
        member = container["parameters"]["members"][1]["featureDomain"]["features"]
        assert set(member) == set(container["featureDomain"]["features"]) == {"x"}
        member["y"] = dict(member["x"], id=1)
        path.write_text(json.dumps(container))
        with pytest.raises(FormatError, match="outside the ensemble"):
            load_model(str(path))


class TestFloatLiteralsOnLoad:
    """Weights and domain statistics parse in one call each; every malformed
    literal still fails to load."""

    BAD = {"null": None, "nested": ["1.0"], "suffix": "1.5x"}

    @pytest.mark.parametrize("literal", sorted(BAD))
    def test_weight(self, tmp_path, trained, literal):
        path = tmp_path / "m.pvml"
        save_model(trained[1], str(path))
        _edit_and_load(path, lambda c: c["parameters"]["weights"][1].__setitem__(0, self.BAD[literal]))

    @pytest.mark.parametrize("literal", sorted(BAD))
    @pytest.mark.parametrize("statistic", ["min", "max", "mean", "variance"])
    def test_domain_statistic(self, tmp_path, trained, literal, statistic):
        path = tmp_path / "m.pvml"
        save_model(trained[1], str(path))
        _edit_and_load(path, lambda c: c["featureDomain"]["features"]["f1"].__setitem__(statistic, self.BAD[literal]))

    def test_every_literal_nested(self, tmp_path, trained):
        path = tmp_path / "m.pvml"
        save_model(trained[1], str(path))

        def nest_domain(c):
            for entry in c["featureDomain"]["features"].values():
                for key in ("min", "max", "mean", "variance"):
                    entry[key] = [entry[key]]

        _edit_and_load(path, nest_domain)
        save_model(trained[1], str(path))
        _edit_and_load(path, lambda c: c["parameters"].update(weights=[[[v] for v in row] for row in c["parameters"]["weights"]]))

    def test_parsed_bit_for_bit(self, tmp_path, trained):
        path = tmp_path / "m.pvml"
        model = trained[1]
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert loaded.feature_domain == model.feature_domain
