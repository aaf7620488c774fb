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
