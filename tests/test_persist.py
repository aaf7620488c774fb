"""The PVML model container: determinism, round trips, and loud failures."""

import json
import math

import numpy as np
import pytest

from pvml.core import CATEGORICAL, REAL, CategoricalOutput, FeatureDomain, build_dataset, make_example
from pvml.data import InMemoryDataSource, load_csv
from pvml.ensemble import ADABOOST, BAGGING, EnsembleConfig, EnsembleModel, train_ensemble
from pvml.errors import FormatError, NonFiniteStatistic, TaskMismatch, UnknownModelClass
from pvml.optimize import AdaGrad, LinearSgdModel, train_linear_sgd
from pvml.persist import load_model, model_to_container, save_model, write_atomically
from pvml.provenance import PList, provenance_hash, with_instance_entry
from pvml.rng import Xoshiro256StarStar
from pvml.trees import EXHAUSTIVE, RANDOM_THRESHOLD, CartTrainer, TreeConfig, TreeModel, train_cart


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
        assert doc["version"] == 2
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
        assert (loaded.nodes, loaded.leaves) == (model.nodes, model.leaves)
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

    @pytest.mark.parametrize("threshold", ["nan", "-nan", "inf", "-inf", "1e999"])
    def test_split_threshold_that_is_not_finite(self, tmp_path, xor_dataset, threshold):
        path = tmp_path / "t.pvml"
        save_model(train_cart(xor_dataset, TreeConfig(max_depth=2)), str(path))
        container = json.loads(path.read_text())
        container["parameters"]["root"]["threshold"] = threshold
        path.write_text(json.dumps(container))
        with pytest.raises(FormatError, match="threshold"):
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

    LEAF_SIZES = {"string": "abc", "negative": -1, "zero": 0, "fraction": 1.5, "bool": True, "null": None}

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


    @pytest.mark.parametrize("case", sorted(LEAF_SIZES) + ["missing"])
    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_leaf_size(self, tmp_path, clf_csv, reg_csv, task, case):
        def edit(leaf):
            if case == "missing":
                del leaf["n"]
            else:
                leaf["n"] = self.LEAF_SIZES[case]

        self._check(tmp_path, clf_csv if task == "classification" else reg_csv, edit)


def _trees(model):
    """The trees of ``model``: itself, or those of its members, nested ensembles too."""
    if isinstance(model, EnsembleModel):
        return [tree for member in model.members for tree in _trees(member)]
    return [model] if isinstance(model, TreeModel) else []


def _models_with_trees():
    from test_batch import MODELS

    return {name: model for name, model in MODELS.items() if _trees(model)}


@pytest.mark.parametrize("name", sorted(_models_with_trees()))
def test_a_loaded_tree_has_the_trained_node_table(tmp_path, name):
    model = _models_with_trees()[name]
    path = tmp_path / "m.pvml"
    save_model(model, str(path))
    trained, loaded = _trees(model), _trees(load_model(str(path)))
    assert len(loaded) == len(trained)
    for a, b in zip(loaded, trained):
        assert a.nodes == b.nodes
        assert a.leaves == b.leaves


def test_a_loaded_boosted_ensemble_scores_bit_for_bit(tmp_path):
    # boosting reweights the rows, so a leaf's label weights, added up in
    # another order, could give other last bits
    rng = Xoshiro256StarStar(1)
    examples = [
        make_example([("x", rng.next_float()), ("y", rng.next_float())], CategoricalOutput("abcde"[rng.next_below(5)]))
        for _ in range(40)
    ]
    dataset = build_dataset(InMemoryDataSource(examples, "five-labels"))
    model = train_ensemble(dataset, EnsembleConfig(CartTrainer(TreeConfig(max_depth=2, seed=3)), 6, seed=0, variant=ADABOOST))
    path = tmp_path / "e.pvml"
    save_model(model, str(path))
    loaded = load_model(str(path))
    for ex in examples:
        assert loaded.predict(ex).scores == model.predict(ex).scores
        for a, b in zip(loaded.members, model.members):
            assert a.predict(ex).scores == b.predict(ex).scores


@pytest.mark.parametrize("split_kind", [EXHAUSTIVE, RANDOM_THRESHOLD])
def test_trees_over_values_near_the_largest_double_save_and_load(tmp_path, split_kind):
    # midpoints and random draws between these values can overflow; a threshold
    # that is not finite sends every row one way, so the leaf minimum drops it
    big = [-1.7e308, -1.69e308, -1.0, 1.0, 1.69e308, 1.7e308, 1.75e308, 1.79e308]
    examples = [
        make_example([("x", x), ("y", float(i % 3))], CategoricalOutput("ab"[i % 2])) for i, x in enumerate(big)
    ]
    model = train_cart(build_dataset(InMemoryDataSource(examples, "huge")), TreeConfig(max_depth=4, split_kind=split_kind, seed=3))
    assert any(left >= 0 for _, _, left, _ in model.nodes)
    assert all(math.isfinite(threshold) for _, threshold, _, _ in model.nodes)
    # the variance of x overflows, so the file gets the same names with finite statistics
    names = model.feature_domain.names()
    domain = FeatureDomain(names, model.feature_domain.count, *(np.zeros(len(names)) for _ in FeatureDomain.STATISTICS))
    path = tmp_path / "t.pvml"
    save_model(TreeModel(model.name, model.provenance, domain, model.output_domain, model.nodes, model.leaves), str(path))
    loaded = load_model(str(path))
    assert (loaded.nodes, loaded.leaves) == (model.nodes, model.leaves)


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

    BAD = {"null": None, "nested": ["1.0"], "suffix": "1.5x", "true": True, "false": False}

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

    @staticmethod
    def _saved(tmp_path, name):
        from test_batch import MODELS

        path = tmp_path / "m.pvml"
        save_model(MODELS[name], str(path))
        return path

    @staticmethod
    def _leaf(node):
        while node["kind"] == "split":
            node = node["left"]
        return node

    @pytest.mark.parametrize("literal", sorted(BAD))
    @pytest.mark.parametrize("name, member", [("cart-reg", False), ("forest-reg", True)])
    def test_split_threshold(self, tmp_path, literal, name, member):
        def edit(c):
            root = (c["parameters"]["members"][0] if member else c)["parameters"]["root"]
            assert root["kind"] == "split"
            root["threshold"] = self.BAD[literal]

        _edit_and_load(self._saved(tmp_path, name), edit)

    @pytest.mark.parametrize("literal", sorted(BAD))
    def test_leaf_mean(self, tmp_path, literal):
        _edit_and_load(self._saved(tmp_path, "cart-reg"), lambda c: self._leaf(c["parameters"]["root"]).update(mean=self.BAD[literal]))

    @pytest.mark.parametrize("literal", sorted(BAD))
    def test_leaf_count(self, tmp_path, literal):
        def edit(c):
            counts = self._leaf(c["parameters"]["root"])["counts"]
            counts[sorted(counts)[0]] = self.BAD[literal]

        _edit_and_load(self._saved(tmp_path, "cart-clf"), edit)

    @pytest.mark.parametrize("literal", sorted(BAD))
    def test_member_weight(self, tmp_path, literal):
        _edit_and_load(self._saved(tmp_path, "forest-reg"), lambda c: c["parameters"]["memberWeights"].__setitem__(0, self.BAD[literal]))

    @pytest.mark.parametrize("literal", sorted(BAD))
    @pytest.mark.parametrize("statistic", ["min", "max", "mean", "variance"])
    def test_output_domain_statistic(self, tmp_path, literal, statistic):
        _edit_and_load(self._saved(tmp_path, "forest-reg"), lambda c: c["outputDomain"].__setitem__(statistic, self.BAD[literal]))

    def test_parsed_bit_for_bit(self, tmp_path, trained):
        path = tmp_path / "m.pvml"
        model = trained[1]
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert loaded.feature_domain == model.feature_domain


def _ensemble_models():
    from test_batch import MODELS

    return {name: model for name, model in MODELS.items() if isinstance(model, EnsembleModel)}


def _check_members(loaded, trained):
    """Each member of ``loaded``, nested ones too, carries the provenance its
    ensemble records and the ensemble's domain restricted to its names, as
    the member trained in ``trained`` does."""
    recorded = loaded.provenance.instance["members"].items
    assert len(recorded) == len(loaded.members) == len(trained.members)
    for member, entry, original in zip(loaded.members, recorded, trained.members):
        assert member.provenance is entry
        assert member.provenance == original.provenance
        ids = np.array([loaded.feature_domain.ids[name] for name in member.feature_domain.names()])
        assert member.feature_domain == loaded.feature_domain.subset(ids)
        assert member.feature_domain == original.feature_domain
        if isinstance(member, EnsembleModel):
            _check_members(member, original)


class TestEnsembleMembersOnce:
    """Version 2 stores each member once: its ``provenance`` is its position in
    the ensemble provenance's ``members``, and its ``featureDomain`` lists ids
    alone, the statistics being the ensemble's."""

    @pytest.mark.parametrize("name", sorted(_ensemble_models()))
    def test_round_trip(self, tmp_path, name):
        model = _ensemble_models()[name]
        path = tmp_path / "e.pvml"
        save_model(model, str(path))
        doc = json.loads(path.read_text())
        for i, member in enumerate(doc["parameters"]["members"]):
            assert member["provenance"] == i
            assert all(set(entry) == {"id"} for entry in member["featureDomain"]["features"].values())
        loaded = load_model(str(path))
        _check_members(loaded, model)
        assert provenance_hash(loaded.provenance) == provenance_hash(model.provenance)
        save_model(loaded, str(tmp_path / "again.pvml"))
        assert (tmp_path / "again.pvml").read_bytes() == path.read_bytes()

    def _saved(self, tmp_path):
        path = tmp_path / "e.pvml"
        save_model(_ensemble_models()["forest-reg"], str(path))
        return path

    @pytest.mark.parametrize("where", ["top", "member"])
    def test_a_version_1_file(self, tmp_path, where):
        def edit(container):
            (container if where == "top" else container["parameters"]["members"][0])["version"] = 1

        _edit_and_load(self._saved(tmp_path), edit)

    @pytest.mark.parametrize("index", [1, -1, 4, None, True, 0.0, "0", [0]])
    def test_a_member_index_that_is_not_its_position(self, tmp_path, index):
        def edit(container):
            container["parameters"]["members"][0]["provenance"] = index

        _edit_and_load(self._saved(tmp_path), edit)

    def test_swapped_members(self, tmp_path):
        def edit(container):
            members = container["parameters"]["members"]
            members[0], members[1] = members[1], members[0]

        _edit_and_load(self._saved(tmp_path), edit)

    @pytest.mark.parametrize("change", ["missing", "not-a-list", "too-short", "too-long"])
    def test_a_recorded_member_list_that_does_not_fit(self, tmp_path, change):
        def edit(container):
            instance = container["provenance"]["value"]["fields"]["instance"]["value"]
            members = instance["members"]
            if change == "missing":
                del instance["members"]
            elif change == "not-a-list":
                instance["members"] = {"type": "str", "value": "x"}
            elif change == "too-short":
                members["value"].pop()
            else:
                members["value"].append(members["value"][0])

        _edit_and_load(self._saved(tmp_path), edit)

    @pytest.mark.parametrize(
        "weights",
        [["0.0"] * 4, ["0.0", "0.25", "0.25", "0.25"], ["-0.0"] * 4, ["-0.25", "0.25", "0.25", "0.25"],
         ["nan", "0.25", "0.25", "0.25"], ["inf", "0.25", "0.25", "0.25"], ["-inf"] * 4],
    )
    def test_member_weights_that_are_not_finite_and_positive(self, tmp_path, weights):
        def edit(container):
            assert len(container["parameters"]["memberWeights"]) == len(weights)
            container["parameters"]["memberWeights"] = weights

        _edit_and_load(self._saved(tmp_path), edit)

    def test_a_member_domain_with_bad_ids(self, tmp_path):
        _edit_and_load(self._saved(tmp_path), lambda c: _swap_first_ids(c["parameters"]["members"][0]["featureDomain"]["features"]))

    def test_saving_members_the_provenance_does_not_record(self, tmp_path):
        model = _ensemble_models()["forest-reg"]
        members = model.provenance.instance["members"].items
        for recorded in (members[1:], members[::-1]):
            prov = with_instance_entry(model.provenance, "members", PList(recorded))
            swapped = EnsembleModel(model.name, prov, model.feature_domain, model.output_domain, model.members, model.member_weights)
            with pytest.raises(FormatError, match="does not record its members"):
                save_model(swapped, str(tmp_path / "e.pvml"))
        assert not (tmp_path / "e.pvml").exists()


class TestFeatureNamesOnLoad:
    """A model file's feature names pass the checks data names pass."""

    @pytest.mark.parametrize("bad", ["", "\x00", "a\nb", "z\x7f", "\x9f"])
    def test_a_name_data_would_refuse(self, tmp_path, trained, bad):
        path = tmp_path / "m.pvml"
        save_model(trained[1], str(path))
        container = json.loads(path.read_text())
        features = container["featureDomain"]["features"]
        # the first or last name is renamed, so the ids stay 0..N-1 in name order
        renamed = min(features) if bad < min(features) else max(features)
        features[bad] = features.pop(renamed)
        assert [features[name]["id"] for name in sorted(features)] == list(range(len(features)))
        path.write_text(json.dumps(container))
        with pytest.raises(FormatError, match="feature name") as raised:
            load_model(str(path))
        assert repr(bad) in str(raised.value) or bad == ""

    def test_in_a_member_domain(self, tmp_path):
        path = tmp_path / "e.pvml"
        save_model(_ensemble_models()["forest-reg"], str(path))
        container = json.loads(path.read_text())
        features = container["parameters"]["members"][0]["featureDomain"]["features"]
        features["\x01"] = features.pop(min(features))
        path.write_text(json.dumps(container))
        with pytest.raises(FormatError, match="feature name"):
            load_model(str(path))

    def test_good_names_load(self, tmp_path, trained):
        path = tmp_path / "m.pvml"
        save_model(trained[1], str(path))
        assert load_model(str(path)).feature_domain == trained[1].feature_domain


def test_linear_weights_are_written_as_shortest_round_trip_strings(tmp_path, trained):
    model = trained[1]
    path = tmp_path / "m.pvml"
    save_model(model, str(path))
    weights = json.loads(path.read_text())["parameters"]["weights"]
    assert weights == [[repr(float(v)) for v in row] for row in model.weights]


# names that need JSON escapes, and statistics whose shortest repr takes each form
_ESCAPED_NAMES = ['back\\slash', "color@café", 'q"uote']
_EDGE_STATISTICS = ([-0.0, 5e-324, 1e-05], [1e16, 1.7976931348623157e308, 1e-05], [-0.0, 1e16, 5e-324], [5e-324, 1.7976931348623157e308, 0.0])


def _over_escaped_names():
    """A linear model, a tree and an ensemble trained on features named :data:`_ESCAPED_NAMES`."""
    rng = Xoshiro256StarStar(4)
    examples = [
        make_example([(name, rng.next_float()) for name in _ESCAPED_NAMES], CategoricalOutput("ab"[i % 2]))
        for i in range(24)
    ]
    ds = build_dataset(InMemoryDataSource(examples, "escaped"))
    return {
        "linear": train_linear_sgd(ds, "logistic", AdaGrad(0.3), epochs=2, batch_size=4, shuffle_seed=1),
        "tree": train_cart(ds, TreeConfig(max_depth=2, seed=1)),
        "ensemble": train_ensemble(ds, EnsembleConfig(CartTrainer(TreeConfig(max_depth=2, seed=1)), 3, seed=2, variant=BAGGING)),
    }


def _with_domain(model, domain):
    if isinstance(model, LinearSgdModel):
        return LinearSgdModel(model.name, model.provenance, domain, model.output_domain, model.weights)
    if isinstance(model, TreeModel):
        return TreeModel(model.name, model.provenance, domain, model.output_domain, model.nodes, model.leaves)
    return EnsembleModel(model.name, model.provenance, domain, model.output_domain, model.members, model.member_weights)


class TestFeatureDomainText:
    """``save_model`` writes the feature domain as text in one pass, in front
    of the rest of the container: the bytes are those of ``json.dumps`` of the
    whole container."""

    @pytest.mark.parametrize("name", ["linear", "tree", "ensemble"])
    def test_saved_bytes_are_json_dumps_of_the_container(self, tmp_path, name):
        domain = FeatureDomain(_ESCAPED_NAMES, [1, 7, 123456789012], *_EDGE_STATISTICS)
        model = _with_domain(_over_escaped_names()[name], domain)
        path = tmp_path / "m.pvml"
        save_model(model, str(path))
        text = json.dumps(model_to_container(model), sort_keys=True, separators=(",", ":")) + "\n"
        assert path.read_bytes() == text.encode("ascii")
        assert '"back\\\\slash"' in text and '"color@caf\\u00e9"' in text and '"q\\"uote"' in text
        loaded = load_model(str(path)).feature_domain
        assert loaded.names() == tuple(_ESCAPED_NAMES) and loaded.count.tolist() == [1, 7, 123456789012]
        for key, column in zip(FeatureDomain.STATISTICS, _EDGE_STATISTICS):
            assert getattr(loaded, key).tobytes() == np.array(column).tobytes(), key

    @pytest.mark.parametrize("name", ["linear", "tree", "ensemble"])
    def test_a_statistic_that_is_not_finite_writes_no_file(self, tmp_path, name):
        mean = [0.0, math.inf, 0.0]
        domain = FeatureDomain(_ESCAPED_NAMES, [1, 1, 1], [0.0] * 3, [0.0] * 3, mean, [0.0] * 3)
        model = _with_domain(_over_escaped_names()[name], domain)
        with pytest.raises(NonFiniteStatistic, match="caf"):
            save_model(model, str(tmp_path / "m.pvml"))
        assert list(tmp_path.iterdir()) == []


def _output_domains(container):
    """The output-domain nodes of a container: its own, then each member's, nested ones too."""
    members = container["parameters"].get("members", []) if container["modelClass"] == "pvml.EnsembleModel" else []
    return [container["outputDomain"], *(node for m in members for node in _output_domains(m))]


class TestOutputDomainOnLoad:
    """An output domain edited to a value no trainer writes fails to load, at
    the top of the file or in an ensemble member, and ``pvml predict``,
    ``pvml evaluate`` and ``pvml reproduce`` exit 2 on it."""

    REAL = {
        "nan-mean": ("mean", "nan"),
        "infinite-min": ("min", "inf"),
        "infinite-max": ("max", "-inf"),
        "overflowing-mean": ("mean", "1e999"),
        "null-min": ("min", None),
        "negative-variance": ("variance", "-1.0"),
        "infinite-variance": ("variance", "inf"),
        "nan-variance": ("variance", "nan"),
        "negative-count": ("count", -5),
        "zero-count": ("count", 0),
        "bool-count": ("count", True),
        "fraction-count": ("count", 1.5),
        "string-count": ("count", "3"),
        "null-count": ("count", None),
    }
    LABEL_COUNTS = {"string": "x", "negative": -4, "zero": 0, "fraction": 1.5, "bool": True, "null": None}

    @staticmethod
    def _real(case):
        key, value = TestOutputDomainOnLoad.REAL[case]
        return lambda node: node.update({key: value})

    @staticmethod
    def _label_count(case):
        return lambda node: node["counts"].update({sorted(node["counts"])[0]: TestOutputDomainOnLoad.LABEL_COUNTS[case]})

    @pytest.mark.parametrize("where", ["top", "member"])
    @pytest.mark.parametrize("case", sorted(REAL))
    def test_real_domain(self, tmp_path, case, where):
        from test_batch import MODELS

        path = tmp_path / "m.pvml"
        save_model(MODELS["forest-reg"], str(path))
        _edit_and_load(path, lambda c: self._real(case)(_output_domains(c)[0 if where == "top" else -1]))

    @pytest.mark.parametrize("where", ["top", "member"])
    @pytest.mark.parametrize("case", sorted(LABEL_COUNTS) + ["counts-not-a-map"])
    def test_label_counts(self, tmp_path, case, where):
        from test_batch import MODELS

        path = tmp_path / "m.pvml"
        save_model(MODELS["forest-clf"], str(path))
        if case == "counts-not-a-map":
            edit = lambda node: node.update(counts=[[label, 1] for label in node["counts"]])  # noqa: E731
        else:
            edit = self._label_count(case)
        _edit_and_load(path, lambda c: edit(_output_domains(c)[0 if where == "top" else -1]))

    def test_every_batch_model_round_trips(self, tmp_path):
        from test_batch import MODELS

        path = tmp_path / "m.pvml"
        for model in MODELS.values():
            save_model(model, str(path))
            loaded = load_model(str(path))
            assert loaded.output_domain == model.output_domain
            assert model_to_container(loaded) == model_to_container(model)

    @pytest.mark.parametrize(
        "task, case",
        [("real", case) for case in sorted(REAL)] + [("categorical", case) for case in sorted(LABEL_COUNTS)],
    )
    def test_cli_exits_2(self, tmp_path, clf_csv, reg_csv, task, case):
        from pvml.cli import main
        from pvml.provenance import config_to_json, extract_configuration

        path, schema = clf_csv if task == "categorical" else reg_csv
        trainer = tmp_path / "trainer.json"
        trainer.write_text(config_to_json(extract_configuration(CartTrainer(TreeConfig(max_depth=2)).provenance())))
        model = str(tmp_path / "m.pvml")
        common = ["--data", str(path), "--schema", _schema_file(tmp_path, schema)]
        assert main(["train", *common, "--trainer", str(trainer), "--output", model]) == 0
        assert main(["reproduce", "--model", model, "--output", str(tmp_path / "again.pvml")]) == 0
        edit = self._real(case) if task == "real" else self._label_count(case)
        _edit_and_load(tmp_path / "m.pvml", lambda c: edit(c["outputDomain"]))
        outs = [tmp_path / name for name in ("p.csv", "e.json", "r.pvml")]
        assert main(["predict", "--model", model, *common, "--out", str(outs[0])]) == 2
        assert main(["evaluate", "--model", model, *common, "--report", str(outs[1])]) == 2
        assert main(["reproduce", "--model", model, "--output", str(outs[2])]) == 2
        assert not any(out.exists() for out in outs)


class TestRegisterModelClass:
    """A model class defined outside the library, as the README's ``MeanModel``,
    saves, loads and predicts the same bits once registered."""

    @staticmethod
    def _mean_model(regression_dataset):
        from pvml.core import Model, RealOutput

        class MeanModel(Model):
            model_class = "ext.MeanModel"

            def _predict_intersected(self, sparse):
                return RealOutput(sum(sparse.values()) / len(sparse)), {}

        trained = train_cart(regression_dataset, TreeConfig(max_depth=1))
        return MeanModel("mean", trained.provenance, trained.feature_domain, trained.output_domain)

    @pytest.fixture(autouse=True)
    def _own_registry(self, monkeypatch):
        import pvml.persist

        monkeypatch.setattr(pvml.persist, "_TO_PARAMS", dict(pvml.persist._TO_PARAMS))
        monkeypatch.setattr(pvml.persist, "_RESTORERS", dict(pvml.persist._RESTORERS))

    def test_registered_class_round_trips(self, tmp_path, regression_dataset):
        from pvml import register_model_class

        model = self._mean_model(regression_dataset)
        cls = type(model)
        register_model_class(cls.model_class, lambda m: {}, lambda container, name, prov, fd, od: cls(name, prov, fd, od))
        path = tmp_path / "mean.pvml"
        save_model(model, str(path))
        loaded = load_model(str(path), expected_task=REAL)
        assert type(loaded) is cls and loaded.name == "mean"
        assert provenance_hash(loaded.provenance) == provenance_hash(model.provenance)
        assert loaded.feature_domain == model.feature_domain and loaded.output_domain == model.output_domain
        examples = regression_dataset.examples
        for m in (model, loaded):
            assert [float.hex(p.output.value) for p in m.predict_batch(examples)] == [
                float.hex(sum(f.value for f in ex.features) / len(ex.features)) for ex in examples
            ]
        again = tmp_path / "again.pvml"
        save_model(loaded, str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_unregistered_class_raises_on_save(self, tmp_path, regression_dataset):
        path = tmp_path / "mean.pvml"
        with pytest.raises(UnknownModelClass):
            save_model(self._mean_model(regression_dataset), str(path))
        assert not path.exists()
