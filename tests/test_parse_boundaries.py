"""Malformed input at the three JSON parse boundaries raises a PvmlError.

The boundaries are ``parse_provenance``, ``config_from_json`` and
``load_model``.  Each input either round-trips or raises a ``PvmlError``
subclass, and through the CLI each malformed file exits with code 2.
"""

import json
import math
import os
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pvml.cli import main
from pvml.data import ColumnarSchema, CsvDataSource, FieldProcessor
from pvml.errors import FormatError, MissingProperty, ParseError, PvmlError, UnknownTag
from pvml.persist import load_model, model_to_container, save_model
from pvml.provenance import (
    ConfigRecord,
    ConfigRef,
    PBool,
    PFlt,
    PHash,
    PInt,
    PStr,
    PTimestamp,
    config_from_json,
    config_to_json,
    extract_configuration,
    object_provenance,
    parse_provenance,
    provenance_hash,
    serialize_provenance,
)
from pvml.repro import reconstruct_trainer
from pvml.optimize import Sgd
from pvml.trees import CartTrainer, TreeConfig, train_cart

from test_provenance import _corpus_object, prov_values

DEEP_BRACKETS = "[" * 3000 + "]" * 3000
DEEP_LISTS = '{"type":"list","value":[' * 600 + '{"type":"int","value":1}' + "]}" * 600
# deeper than the provenance depth cap, shallower than the recursion limit
CAPPED_LISTS = '{"type":"list","value":[' * 300 + '{"type":"int","value":1}' + "]}" * 300


def _v(kind, value):
    return {"type": kind, "value": value}


def _doc(*records):
    return json.dumps({"config": [{"name": n, "class": c, "properties": p} for n, c, p in records]})


def _ensemble_doc(base_ref):
    return _doc(
        (
            "pvml.EnsembleTrainer-0",
            "pvml.EnsembleTrainer",
            {
                "base-trainer": _v("ref", base_ref),
                "num-members": _v("int", 2),
                "seed": _v("int", 3),
                "sample-fraction": _v("flt", 1.0),
                "with-replacement": _v("bool", True),
                "variant": _v("str", "bagging"),
            },
        )
    )


def _config_with_property(node):
    return '{"config":[{"name":"a","class":"b","properties":{"p":' + node + "}}]}"


def _model_with_provenance(node):
    """A model container that reaches the decoding of its provenance ``node``."""
    return '{"formatName":"PVML","version":2,"modelClass":"pvml.TreeModel","provenance":' + node + "}"


def _section(node, name):
    """The entries of section ``name`` of an object provenance in JSON form."""
    return node["value"]["fields"][name]["value"]


def _trainers():
    """One fresh trainer of each built-in class, with an optimizer and base trainers."""
    from pvml.ensemble import ADABOOST, EnsembleConfig, EnsembleTrainer
    from pvml.optimize import Adam, LinearSgdTrainer

    return {
        "cart": CartTrainer(TreeConfig(max_depth=2)),
        "linear": LinearSgdTrainer("logistic", Adam(0.1), 2, 4, seed=5),
        "ensemble": EnsembleTrainer(EnsembleConfig(CartTrainer(TreeConfig(max_depth=1)), 2, seed=7)),
        "boosted": EnsembleTrainer(
            EnsembleConfig(LinearSgdTrainer("logistic", Sgd(0.5), 1, 4, 3), 2, seed=9, variant=ADABOOST)
        ),
    }


# ---------------------------------------------------------------------------
# The cases found by hand
# ---------------------------------------------------------------------------

class TestDeepNesting:
    @pytest.mark.parametrize("text", [DEEP_BRACKETS, DEEP_LISTS], ids=["brackets", "lists"])
    def test_parse_provenance(self, text):
        with pytest.raises(ParseError):
            parse_provenance(text)

    @pytest.mark.parametrize(
        "text", [DEEP_BRACKETS, _config_with_property(DEEP_LISTS)], ids=["brackets", "lists"]
    )
    def test_config_from_json(self, text):
        with pytest.raises(ParseError):
            config_from_json(text)

    @pytest.mark.parametrize(
        "text",
        [DEEP_BRACKETS, '{"formatName":"PVML","provenance":' + DEEP_LISTS + "}", _model_with_provenance(CAPPED_LISTS)],
        ids=["brackets", "lists", "lists-past-the-cap"],
    )
    def test_load_model(self, tmp_path, text):
        path = tmp_path / "deep.pvml"
        path.write_text(text)
        with pytest.raises(FormatError):
            load_model(str(path))


class TestConfigurationDocuments:
    def test_properties_must_be_an_object(self):
        with pytest.raises(ParseError):
            config_from_json('{"config":[{"name":"a","class":"b","properties":[]}]}')

    def test_map_value_must_be_an_object(self):
        with pytest.raises(ParseError):
            config_from_json(_config_with_property('{"type":"map","value":[]}'))

    @pytest.mark.parametrize("field", ["name", "class"])
    def test_name_and_class_must_be_strings(self, field):
        record = {"name": "a", "class": "b", "properties": {}}
        record[field] = ["x"]
        with pytest.raises(ParseError):
            config_from_json(json.dumps({"config": [record]}))

    def test_reference_is_decoded_only_in_configuration_documents(self, tmp_path):
        assert config_from_json(_config_with_property('{"type":"ref","value":"x"}'))[0].properties == {
            "p": ConfigRef("x")
        }
        with pytest.raises(UnknownTag):
            parse_provenance('{"type":"ref","value":"x"}')
        container = model_to_container(_tiny_model())
        container["provenance"] = _v("ref", "x")
        path = tmp_path / "ref.pvml"
        path.write_text(json.dumps(container))
        with pytest.raises(FormatError) as raised:  # a model file's errors are format errors
            load_model(str(path))
        assert isinstance(raised.value.__cause__, UnknownTag)

    @pytest.mark.parametrize("value", [1, None, [], {}])
    def test_reference_names_a_record(self, value):
        with pytest.raises(ParseError):
            config_from_json(_config_with_property(json.dumps(_v("ref", value))))

    def test_self_referencing_base_trainer(self):
        with pytest.raises(ParseError, match="pvml.EnsembleTrainer-0"):
            reconstruct_trainer(config_from_json(_ensemble_doc("pvml.EnsembleTrainer-0")))

    def test_dangling_reference_names_the_reference(self):
        with pytest.raises(MissingProperty, match="nowhere-1"):
            reconstruct_trainer(config_from_json(_ensemble_doc("nowhere-1")))


def _tiny_model():
    from pvml import CategoricalOutput, InMemoryDataSource, build_dataset, make_example

    examples = [
        make_example([("x", float(i))], CategoricalOutput("a" if i < 3 else "b")) for i in range(6)
    ]
    return train_cart(build_dataset(InMemoryDataSource(examples)), TreeConfig(max_depth=2))


class TestCommandLine:
    """Each malformed file exits 2 with a one-line error, never a traceback."""

    @pytest.fixture
    def files(self, tmp_path, clf_csv, clf_schema):
        data, _ = clf_csv
        schema = tmp_path / "schema.json"
        schema.write_text(config_to_json(extract_configuration(clf_schema.provenance())))
        trainer = tmp_path / "trainer.json"
        trainer.write_text(config_to_json(extract_configuration(CartTrainer(TreeConfig(max_depth=2)).provenance())))
        return {"data": str(data), "schema": str(schema), "trainer": str(trainer), "dir": tmp_path}

    def _write(self, files, name, text):
        path = files["dir"] / name
        path.write_text(text)
        return str(path)

    def _train(self, files, **overrides):
        paths = {**files, **overrides}
        return main(
            ["train", "--data", paths["data"], "--schema", paths["schema"],
             "--trainer", paths["trainer"], "--output", str(files["dir"] / "m.pvml")]
        )

    @pytest.mark.parametrize(
        "text",
        [
            DEEP_BRACKETS,
            _config_with_property(DEEP_LISTS),
            _config_with_property(CAPPED_LISTS),
            '{"config":[{"name":"a","class":"b","properties":[]}]}',
            _config_with_property('{"type":"map","value":[]}'),
            _ensemble_doc("pvml.EnsembleTrainer-0"),
        ],
        ids=["deep-brackets", "deep-lists", "lists-past-the-cap", "properties-list", "map-value-list", "self-reference"],
    )
    def test_bad_trainer_document(self, files, capsys, text):
        assert self._train(files, trainer=self._write(files, "bad.json", text)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [DEEP_BRACKETS, '{"config":[{"name":"a","class":"b","properties":[]}]}'],
        ids=["deep-brackets", "properties-list"],
    )
    def test_bad_schema_document(self, files, capsys, text):
        assert self._train(files, schema=self._write(files, "bad.json", text)) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_deeply_nested_model_file(self, files, capsys):
        path = self._write(files, "deep.pvml", DEEP_BRACKETS)
        assert main(["inspect", "--model", path]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("max-depth", _v("str", "x")), ("max-depth", _v("int", 0)), ("seed", _v("flt", 1.5)),
         ("split-kind", _v("list", []))],
    )
    def test_trainer_property_of_the_wrong_type_or_range(self, files, key, value):
        doc = json.loads(Path(files["trainer"]).read_text(encoding="utf-8"))
        doc["config"][0]["properties"][key] = value
        assert self._train(files, trainer=self._write(files, "bad.json", json.dumps(doc))) == 2

    @pytest.mark.parametrize(
        "trainer, record_class, key, value",
        [
            ("cart", "pvml.CartTrainer", "min-impurity-decrease", _v("int", 0)),
            ("cart", "pvml.CartTrainer", "max-depth", _v("bool", True)),
            ("linear", "pvml.LinearSgdTrainer", "seed", _v("flt", 3.0)),
            ("linear", "pvml.Adam", "beta1", _v("int", 0)),
            ("ensemble", "pvml.EnsembleTrainer", "with-replacement", _v("str", "yes")),
        ],
        ids=["int-for-flt", "bool-for-int", "flt-for-seed", "int-for-nested-flt", "str-for-bool"],
    )
    def test_trainer_property_of_the_wrong_leaf_type(self, files, capsys, trainer, record_class, key, value):
        doc = json.loads(config_to_json(extract_configuration(_trainers()[trainer].provenance())))
        next(r for r in doc["config"] if r["class"] == record_class)["properties"][key] = value
        assert self._train(files, trainer=self._write(files, "bad.json", json.dumps(doc))) == 2
        assert "Traceback" not in capsys.readouterr().err

    def _reproduce_edited(self, files, edit):
        """Exit code of ``pvml reproduce`` on a freshly trained model file after ``edit(provenance)``."""
        assert self._train(files) == 0
        container = json.loads((files["dir"] / "m.pvml").read_text(encoding="utf-8"))
        edit(container["provenance"])
        path = self._write(files, "edited.pvml", json.dumps(container))
        return main(["reproduce", "--model", path, "--output", str(files["dir"] / "r.pvml")])

    @pytest.mark.parametrize(
        "count", [_v("int", -1), _v("str", "0"), _v("flt", 0.0)], ids=["negative", "str", "flt"]
    )
    def test_reproduce_rejects_a_malformed_invocation_count(self, files, capsys, count):
        def edit(prov):
            _section(_section(prov, "config")["trainer"], "instance")["invocation-count"] = count

        assert self._reproduce_edited(files, edit) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "transformations",
        [_v("str", "zscore"), _v("list", [_v("str", "zscore")]), _v("list", [_v("obj", {"class": "pvml.ZScoreTransform", "fields": {}})])],
        ids=["str", "str-entry", "sectionless-entry"],
    )
    def test_reproduce_rejects_malformed_transformations(self, files, capsys, transformations):
        def edit(prov):
            _section(_section(prov, "instance")["data"], "instance")["transformations"] = transformations

        assert self._reproduce_edited(files, edit) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("response-column", _v("list", [])), ("response-type", _v("str", "ordinal")),
         ("columns", _v("int", 1)),
         ("columns", _v("list", [_v("map", {"column": _v("int", 1), "kind": _v("str", "numeric")})]))],
    )
    def test_schema_property_of_the_wrong_type_or_range(self, files, key, value):
        doc = json.loads(Path(files["schema"]).read_text(encoding="utf-8"))
        doc["config"][0]["properties"][key] = value
        assert self._train(files, schema=self._write(files, "bad.json", json.dumps(doc))) == 2

    @pytest.mark.parametrize("features", [_v("int", 1), _v("list", [_v("int", 1)])])
    def test_transform_features_of_the_wrong_type(self, files, features):
        doc = _doc(("t-0", "pvml.ZScoreTransform", {"features": features}))
        rc = main(
            ["train", "--data", files["data"], "--schema", files["schema"], "--trainer", files["trainer"],
             "--output", str(files["dir"] / "m.pvml"), "--transform", self._write(files, "t.json", doc)]
        )
        assert rc == 2


# ---------------------------------------------------------------------------
# Fuzzing: every input round-trips or raises a PvmlError
# ---------------------------------------------------------------------------

_TAGS = ("str", "int", "flt", "bool", "timestamp", "hash", "list", "map", "obj", "ref", "other")
_KEYS = st.sampled_from(("type", "value", "class", "fields", "seconds", "nanos", "algorithm", "digest", "a"))


def _json_values(max_leaves=25):
    """Arbitrary JSON, biased towards the shapes of tagged provenance nodes."""
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.floats(),  # NaN and infinities too: json writes and reads them
        st.text(max_size=6),
        st.sampled_from(_TAGS),
    )
    return st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.one_of(_KEYS, st.text(max_size=4)), children, max_size=4),
            st.fixed_dictionaries({"type": st.sampled_from(_TAGS), "value": children}),
            st.fixed_dictionaries(
                {"type": st.just("obj"), "value": st.fixed_dictionaries({"class": children, "fields": children})}
            ),
        ),
        max_leaves=max_leaves,
    )


_PROVENANCE_NODES = st.one_of(_json_values(), prov_values().map(lambda v: json.loads(serialize_provenance(v))))


def _fuzz(max_examples):
    return settings(max_examples=max_examples, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestFuzzParseProvenance:
    @given(_PROVENANCE_NODES)
    @_fuzz(300)
    def test_round_trips_or_raises(self, node):
        try:
            value = parse_provenance(json.dumps(node))
        except PvmlError:
            return
        assert parse_provenance(serialize_provenance(value)) == value
        assert len(provenance_hash(value)) == 64


def _records():
    properties = st.one_of(
        st.dictionaries(st.text(max_size=6), _PROVENANCE_NODES, max_size=3),
        _json_values(max_leaves=6),
    )
    names = st.one_of(st.text(max_size=6), _json_values(max_leaves=2))
    return st.fixed_dictionaries({"name": names, "class": names, "properties": properties})


_CONFIG_DOCS = st.one_of(
    _json_values(),
    st.fixed_dictionaries({"config": st.one_of(st.lists(_records(), max_size=3), _json_values(max_leaves=4))}),
)


def _objects():
    """Object provenances, from the seeded corpus generator and from Hypothesis."""
    seeded = st.integers(min_value=0, max_value=2**32).map(lambda s: _corpus_object(random.Random(s), depth=3))
    drawn = st.tuples(
        st.text(min_size=1, max_size=6),
        st.dictionaries(st.sampled_from("abc"), prov_values(max_leaves=6), max_size=3),
        st.dictionaries(st.sampled_from("xyz"), prov_values(max_leaves=6), max_size=3),
    ).map(lambda t: object_provenance(*t))
    return st.one_of(seeded, drawn)


class TestFuzzConfigDocuments:
    @given(_CONFIG_DOCS)
    @_fuzz(250)
    def test_round_trips_or_raises(self, doc):
        try:
            records = config_from_json(json.dumps(doc))
        except PvmlError:
            return
        assert config_from_json(config_to_json(records)) == records

    @given(_objects())
    @_fuzz(100)
    def test_extracted_records_round_trip(self, obj):
        records = extract_configuration(obj)
        assert config_from_json(config_to_json(records)) == records


def _datasets():
    """A small classification and a small regression dataset."""
    from pvml import CategoricalOutput, InMemoryDataSource, RealOutput, build_dataset, make_example

    rows = [([("x", float(i)), (f"t@{i % 3}", 1.0)], i) for i in range(8)]
    clf = build_dataset(InMemoryDataSource([make_example(f, CategoricalOutput("ab"[i % 2])) for f, i in rows]))
    reg = build_dataset(InMemoryDataSource([make_example(f, RealOutput(float(i))) for f, i in rows]))
    return clf, reg


_DATASETS = _datasets()


def _containers():
    from pvml.ensemble import RANDOM_FOREST, EnsembleConfig, train_ensemble
    from pvml.optimize import train_linear_sgd

    clf, reg = _DATASETS
    forest = EnsembleConfig(
        CartTrainer(TreeConfig(max_depth=2, feature_subsampling_fraction=0.5, seed=1)), 2, 2, variant=RANDOM_FOREST
    )
    models = [
        train_cart(clf, TreeConfig(max_depth=2)),
        train_linear_sgd(clf, "logistic", Sgd(0.1), 1, 4, 3),
        train_ensemble(reg, forest),
    ]
    return [model_to_container(m) for m in models]


_CONTAINERS = _containers()


def _load_or_raise(text):
    """load_model on ``text``; if it loads, it saves and loads back equal."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.pvml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            model = load_model(path)
        except PvmlError:
            return
        save_model(model, path)
        assert model_to_container(load_model(path)) == model_to_container(model)


class TestFuzzModelFiles:
    @given(_json_values())
    @_fuzz(200)
    def test_arbitrary_json(self, node):
        _load_or_raise(json.dumps(node))

    @given(st.data())
    @_fuzz(150)
    def test_one_subtree_replaced(self, data):
        container = json.loads(json.dumps(data.draw(st.sampled_from(_CONTAINERS))))
        node = container
        while True:  # walk down a random path and replace what is there
            key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
                node = child
                continue
            node[key] = data.draw(_json_values(max_leaves=8))
            break
        _load_or_raise(json.dumps(container))

    @given(st.data())
    @_fuzz(100)
    def test_member_records_replaced(self, data):
        """A member's provenance index, or the ensemble provenance's member
        list, replaced by another index, a reordered, shortened or lengthened
        list, or arbitrary JSON."""
        container = json.loads(json.dumps(_CONTAINERS[-1]))
        members = container["parameters"]["members"]
        instance = container["provenance"]["value"]["fields"]["instance"]["value"]
        entries = instance["members"]["value"]
        if data.draw(st.booleans()):
            at = data.draw(st.sampled_from(range(len(members))))
            members[at]["provenance"] = data.draw(st.one_of(st.integers(-1, len(members)), _json_values(max_leaves=4)))
        else:
            recorded = st.lists(st.sampled_from(entries), max_size=len(entries) + 1)
            instance["members"] = data.draw(
                st.one_of(recorded.map(lambda items: {"type": "list", "value": items}), _json_values(max_leaves=4))
            )
        _load_or_raise(json.dumps(container))


    @given(st.data())
    @_fuzz(200)
    def test_output_domain_value_replaced(self, data):
        """A statistic, the count or a label count of an output domain, at the
        top or in a member, replaced: a value the checks refuse raises
        :class:`FormatError`, any other loads and round-trips."""
        container = json.loads(json.dumps(data.draw(st.sampled_from(_CONTAINERS))))
        nodes = [container["outputDomain"], *(m["outputDomain"] for m in container["parameters"].get("members", []))]
        node = data.draw(st.sampled_from(nodes))
        if "counts" in node:
            node, key = node["counts"], data.draw(st.sampled_from(sorted(node["counts"])))
        else:
            key = data.draw(st.sampled_from(["min", "max", "mean", "variance", "count"]))
        node[key] = value = data.draw(_DOMAIN_VALUES)
        if _refused(key, value):
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "m.pvml")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(container))
                with pytest.raises(FormatError):
                    load_model(path)
        else:
            _load_or_raise(json.dumps(container))


_DOMAIN_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-1.0", "-0.0", "0.5", "x", "3", None, True, False, 0, -5, 1.5]),
    st.integers(min_value=-3, max_value=2**70),
    st.floats().map(repr),
    st.floats(),
)


def _refused(key, value) -> bool:
    """Whether an output domain's ``key`` may not hold ``value``: a count, of the
    targets or of a label, must be a JSON integer of at least 1 and not a bool,
    and a statistic a finite float literal, the variance not negative."""
    if key not in ("min", "max", "mean", "variance"):
        return not (type(value) is int and value >= 1)
    try:
        number = float(value)
    except (TypeError, ValueError):
        return True
    return not math.isfinite(number) or (key == "variance" and number < 0.0)


_TRAINER_DOCUMENTS = [extract_configuration(t.provenance()) for t in _trainers().values()]

# small integers keep the fuzzed epochs, members and depths quick to train
_LEAVES = st.one_of(
    st.text(max_size=8).map(PStr),
    st.integers(min_value=-3, max_value=12).map(PInt),
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(PFlt),
    st.booleans().map(PBool),
    st.integers(min_value=0, max_value=2**40).map(PTimestamp),
    st.just(PHash("SHA-256", "ab")),
)


class TestFuzzTrainerDocuments:
    @given(st.data())
    @_fuzz(200)
    def test_one_property_replaced(self, data):
        records = list(data.draw(st.sampled_from(_TRAINER_DOCUMENTS)))
        i = data.draw(st.integers(min_value=0, max_value=len(records) - 1))
        key = data.draw(st.sampled_from(sorted(records[i].properties)))
        properties = {**records[i].properties, key: data.draw(_LEAVES)}
        records[i] = ConfigRecord(records[i].name, records[i].class_name, properties)
        try:
            trainer = reconstruct_trainer(records)
        except PvmlError:
            return
        for dataset in _DATASETS:
            try:
                with np.errstate(all="ignore"):  # fuzzed learning rates overflow
                    trainer.train(dataset)
            except PvmlError:
                pass


_CSV_SCHEMA = (
    "y",
    "categorical",
    (FieldProcessor("x", "numeric"), FieldProcessor("c", "categorical"), FieldProcessor("t", "text")),
)
_CSV_MODEL = train_cart(_DATASETS[0], TreeConfig(max_depth=2))
_CSV_TEXT = st.lists(st.sampled_from([*'xcty,"\n\r ab1.5e-\x00\x01\x85\u2028\xe9', "nan", "1e999"]), max_size=40).map("".join)
_CSV_CELLS = st.lists(st.sampled_from([*'xab1.5e- "\x01\x85\xe9', "nan", "1e999", "-0.0"]), max_size=5).map("".join)
_CSV_ROWS = st.lists(st.lists(_CSV_CELLS, min_size=4, max_size=4).map(",".join), max_size=5).map("\n".join)
_CSV_FILES = st.one_of(
    st.binary(max_size=120),
    _CSV_TEXT.map(str.encode),
    _CSV_TEXT.map(lambda body: ("x,c,t,y\n" + body).encode()),
    _CSV_ROWS.map(lambda body: ("x,c,t,y\n" + body).encode()),
    _CSV_ROWS.map(lambda body: ("y,t,c,x\r\n" + body).encode()),
)


def _csv_outcomes(path):
    """What ``__iter__`` and ``compiled`` make of the file, each through its own
    schema object: the examples and the chunks, or the class of the error."""
    outcomes = []
    for featurize in (list, lambda source: list(source.compiled(_CSV_MODEL))):
        try:
            source = CsvDataSource(path, ColumnarSchema(*_CSV_SCHEMA))
            outcomes.append(featurize(source))
        except PvmlError as exc:
            outcomes.append(type(exc))
    return outcomes


class TestFuzzCsvFiles:
    @given(_CSV_FILES)
    @_fuzz(300)
    def test_featurizes_or_raises(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "wb") as fh:
                fh.write(raw)
            examples, chunks = _csv_outcomes(path)
        if isinstance(examples, type):
            assert chunks is examples
            return
        assert sum(len(totals) for _, totals, _ in chunks) == len(examples)
        assert [n for _, totals, _ in chunks for n in totals] == [len(ex.features) for ex in examples]
        assert [o for _, _, outputs in chunks for o in outputs] == [ex.output for ex in examples]
