"""An object is its configuration and instance maps, checked where provenance is read.

``PObj(class_name, config, instance)`` encodes and is written as its class
name and the two-entry map ``{"config": ..., "instance": ...}``.  A JSON
``obj`` node whose ``fields`` are not exactly those two maps is refused:
``parse_provenance`` and ``config_from_json`` raise ``ParseError``,
``load_model`` raises ``FormatError``, and every command that reads such a
model file exits 2.
"""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pvml.cli import main
from pvml.errors import FormatError, ParseError
from pvml.persist import load_model
from pvml.provenance import (
    MAX_DEPTH,
    PInt,
    PList,
    PMap,
    PObj,
    PStr,
    _TAG_OBJ,
    _raw_str,
    canonical_encode,
    config_from_json,
    config_to_json,
    extract_configuration,
    parse_provenance,
    serialize_provenance,
    to_json_value,
)
from pvml.trees import CartTrainer, TreeConfig

from test_cli import _train, workspace  # noqa: F401  (a fixture)
from test_parse_boundaries import _CONTAINERS
from test_provenance import _corpus_object, _split_object, prov_values

_FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _objects():
    """Split objects with sections of any provenance values."""
    return st.tuples(
        st.text(min_size=1, max_size=8),
        st.dictionaries(st.text(max_size=6), st.tuples(st.booleans(), prov_values(max_leaves=6)), max_size=4),
    ).map(lambda t: _split_object(*t))


class TestEncoding:
    @given(_objects())
    @_FUZZ
    def test_an_object_encodes_as_its_class_and_sections_map(self, obj):
        sections = PMap({"config": obj.config, "instance": obj.instance})
        assert canonical_encode(obj) == _TAG_OBJ + _raw_str(obj.class_name) + canonical_encode(sections)
        node = to_json_value(obj)
        assert node == {"type": "obj", "value": {"class": obj.class_name, "fields": to_json_value(sections)["value"]}}
        again = parse_provenance(serialize_provenance(obj))
        assert canonical_encode(again) == canonical_encode(obj)
        assert (again.class_name, again.config, again.instance) == (obj.class_name, obj.config, obj.instance)

    def test_sections_are_maps_and_default_to_empty(self):
        obj = PObj("demo.Thing", {"a": PInt(1)})
        assert obj.config == PMap({"a": PInt(1)}) and obj.instance == PMap()
        with pytest.raises(TypeError):
            PObj("demo.Thing", PStr("a"))

    @pytest.mark.parametrize("section", ["config", "instance"])
    def test_the_sections_map_counts_as_a_level(self, section):
        def nested(depth):
            value = PStr("leaf")
            for _ in range(depth):
                value = PMap({"k": value})
            return value

        at_the_cap = PObj("demo.Node", **{section: nested(MAX_DEPTH - 2)})
        for over in (lambda: PList((at_the_cap,)), lambda: PObj("demo.Node", **{section: nested(MAX_DEPTH - 1)})):
            with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
                over()


# ---------------------------------------------------------------------------
# Refusing an object of another shape
# ---------------------------------------------------------------------------

_NOT_MAPS = st.one_of(
    prov_values(max_leaves=4).filter(lambda v: not isinstance(v, PMap)).map(to_json_value),
    st.one_of(st.none(), st.integers(), st.text(max_size=4), st.just([]), st.just({})),
)


def _reshape(fields: dict, kind: str, draw) -> None:
    """Give an ``obj`` node's ``fields`` a missing, an extra or a non-map section."""
    section = draw(st.sampled_from(["config", "instance"]))
    if kind == "missing":
        del fields[section]
    elif kind == "extra":
        fields[draw(st.text(max_size=8).filter(lambda k: k not in fields))] = draw(_NOT_MAPS)
    else:
        fields[section] = draw(_NOT_MAPS)


def _obj_nodes(node):
    """Every ``obj`` node of a provenance document in JSON form, outermost first."""
    if isinstance(node, dict):
        if node.get("type") == "obj":
            yield node
        for child in node.values():
            yield from _obj_nodes(child)
    elif isinstance(node, list):
        for child in node:
            yield from _obj_nodes(child)


_KINDS = st.sampled_from(["missing", "extra", "non-map"])


class TestRefusedShapes:
    @given(st.integers(0, 2**32), _KINDS, st.data())
    @_FUZZ
    def test_parse_provenance(self, seed, kind, data):
        doc = to_json_value(_corpus_object(random.Random(seed), depth=3))
        target = data.draw(st.sampled_from(list(_obj_nodes(doc))))
        _reshape(target["value"]["fields"], kind, data.draw)
        with pytest.raises(ParseError):
            parse_provenance(json.dumps(doc))

    @given(_KINDS, st.data())
    @_FUZZ
    def test_config_document(self, kind, data):
        doc = json.loads(config_to_json(extract_configuration(CartTrainer(TreeConfig(max_depth=2)).provenance())))
        nested = to_json_value(PObj("pvml.Nested", {"a": PInt(1)}, {"b": PInt(2)}))
        _reshape(nested["value"]["fields"], kind, data.draw)
        doc["config"][0]["properties"]["nested"] = nested
        with pytest.raises(ParseError):
            config_from_json(json.dumps(doc))

    @given(st.sampled_from(_CONTAINERS), _KINDS, st.data())
    @_FUZZ
    def test_load_model(self, tmp_path_factory, container, kind, data):
        container = json.loads(json.dumps(container))
        target = data.draw(st.sampled_from(list(_obj_nodes(container["provenance"]))))
        _reshape(target["value"]["fields"], kind, data.draw)
        path = tmp_path_factory.mktemp("model") / "m.pvml"
        path.write_text(json.dumps(container), encoding="utf-8")
        with pytest.raises(FormatError) as raised:
            load_model(str(path))
        assert isinstance(raised.value.__cause__, ParseError)

    @pytest.mark.parametrize("provenance", [to_json_value(PStr("x")), to_json_value(PMap({"a": PInt(1)}))])
    def test_a_model_provenance_that_is_no_object(self, tmp_path, provenance):
        container = {**json.loads(json.dumps(_CONTAINERS[0])), "provenance": provenance}
        path = tmp_path / "m.pvml"
        path.write_text(json.dumps(container), encoding="utf-8")
        with pytest.raises(FormatError, match="provenance must be an object"):
            load_model(str(path))


def _commands(ws, path):
    out = str(ws["dir"] / "out")
    return {
        "predict": ["predict", "--model", path, "--data", ws["data"], "--schema", ws["schema"], "--out", out],
        "evaluate": ["evaluate", "--model", path, "--data", ws["data"], "--schema", ws["schema"], "--report", out],
        "reproduce": ["reproduce", "--model", path, "--output", out],
        "inspect": ["inspect", "--model", path],
        "extract-config": ["extract-config", "--model", path, "--out", out],
        "diff": ["diff", "--left", ws["model"], "--right", path],
    }


_RESHAPED = {
    "missing": lambda fields: fields.pop("instance"),
    "extra": lambda fields: fields.update(meta={"type": "map", "value": {}}),
    "non-map": lambda fields: fields.update(config={"type": "list", "value": []}),
}


@pytest.mark.parametrize("kind", sorted(_RESHAPED))
@pytest.mark.parametrize("command", ["predict", "evaluate", "reproduce", "inspect", "extract-config", "diff"])
def test_every_command_exits_2(workspace, capsys, kind, command):  # noqa: F811
    """The trainer object of a model file reshaped: every command that reads the file exits 2."""
    assert _train(workspace) == 0
    container = json.loads((workspace["dir"] / "model.pvml").read_text(encoding="utf-8"))
    trainer = container["provenance"]["value"]["fields"]["config"]["value"]["trainer"]
    _RESHAPED[kind](trainer["value"]["fields"])
    path = workspace["dir"] / "reshaped.pvml"
    path.write_text(json.dumps(container), encoding="utf-8")
    capsys.readouterr()
    assert main(_commands(workspace, str(path))[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
