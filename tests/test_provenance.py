"""Provenance values: canonical encoding, hashing, JSON, extraction, redaction."""

import functools
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from pvml.errors import ParseError, UnknownTag
from pvml.provenance import (
    ConfigRef,
    PBool,
    PFlt,
    PHash,
    PInt,
    PList,
    PMap,
    PObj,
    PStr,
    PTimestamp,
    canonical_encode,
    config_from_json,
    config_to_json,
    extract_configuration,
    object_provenance,
    parse_provenance,
    provenance_hash,
    redact,
    serialize_provenance,
    strip_volatile,
    to_json_value,
    from_json_value,
)

# independently computed with hashlib over the two tag/payload bytes
BOOL_TRUE_SHA256 = "38b8bc5c86db41a80615b2f4694fc754cccffb95e8933d5b376021feab83cea3"


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------

class TestMapLookup:
    def test_lookups_on_a_large_map(self):
        rnd = random.Random(8)
        entries = {f"key-{rnd.randrange(10**9):09d}": PInt(i) for i in range(1000)}
        m = PMap(entries)
        assert len(m) == len(entries)
        for key, value in entries.items():
            assert m.get(key) is value
            assert m[key] is value
            assert key in m
        for missing in ("", "key-", "key-x", "zzz"):
            assert m.get(missing) is None
            assert m.get(missing, PStr("d")) == PStr("d")
            assert missing not in m
            with pytest.raises(KeyError):
                m[missing]

    def test_index_is_not_part_of_the_value(self):
        a = PMap({"b": PInt(2), "a": PInt(1)})
        b = PMap([("a", PInt(1)), ("b", PInt(2))])
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "PMap(entries=(('a', PInt(value=1)), ('b', PInt(value=2))))"
        assert a.with_entry("c", PInt(3))["c"] == PInt(3)


class TestCanonicalEncoding:
    def test_bool_true_bytes(self):
        assert canonical_encode(PBool(True)) == bytes([0x04, 0x01])

    def test_bool_false_bytes(self):
        assert canonical_encode(PBool(False)) == bytes([0x04, 0x00])

    def test_float_one_is_its_bit_pattern(self):
        assert canonical_encode(PFlt(1.0)) == bytes([0x03, 0x3F, 0xF0, 0, 0, 0, 0, 0, 0])

    def test_int_five(self):
        assert canonical_encode(PInt(5)) == bytes([0x02, 0, 0, 0, 0, 0, 0, 0, 5])

    def test_negative_int_twos_complement(self):
        assert canonical_encode(PInt(-1)) == bytes([0x02] + [0xFF] * 8)

    def test_map_entries_sorted_by_key(self):
        encoded = canonical_encode(PMap({"b": PInt(1), "a": PInt(2)}))
        assert encoded.index(b"a") < encoded.index(b"b")

    def test_map_insertion_order_irrelevant(self):
        one = PMap([("b", PInt(1)), ("a", PInt(2))])
        two = PMap([("a", PInt(2)), ("b", PInt(1))])
        assert canonical_encode(one) == canonical_encode(two)

    def test_string_length_prefix(self):
        assert canonical_encode(PStr("hi")) == bytes([0x01, 0, 0, 0, 2]) + b"hi"

    def test_injective_on_random_corpus(self):
        # encode-then-compare must agree with equality across a mixed corpus
        rnd = random.Random(4096)
        corpus = []
        for _ in range(120):
            n = rnd.randrange(0, 4)
            entries = {f"k{i}": PInt(rnd.randrange(-5, 5)) for i in range(n)}
            split = rnd.randrange(n + 1)  # the same keys in other sections make other objects
            items = list(entries.items())
            corpus.append(
                rnd.choice(
                    [
                        PMap(entries),
                        PList(tuple(entries.values())),
                        PObj(f"c{rnd.randrange(3)}", PMap(items[:split]), PMap(items[split:])),
                        PStr("".join(rnd.choices("ab", k=n))),
                        PInt(rnd.randrange(-5, 5)),
                        PFlt(rnd.randrange(-5, 5) / 2.0),
                    ]
                )
            )
        for a in corpus:
            for b in corpus:
                assert (canonical_encode(a) == canonical_encode(b)) == (a == b)

    def test_distinct_values_encode_distinctly(self):
        values = [
            PStr("1"),
            PInt(1),
            PFlt(1.0),
            PBool(True),
            PTimestamp(1, 0),
            PHash("SHA-256", "00"),
            PList((PInt(1),)),
            PMap({"1": PInt(1)}),
            PObj("one", PMap({})),
            PList((PStr("a"), PStr("b"))),
            PList((PStr("ab"),)),
        ]
        encodings = [canonical_encode(v) for v in values]
        assert len(set(encodings)) == len(encodings)


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------

def _model_fixture(seconds=100, os_name="Linux", user=None):
    trainer = object_provenance(
        "demo.Trainer",
        config={"lr": PFlt(0.1), "seed": PInt(42)},
        instance={"invocation-count": PInt(3)},
    )
    data = object_provenance(
        "demo.Dataset",
        config={},
        instance={
            "num-examples": PInt(10),
            "num-features": PInt(2),
            "transformations": PList(),
            "source": object_provenance(
                "demo.Source",
                config={"path": PStr("/data/train.csv")},
                instance={
                    "data-hash": PHash("SHA-256", "ab" * 32),
                    "loaded-at": PTimestamp(seconds, 7),
                },
            ),
        },
    )
    return object_provenance(
        "demo.Model",
        config={"trainer": trainer},
        instance={
            "data": data,
            "trained-at": PTimestamp(seconds + 5, 0),
            "os-name": PStr(os_name),
            "architecture": PStr("x86_64"),
            "library-version": PStr("0.1.0"),
            "user-info": PMap({k: PStr(v) for k, v in (user or {}).items()}),
        },
    )


class TestProvenanceHash:
    def test_bool_true_digest(self):
        assert provenance_hash(PBool(True)) == BOOL_TRUE_SHA256

    def test_lowercase_hex(self):
        digest = provenance_hash(PInt(7))
        assert digest == digest.lower() and len(digest) == 64

    def test_invariant_under_timestamps(self):
        assert provenance_hash(_model_fixture(seconds=100)) == provenance_hash(
            _model_fixture(seconds=999_999)
        )

    def test_invariant_under_os_and_user_info(self):
        a = _model_fixture(os_name="Linux", user={})
        b = _model_fixture(os_name="Darwin", user={"who": "someone"})
        assert provenance_hash(a) == provenance_hash(b)

    def test_sensitive_to_configuration(self):
        a = _model_fixture()
        trainer = object_provenance(
            "demo.Trainer",
            config={"lr": PFlt(0.2), "seed": PInt(42)},
            instance={"invocation-count": PInt(3)},
        )
        b = PObj(a.class_name, PMap({"trainer": trainer}), a.instance)
        assert provenance_hash(a) != provenance_hash(b)

    def test_map_order_invariance(self):
        a = PMap([("x", PInt(1)), ("y", PInt(2)), ("z", PInt(3))])
        b = PMap([("z", PInt(3)), ("x", PInt(1)), ("y", PInt(2))])
        assert provenance_hash(a) == provenance_hash(b)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def prov_values(max_leaves=12):
    leaves = st.one_of(
        st.text(max_size=8).map(PStr),
        st.integers(min_value=-(2**63), max_value=2**63 - 1).map(PInt),
        st.floats(allow_nan=False, allow_infinity=False, width=64).map(PFlt),
        st.booleans().map(PBool),
        st.tuples(
            st.integers(min_value=0, max_value=2**40), st.integers(min_value=0, max_value=999_999_999)
        ).map(lambda t: PTimestamp(*t)),
        st.text(alphabet="0123456789abcdef", min_size=2, max_size=8).map(
            lambda d: PHash("SHA-256", d)
        ),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4).map(lambda xs: PList(tuple(xs))),
            st.dictionaries(st.text(max_size=6), children, max_size=4).map(PMap),
            st.tuples(
                st.text(min_size=1, max_size=8),
                st.dictionaries(st.text(max_size=6), st.tuples(st.booleans(), children), max_size=3),
            ).map(lambda t: _split_object(*t)),
        ),
        max_leaves=max_leaves,
    )


def _split_object(class_name, fields):
    """The object of ``class_name`` whose fields ``{key: (in_instance, value)}`` go to their sections."""
    sections = ({}, {})
    for key, (in_instance, value) in fields.items():
        sections[in_instance][key] = value
    return PObj(class_name, *sections)


class TestJsonRoundTrip:
    def test_int_schema(self):
        assert to_json_value(PInt(5)) == {"type": "int", "value": 5}

    def test_model_fixture_round_trips(self):
        v = _model_fixture()
        assert parse_provenance(serialize_provenance(v)) == v

    @given(prov_values())
    @settings(max_examples=300, deadline=None)
    def test_random_trees_round_trip(self, value):
        assert parse_provenance(serialize_provenance(value)) == value

    @given(prov_values())
    @settings(max_examples=150, deadline=None)
    def test_encoding_agrees_with_equality(self, value):
        again = parse_provenance(serialize_provenance(value))
        assert canonical_encode(again) == canonical_encode(value)

    def test_unknown_tag(self):
        with pytest.raises(UnknownTag):
            parse_provenance('{"type": "zzz"}')
        with pytest.raises(UnknownTag):
            parse_provenance('{"type": "zzz", "value": 1}')

    def test_parse_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_provenance('{"type": "int", ')
        assert err.value.line == 1 and err.value.column is not None

    def test_malformed_value_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_provenance('{"type": "int", "value": "not-a-number"}')

    def test_non_finite_float_rejected(self):
        with pytest.raises(ParseError):
            from_json_value({"type": "flt", "value": float("nan")})

    def test_signed_zeros_are_distinct_values(self):
        # equality tracks the bit pattern, matching the canonical encoding
        assert PFlt(0.0) != PFlt(-0.0)
        assert canonical_encode(PFlt(0.0)) != canonical_encode(PFlt(-0.0))
        assert parse_provenance(serialize_provenance(PFlt(-0.0))) == PFlt(-0.0)

    def test_unencodable_string_rejected(self):
        with pytest.raises(ValueError):
            PStr("\ud800")  # lone surrogate has no UTF-8 form

    @pytest.mark.parametrize(
        "text",
        [
            '{"type":"obj","value":{"class":"c","fields":[]}}',
            '{"type":"obj","value":{"class":"c","fields":"ab"}}',
            '{"type":"obj","value":{"class":5,"fields":{}}}',
            '{"type":"obj","value":[]}',
            '{"type":"hash","value":{"algorithm":1,"digest":2}}',
            '{"type":"hash","value":{"algorithm":"SHA-256","digest":["00"]}}',
            '{"type":"timestamp","value":{"seconds":true,"nanos":0}}',
            '{"type":"timestamp","value":{"seconds":1,"nanos":0.5}}',
        ],
    )
    def test_malformed_structures_are_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_provenance(text)

    def test_value_parts_must_have_their_types(self):
        with pytest.raises(TypeError):
            PHash(1, 2)
        with pytest.raises(TypeError):
            PTimestamp(seconds=True)
        with pytest.raises(TypeError):
            PTimestamp(1, nanos=1.0)
        with pytest.raises(TypeError):
            PObj(5)


def _nested(depth, kind, leaf=PStr("leaf")):
    """``depth`` levels of ``kind`` around ``leaf``: lists, maps, or objects
    whose configuration holds the level below, three levels apiece (the
    configuration map, the sections map and the object), over the maps that
    make up the rest."""
    value = leaf
    if kind == "object":
        for _ in range(depth % 3):
            value = PMap({"k": value})
        for _ in range(depth // 3):
            value = PObj("demo.Node", PMap({"k": value}))
        return value
    wrap = {"list": lambda v: PList((v,)), "map": lambda v: PMap({"k": v})}[kind]
    for _ in range(depth):
        value = wrap(value)
    return value


def _deep_json(depth):
    return '{"type":"list","value":[' * depth + '{"type":"int","value":1}' + "]}" * depth


class TestDepthCap:
    @pytest.mark.parametrize("kind", ["list", "map", "object"])
    def test_levels_at_the_cap_build_hash_and_round_trip(self, kind):
        value = _nested(128, kind)
        encoded = canonical_encode(value)
        assert canonical_encode(parse_provenance(serialize_provenance(value))) == encoded
        assert provenance_hash(value) == hashlib.sha256(encoded).hexdigest()  # nothing volatile

    @pytest.mark.parametrize("kind", ["list", "map", "object"])
    def test_levels_at_the_cap_repr_and_compare(self, kind):
        value, same, other = _nested(128, kind), _nested(128, kind), _nested(128, kind, PStr("other"))
        assert repr(value) == repr(same) and repr(value).count("leaf") == 1
        assert value == same and value != other

    @pytest.mark.parametrize("kind", ["list", "map", "object"])
    def test_one_level_over_the_cap_raises(self, kind):
        with pytest.raises(ParseError, match="deeper than 128 levels"):
            _nested(129, kind)

    def test_an_object_around_the_cap_raises(self):
        with pytest.raises(ParseError, match="deeper than 128 levels"):
            PObj("demo.Node", _nested(128, "map"))

    def test_a_json_document_within_the_cap(self):
        assert canonical_encode(parse_provenance(_deep_json(128))) == canonical_encode(_nested(128, "list", PInt(1)))

    @pytest.mark.parametrize(
        "depth, message", [(129, "deeper than 128 levels"), (300, "deeper than 128 levels"), (1200, "nested too deeply")]
    )
    def test_a_json_document_deeper_than_the_cap(self, depth, message):
        with pytest.raises(ParseError, match=message):
            parse_provenance(_deep_json(depth))
        with pytest.raises(ParseError, match=message):
            config_from_json('{"config":[{"name":"a","class":"b","properties":{"p":' + _deep_json(depth) + "}}]}")


# ---------------------------------------------------------------------------
# Object provenance and extraction
# ---------------------------------------------------------------------------

class TestObjectProvenance:
    def test_sections_partition_fields(self):
        obj = object_provenance("demo.Thing", config={"a": PInt(1)}, instance={"b": PInt(2)})
        assert obj == PObj("demo.Thing", PMap({"a": PInt(1)}), PMap({"b": PInt(2)}))
        assert obj.config.keys() == ("a",)
        assert obj.instance.keys() == ("b",)
        assert object_provenance("demo.Thing") == PObj("demo.Thing", PMap(), PMap())

    def test_key_in_both_sections_rejected(self):
        with pytest.raises(ValueError, match=r"fields in both sections: \['a'\]"):
            object_provenance("demo.Thing", config={"a": PInt(1)}, instance={"a": PInt(2)})
        with pytest.raises(ValueError, match="fields in both sections"):
            PObj("demo.Thing", PMap({"a": PInt(1), "b": PInt(2)}), PMap({"a": PInt(2)}))


class TestExtractConfiguration:
    def test_instance_fields_omitted(self):
        trainer = object_provenance(
            "demo.Trainer",
            config={"lr": PFlt(0.1), "seed": PInt(42)},
            instance={"invocation-count": PInt(3)},
        )
        records = extract_configuration(trainer)
        assert len(records) == 1
        assert set(records[0].properties) == {"lr", "seed"}

    def test_nested_trainer_referenced_by_id(self):
        inner = object_provenance(
            "demo.TreeTrainer", config={"depth": PInt(3)}, instance={"invocation-count": PInt(0)}
        )
        outer = object_provenance(
            "demo.EnsembleTrainer",
            config={"members": PInt(10), "base-trainer": inner},
            instance={"invocation-count": PInt(1)},
        )
        records = extract_configuration(outer)
        assert [r.class_name for r in records] == ["demo.EnsembleTrainer", "demo.TreeTrainer"]
        ref = records[0].properties["base-trainer"]
        assert isinstance(ref, ConfigRef) and ref.name == records[1].name

    def test_objects_inside_instance_fields_still_extracted(self):
        records = extract_configuration(_model_fixture())
        classes = {r.class_name for r in records}
        assert "demo.Source" in classes  # lives under the dataset's instance section

    def test_extraction_idempotent(self):
        root = _model_fixture()
        assert extract_configuration(root) == extract_configuration(root)

    def test_deterministic_visit_ids(self):
        records = extract_configuration(_model_fixture())
        assert records[0].name == "demo.Model-0"
        assert all(r.name == f"{r.class_name}-{i}" for i, r in enumerate(records))

    def test_no_instance_keys_anywhere(self):
        # marker audit: nothing from any instance section may leak through
        instance_keys = {
            "invocation-count", "num-examples", "num-features", "transformations",
            "source", "data", "data-hash", "loaded-at", "trained-at", "os-name",
            "architecture", "library-version", "user-info",
        }
        for record in extract_configuration(_model_fixture()):
            assert not (set(record.properties) & instance_keys)

    def test_config_document_round_trip(self):
        records = extract_configuration(_model_fixture())
        assert config_from_json(config_to_json(records)) == records


class TestRedact:
    def test_digest_is_provenance_hash(self):
        v = _model_fixture()
        digest, _ = redact(v)
        assert digest == provenance_hash(v)

    def test_no_original_strings_survive(self):
        v = _model_fixture(user={"note": "secret-note"})
        _, redacted = redact(v)
        text = serialize_provenance(redacted)
        assert "/data/train.csv" not in text
        assert "ab" * 32 not in text

    def test_class_skeleton_kept_and_hash_stored(self):
        v = _model_fixture()
        digest, redacted = redact(v)
        text = serialize_provenance(redacted)
        assert "demo.Trainer" in text and "demo.Source" in text
        stored = redacted.instance["provenance-hash"]
        assert stored == PHash("SHA-256", digest)

    def test_deterministic(self):
        assert redact(_model_fixture()) == redact(_model_fixture())


# ---------------------------------------------------------------------------
# Pinned outputs of the structural rewrites
# ---------------------------------------------------------------------------

_CORPUS_KEYS = (
    "a", "b", "c", "seed", "path", "trainer", "data", "members", "source",
    "trained-at", "loaded-at", "os-name", "architecture", "user-info", "invocation-count",
)


def _corpus_leaf(rnd: random.Random):
    pick = rnd.randrange(6)
    if pick == 0:
        return PStr("".join(rnd.choices("abz09 /@", k=rnd.randrange(0, 7))))
    if pick == 1:
        return PInt(rnd.randrange(-(2**63), 2**63))
    if pick == 2:
        return PFlt(rnd.uniform(-1e6, 1e6))
    if pick == 3:
        return PBool(rnd.random() < 0.5)
    if pick == 4:
        return PTimestamp(rnd.randrange(0, 2**40), rnd.randrange(0, 10**9))
    return PHash("SHA-256", "".join(rnd.choices("0123456789abcdef", k=12)))


def _corpus_value(rnd: random.Random, depth: int):
    if depth <= 0 or rnd.random() < 0.4:
        return _corpus_leaf(rnd)
    pick = rnd.randrange(5)
    if pick == 0:
        return PList(tuple(_corpus_value(rnd, depth - 1) for _ in range(rnd.randrange(0, 4))))
    if pick == 1:
        keys = rnd.sample(_CORPUS_KEYS, k=rnd.randrange(0, 4))
        return PMap({k: _corpus_value(rnd, depth - 1) for k in keys})
    if pick == 2:  # an object with configuration only
        keys = rnd.sample(_CORPUS_KEYS, k=rnd.randrange(0, 3))
        return object_provenance(f"plain{rnd.randrange(3)}", config={k: _corpus_value(rnd, depth - 1) for k in keys})
    return _corpus_object(rnd, depth - 1)


def _corpus_object(rnd: random.Random, depth: int) -> PObj:
    """An object provenance whose sections hold leaves, containers and objects.

    ``trainer`` (config) and ``members`` (instance) always hold object
    provenances, the shape :func:`redact` expects of a model.
    """
    keys = rnd.sample(_CORPUS_KEYS, k=rnd.randrange(0, 7))
    split = rnd.randrange(0, len(keys) + 1)
    sections: list[dict] = [{}, {}]
    for i, key in enumerate(keys):
        if key == "trainer" and i < split:
            value = _corpus_object(rnd, depth - 1)
        elif key == "members" and i >= split:
            value = PList(tuple(_corpus_object(rnd, depth - 1) for _ in range(rnd.randrange(0, 3))))
        else:
            value = _corpus_value(rnd, depth)
        sections[i >= split][key] = value
    return object_provenance(f"cls{rnd.randrange(4)}", config=sections[0], instance=sections[1])


@functools.lru_cache(maxsize=1)
def _pinned_corpus():
    rnd = random.Random(5005)
    return tuple(_corpus_object(rnd, depth=4) for _ in range(400))


class TestPinnedDigests:
    """SHA-256 over a seeded corpus of object provenances, per operation.

    The constants were recorded with the hand-written recursions that the
    generic ``rewrite`` walk replaced; equal digests mean equal bytes.  The
    redacted and stripped ones were recorded again, by the code from before
    ``PObj`` held its two sections, once the corpus's objects with
    configuration only were given an empty instance section.
    """

    @staticmethod
    def _digest(render) -> str:
        h = hashlib.sha256()
        for value in _pinned_corpus():
            out = render(value)
            h.update(out if isinstance(out, bytes) else out.encode())
        return h.hexdigest()

    def test_corpus_exercises_every_shape(self):
        text = "".join(serialize_provenance(v) for v in _pinned_corpus())
        for marker in ('"timestamp"', '"trained-at"', '"members"', '"plain', '"trainer"', '"hash"'):
            assert marker in text

    def test_extracted_configuration_documents(self):
        assert self._digest(lambda v: config_to_json(extract_configuration(v))) == PINNED_CONFIG

    def test_redacted_trees(self):
        assert self._digest(lambda v: serialize_provenance(redact(v)[1])) == PINNED_REDACTED

    def test_stripped_canonical_bytes(self):
        assert self._digest(lambda v: canonical_encode(strip_volatile(v))) == PINNED_STRIPPED


PINNED_CONFIG = "546b06d5c60a51188a7f44c2859d3c25d3be82ce54f7821c983a21c88e29c5ef"
PINNED_REDACTED = "85d7c82b8bf2c76a7b4d57a1affefd2d89ea4430e16efda904dc6a91b795d77f"
PINNED_STRIPPED = "400f8d1db866c50d69f7227dc3fec93a48c693b14ebe1eb1be844fa3931b5899"
