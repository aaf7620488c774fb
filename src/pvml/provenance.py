"""Typed provenance value trees and the operations defined over them.

A provenance value is a small algebra of immutable nodes (strings, ints,
floats, bools, timestamps, hashes, lists, string-keyed maps, and named
objects).  Everything the library records about datasets, trainers, models
and evaluations is expressed in this algebra, which gives one canonical
byte encoding (for SHA-256 hashing), one JSON form (for files), one
configuration extractor (for re-instantiating components) and one redaction
rule, instead of per-class ad-hoc metadata.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union

from .errors import ParseError, UnknownTag

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

MAX_DEPTH = 128  # the nesting of lists, maps and objects that the recursive walks, repr and == fit; real provenance nests 15-25

REDACTED = "<REDACTED>"
REDACTED_VOLATILE = "<REDACTED-VOLATILE>"

# Section keys of an object provenance node.
CONFIG_SECTION = "config"
INSTANCE_SECTION = "instance"

# Instance fields that describe the run environment rather than the
# computation; they are excluded from hashes and tagged in diffs.
# Timestamp values are volatile wherever they appear, independent of key.
VOLATILE_INSTANCE_KEYS = frozenset(
    {"trained-at", "loaded-at", "os-name", "architecture", "user-info"}
)


# ---------------------------------------------------------------------------
# The value algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PStr:
    value: str

    def __post_init__(self):
        if not isinstance(self.value, str):
            raise TypeError("PStr takes a str")
        try:
            self.value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"string is not UTF-8 encodable: {exc}") from exc


@dataclass(frozen=True)
class PInt:
    value: int

    def __post_init__(self):
        if type(self.value) is not int:
            raise TypeError("PInt takes an int")
        if not INT64_MIN <= self.value <= INT64_MAX:
            raise ValueError("PInt out of signed 64-bit range")


@dataclass(frozen=True, eq=False)
class PFlt:
    value: float

    def __post_init__(self):
        if not isinstance(self.value, float):
            raise TypeError("PFlt takes a float")
        if not math.isfinite(self.value):
            raise ValueError("PFlt must be finite")

    # equality follows the IEEE-754 bit pattern (the canonical form), so
    # 0.0 and -0.0 are distinct values here even though they compare ==
    def __eq__(self, other):
        return isinstance(other, PFlt) and struct.pack(">d", self.value) == struct.pack(
            ">d", other.value
        )

    def __hash__(self):
        return hash(struct.pack(">d", self.value))


@dataclass(frozen=True)
class PBool:
    value: bool

    def __post_init__(self):
        if not isinstance(self.value, bool):
            raise TypeError("PBool takes a bool")


@dataclass(frozen=True)
class PTimestamp:
    """A UTC instant as integer seconds plus nanoseconds in [0, 1e9)."""

    seconds: int
    nanos: int = 0

    def __post_init__(self):
        if type(self.seconds) is not int or type(self.nanos) is not int:
            raise TypeError("PTimestamp takes int seconds and nanos")
        if not INT64_MIN <= self.seconds <= INT64_MAX:
            raise ValueError("seconds out of signed 64-bit range")
        if not 0 <= self.nanos < 1_000_000_000:
            raise ValueError("nanos out of range")


@dataclass(frozen=True)
class PHash:
    algorithm: str
    digest: str

    def __post_init__(self):
        if not isinstance(self.algorithm, str) or not isinstance(self.digest, str):
            raise TypeError("PHash takes a str algorithm and digest")
        if not self.algorithm or not self.digest:
            raise ValueError("hash needs an algorithm and a digest")


def _set_depth(node, children, levels: int = 1) -> None:
    """Record ``node``'s depth, ``levels`` more than its deepest child's (a leaf's is 0): above :data:`MAX_DEPTH`, raise."""
    deepest = 0
    for child in children:  # a loop, not max(): this runs for every list, map and object built
        depth = getattr(child, "_depth", 0)
        if depth > deepest:
            deepest = depth
    if deepest + levels > MAX_DEPTH:
        raise ParseError(f"provenance nests deeper than {MAX_DEPTH} levels")
    object.__setattr__(node, "_depth", deepest + levels)


@dataclass(frozen=True)
class PList:
    items: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        _set_depth(self, self.items)

    def __iter__(self) -> Iterator:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class PMap:
    """String-keyed map with entries kept sorted by key."""

    entries: tuple = ()

    def __post_init__(self):
        raw = self.entries
        if isinstance(raw, Mapping):
            pairs = list(raw.items())
        else:
            pairs = list(raw)
        keys = [k for k, _ in pairs]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate map keys")
        if any(not isinstance(k, str) for k in keys):
            raise TypeError("map keys must be strings")
        object.__setattr__(self, "entries", tuple(sorted(pairs, key=lambda kv: kv[0])))
        # a lookup index, not a field, so equality, repr and encoding ignore it
        object.__setattr__(self, "_index", dict(pairs))
        _set_depth(self, self._index.values())

    def keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.entries)

    def get(self, key: str, default=None):
        return self._index.get(key, default)

    def __getitem__(self, key: str):
        v = self.get(key, _MISSING)
        if v is _MISSING:
            raise KeyError(key)
        return v

    def __contains__(self, key: str) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def __len__(self) -> int:
        return len(self.entries)

    def as_dict(self) -> dict:
        return dict(self.entries)

    def with_entry(self, key: str, value) -> "PMap":
        """Copy with one entry replaced or added."""
        items = {k: v for k, v in self.entries}
        items[key] = value
        return PMap(items)


_MISSING = object()


@dataclass(frozen=True)
class PObj:
    """A named object: its configuration, known before the computation ran
    (hyperparameters, paths, seeds), and its instance values, derived during
    it (hashes, counts, timestamps, host info).  A key may appear in one
    section only.  Both sections are :class:`PMap`; a mapping is converted.

    An object encodes, hashes and reads from JSON as its class name and the
    two-entry map ``{"config": ..., "instance": ...}``, and that map counts
    as one level of its depth.  :func:`from_json_value` refuses an ``obj``
    node whose ``fields`` are not exactly those two maps.
    """

    class_name: str
    config: PMap = field(default_factory=PMap)
    instance: PMap = field(default_factory=PMap)

    def __post_init__(self):
        if not isinstance(self.class_name, str):
            raise TypeError("PObj takes a str class name")
        if not self.class_name:
            raise ValueError("object class name must be non-empty")
        if not isinstance(self.config, PMap):
            object.__setattr__(self, "config", PMap(self.config))
        if not isinstance(self.instance, PMap):
            object.__setattr__(self, "instance", PMap(self.instance))
        overlap = self.config._index.keys() & self.instance._index.keys()
        if overlap:
            raise ValueError(f"fields in both sections: {sorted(overlap)}")
        _set_depth(self, (self.config, self.instance), levels=2)


ProvValue = Union[PStr, PInt, PFlt, PBool, PTimestamp, PHash, PList, PMap, PObj]


def timestamp_now() -> PTimestamp:
    ns = time.time_ns()
    return PTimestamp(ns // 1_000_000_000, ns % 1_000_000_000)


def object_provenance(
    class_name: str,
    config: Mapping[str, ProvValue] | None = None,
    instance: Mapping[str, ProvValue] | None = None,
) -> PObj:
    """The :class:`PObj` of ``class_name`` with these sections, each empty when not given."""
    return PObj(class_name, config or {}, instance or {})


def with_instance_entry(obj: PObj, key: str, value: ProvValue) -> PObj:
    """Copy an object provenance node with one instance field replaced."""
    return PObj(obj.class_name, obj.config, obj.instance.with_entry(key, value))


# ---------------------------------------------------------------------------
# Structural rewrite
# ---------------------------------------------------------------------------

def rewrite(v, visit):
    """Rebuild a provenance tree top-down.

    ``visit(node)`` returns the node's replacement (any value, such as a
    :class:`ConfigRef`), or ``None`` to rebuild a list, map or object around
    its rewritten children (items in order, map entries by key, an object's
    two section maps) and to keep any other node.  A container whose
    children all come back unchanged is kept, so only the paths to replaced
    nodes are copied.
    """
    out = visit(v)
    if out is not None:
        return out
    if isinstance(v, PList):
        items = tuple(rewrite(item, visit) for item in v.items)
        return v if _same(items, v.items) else PList(items)
    if isinstance(v, PMap):
        values = [rewrite(val, visit) for _, val in v.entries]
        return v if _same(values, [val for _, val in v.entries]) else PMap(zip(v.keys(), values))
    if isinstance(v, PObj):
        config, instance = rewrite(v.config, visit), rewrite(v.instance, visit)
        return v if config is v.config and instance is v.instance else PObj(v.class_name, config, instance)
    return v


def _same(new, old) -> bool:
    return all(a is b for a, b in zip(new, old))


# ---------------------------------------------------------------------------
# Canonical byte encoding
# ---------------------------------------------------------------------------

_TAG_STR = b"\x01"
_TAG_INT = b"\x02"
_TAG_FLT = b"\x03"
_TAG_BOOL = b"\x04"
_TAG_TIMESTAMP = b"\x05"
_TAG_HASH = b"\x06"
_TAG_LIST = b"\x07"
_TAG_MAP = b"\x08"
_TAG_OBJ = b"\x09"


def _raw_str(s: str) -> bytes:
    data = s.encode("utf-8")
    return struct.pack(">I", len(data)) + data


# an object's sections encode as the two-entry map {"config": ..., "instance": ...}
_OBJ_CONFIG = _TAG_MAP + struct.pack(">I", 2) + _raw_str(CONFIG_SECTION)
_OBJ_INSTANCE = _raw_str(INSTANCE_SECTION)


def canonical_encode(v: ProvValue) -> bytes:
    """Deterministic, injective byte encoding of a provenance value.

    One tag byte per variant; strings are length-prefixed UTF-8; integers
    are big-endian two's-complement; floats are their big-endian IEEE-754
    bit patterns; map entries are emitted in key byte order.  Two values
    encode to the same bytes iff they are equal, which is what makes
    SHA-256 over this encoding usable as an identity.
    """
    out = bytearray()
    _encode_into(v, out)
    return bytes(out)


def _encode_into(v: ProvValue, out: bytearray) -> None:
    if isinstance(v, PStr):
        out += _TAG_STR
        out += _raw_str(v.value)
    elif isinstance(v, PInt):
        out += _TAG_INT
        out += struct.pack(">q", v.value)
    elif isinstance(v, PFlt):
        out += _TAG_FLT
        out += struct.pack(">d", v.value)
    elif isinstance(v, PBool):
        out += _TAG_BOOL
        out += b"\x01" if v.value else b"\x00"
    elif isinstance(v, PTimestamp):
        out += _TAG_TIMESTAMP
        out += struct.pack(">qI", v.seconds, v.nanos)
    elif isinstance(v, PHash):
        out += _TAG_HASH
        out += _raw_str(v.algorithm)
        out += _raw_str(v.digest)
    elif isinstance(v, PList):
        out += _TAG_LIST
        out += struct.pack(">I", len(v.items))
        for item in v.items:
            _encode_into(item, out)
    elif isinstance(v, PMap):
        out += _TAG_MAP
        out += struct.pack(">I", len(v.entries))
        for key, val in v.entries:  # already sorted by key
            out += _raw_str(key)
            _encode_into(val, out)
    elif isinstance(v, PObj):
        out += _TAG_OBJ
        out += _raw_str(v.class_name)
        out += _OBJ_CONFIG
        _encode_into(v.config, out)
        out += _OBJ_INSTANCE
        _encode_into(v.instance, out)
    else:
        raise TypeError(f"not a provenance value: {type(v).__name__}")


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------

_VOLATILE = PStr(REDACTED_VOLATILE)


def strip_volatile(v: ProvValue) -> ProvValue:
    """Replace environment-dependent fields with a fixed placeholder.

    Timestamps anywhere, and the volatile instance keys of object nodes,
    are rewritten to the string ``<REDACTED-VOLATILE>`` so that reruns of
    the same configuration over the same data hash identically.
    """

    def visit(node):
        if isinstance(node, PTimestamp):
            return _VOLATILE
        if isinstance(node, PObj):
            instance = [
                (k, _VOLATILE if k in VOLATILE_INSTANCE_KEYS else rewrite(val, visit))
                for k, val in node.instance.entries
            ]
            return PObj(node.class_name, rewrite(node.config, visit), PMap(instance))
        return None

    return rewrite(v, visit)


def provenance_hash(v: ProvValue) -> str:
    """Lowercase hex SHA-256 of the canonical encoding, volatile fields excluded."""
    return hashlib.sha256(canonical_encode(strip_volatile(v))).hexdigest()


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------

def to_json_value(v: ProvValue):
    """Provenance value -> plain JSON-compatible Python structure."""
    if isinstance(v, PStr):
        return {"type": "str", "value": v.value}
    if isinstance(v, PInt):
        return {"type": "int", "value": v.value}
    if isinstance(v, PFlt):
        return {"type": "flt", "value": v.value}
    if isinstance(v, PBool):
        return {"type": "bool", "value": v.value}
    if isinstance(v, PTimestamp):
        return {"type": "timestamp", "value": {"seconds": v.seconds, "nanos": v.nanos}}
    if isinstance(v, PHash):
        return {"type": "hash", "value": {"algorithm": v.algorithm, "digest": v.digest}}
    if isinstance(v, PList):
        return {"type": "list", "value": [to_json_value(item) for item in v.items]}
    if isinstance(v, PMap):
        return {"type": "map", "value": {k: to_json_value(val) for k, val in v.entries}}
    if isinstance(v, PObj):
        fields = {CONFIG_SECTION: to_json_value(v.config), INSTANCE_SECTION: to_json_value(v.instance)}
        return {"type": "obj", "value": {"class": v.class_name, "fields": fields}}
    if isinstance(v, ConfigRef):
        return {"type": "ref", "value": v.name}
    raise TypeError(f"not a provenance value: {type(v).__name__}")


_KNOWN_TAGS = frozenset({"str", "int", "flt", "bool", "timestamp", "hash", "list", "map", "obj"})


def from_json_value(node, allow_refs: bool = False) -> ProvValue:
    """Inverse of :func:`to_json_value`; raises on malformed structures.

    A ``ref`` leaf decodes to a :class:`ConfigRef` only with ``allow_refs``,
    which configuration documents set; anywhere else it is an unknown tag.
    """
    if not isinstance(node, dict) or "type" not in node:
        raise ParseError("expected an object with a 'type' field")
    tag = node["type"]
    if not isinstance(tag, str) or (tag not in _KNOWN_TAGS and not (allow_refs and tag == "ref")):
        raise UnknownTag(f"unrecognized type tag {tag!r}")
    if "value" not in node:
        raise ParseError(f"tag {tag!r} has no 'value'")
    value = node["value"]
    try:
        if tag == "str":
            return PStr(value)
        if tag == "int":
            return PInt(value)
        if tag == "flt":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ParseError(f"malformed 'flt' value: {value!r}")
            return PFlt(float(value))  # integral JSON numbers accepted
        if tag == "bool":
            return PBool(value)
        if tag == "timestamp":
            return PTimestamp(value["seconds"], value["nanos"])
        if tag == "hash":
            return PHash(value["algorithm"], value["digest"])
        if tag == "list":
            return PList(tuple(from_json_value(item, allow_refs) for item in value))
        if tag == "map":
            if not isinstance(value, dict):
                raise ParseError("map value must be an object")
            return PMap({k: from_json_value(val, allow_refs) for k, val in value.items()})
        if tag == "ref":
            return ConfigRef(value)
        fields = value["fields"]
        if isinstance(fields, dict) and fields.keys() == {CONFIG_SECTION, INSTANCE_SECTION}:
            config, instance = (from_json_value(fields[k], allow_refs) for k in (CONFIG_SECTION, INSTANCE_SECTION))
            if isinstance(config, PMap) and isinstance(instance, PMap):
                return PObj(value["class"], config, instance)
        raise ParseError("object fields must be exactly a 'config' and an 'instance' map")
    except (TypeError, ValueError, KeyError) as exc:
        raise ParseError(f"malformed {tag!r} value: {exc}") from exc


def serialize_provenance(v: ProvValue) -> str:
    """JSON text with sorted map keys; floats round-trip bit-exactly."""
    return json.dumps(to_json_value(v), sort_keys=True, indent=2)


def _parse_json(text: str, decode):
    """``decode(json.loads(text))``, with malformed or too deeply nested
    text raised as :class:`ParseError`."""
    try:
        return decode(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None


def parse_provenance(text: str) -> ProvValue:
    return _parse_json(text, from_json_value)


# ---------------------------------------------------------------------------
# Configuration extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfigRef:
    """Reference from one configuration record to another, by record name."""

    name: str

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise TypeError("ConfigRef takes a str record name")


@dataclass(frozen=True)
class ConfigRecord:
    """The configuration-only view of one object provenance node.

    ``properties`` maps field names to provenance values in which any nested
    object has been replaced by a :class:`ConfigRef` to its own record.
    """

    name: str
    class_name: str
    properties: dict


def extract_configuration(root: PObj) -> list[ConfigRecord]:
    """Collect the configuration of every object node under ``root``.

    The walk is depth-first in field order; each object yields one record
    named ``<class>-<visit index>`` holding only its configuration fields.
    Instance fields never appear in any record, but the walk still descends
    through them so that objects stored there (for example a data source
    inside dataset provenance) are extracted too.
    """
    records: list[ConfigRecord] = []

    def substitute(v):
        return rewrite(v, lambda node: ConfigRef(visit(node)) if isinstance(node, PObj) else None)

    def visit(obj: PObj) -> str:
        slot = len(records)
        name = f"{obj.class_name}-{slot}"
        records.append(None)  # reserve position: parents precede children
        records[slot] = ConfigRecord(name, obj.class_name, {k: substitute(v) for k, v in obj.config.entries})
        substitute(obj.instance)  # extracts the objects stored there; the copy is dropped
        return name

    visit(root)
    return records


def config_to_json(records: list[ConfigRecord]) -> str:
    """Records -> the on-disk configuration document {"config": [...]}."""
    doc = {
        "config": [
            {
                "name": r.name,
                "class": r.class_name,
                "properties": {k: to_json_value(v) for k, v in r.properties.items()},
            }
            for r in records
        ]
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def config_from_json(text: str) -> list[ConfigRecord]:
    return _parse_json(text, _config_records)


def _config_records(doc) -> list[ConfigRecord]:
    if not isinstance(doc, dict) or not isinstance(doc.get("config"), list):
        raise ParseError("configuration document must be {\"config\": [...]}")
    records = []
    for entry in doc["config"]:
        if not isinstance(entry, dict) or not all(isinstance(entry.get(k), str) for k in ("name", "class")):
            raise ParseError("a configuration record needs a string 'name' and 'class'")
        properties = from_json_value({"type": "map", "value": entry.get("properties")}, allow_refs=True)
        records.append(ConfigRecord(entry["name"], entry["class"], properties.as_dict()))
    return records


# ---------------------------------------------------------------------------
# Redaction
# ---------------------------------------------------------------------------

def redact(model_prov: PObj) -> tuple[str, PObj]:
    """Blank out confidential content, keeping a linkable digest.

    Returns ``(digest, redacted)`` where ``digest`` is the provenance hash
    of the original.  Data provenance values and trainer configuration
    values are replaced by ``<REDACTED>``; class-name skeletons survive so
    the shape of the pipeline stays visible, and the digest is stored at
    the root so the redacted tree can be linked back to the full record
    kept elsewhere.
    """
    digest = provenance_hash(model_prov)
    blank = PStr(REDACTED)

    def redact_values(node):
        # lists, maps and objects are rebuilt around their blanked leaves
        return None if isinstance(node, (PList, PMap, PObj)) else blank

    def redact_model(mp: PObj) -> PObj:
        config = mp.config
        trainer = config.get("trainer")
        if isinstance(trainer, PObj):
            # configuration values are blanked; the instance side
            # (invocation count) is not considered confidential
            blanked = rewrite(trainer.config, redact_values)
            config = config.with_entry("trainer", PObj(trainer.class_name, blanked, trainer.instance))
        instance = mp.instance
        if "data" in instance:
            instance = instance.with_entry("data", rewrite(instance["data"], redact_values))
        members = instance.get("members")
        if isinstance(members, PList):
            instance = instance.with_entry("members", PList(tuple(redact_model(m) for m in members.items)))
        return PObj(mp.class_name, config, instance)

    redacted = with_instance_entry(redact_model(model_prov), "provenance-hash", PHash("SHA-256", digest))
    return digest, redacted
