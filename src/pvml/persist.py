"""Self-describing model files.

A saved model is one JSON document that carries its own provenance, the
feature and output domains it was trained over, and its parameters, so no
external metadata store is needed to identify it.  An ensemble stores each
member once: a member's provenance is its position in the ensemble
provenance's ``members`` list, and its feature domain lists only ids, its
statistics being the ensemble's.  Every float in domains
and parameters is stored as a shortest round-trip decimal string, which
keeps reloaded models bit-identical in their predictions even across JSON
implementations that mangle number precision.  The document is written as
compact JSON with sorted keys, so saving the same model twice produces
identical bytes.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import uuid
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np

from .core import (
    CATEGORICAL,
    CategoricalDomain,
    FeatureDomain,
    Model,
    OutputDomain,
    RealDomain,
    check_feature_names,
    feature_ids,
)
from .ensemble import ENSEMBLE_MODEL_CLASS, EnsembleModel
from .errors import FormatError, InvalidFeatureName, NonFiniteStatistic, TaskMismatch, UnknownModelClass
from .optimize import LINEAR_MODEL_CLASS, LinearSgdModel
from .provenance import PList, PObj, from_json_value, to_json_value
from .trees import TREE_MODEL_CLASS, TreeModel, grow_table

FORMAT_NAME = "PVML"
FORMAT_VERSION = 2


def _f2s(value: float) -> str:
    return repr(float(value))


def _s2f(text) -> float:  # a JSON bool is no float literal
    if type(text) is not bool:
        with contextlib.suppress(TypeError, ValueError):
            return float(text)
    raise FormatError(f"bad float literal {text!r}")


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

def _check_finite(domain: FeatureDomain, error: type[Exception]) -> None:
    """Raise ``error`` naming the first feature, in name order, with a statistic that is not finite."""
    stats = np.stack([getattr(domain, key) for key in FeatureDomain.STATISTICS])
    bad = np.flatnonzero(~np.isfinite(stats).all(axis=0))
    if len(bad):
        raise error(f"feature {domain.names()[bad[0]]!r} has a non-finite statistic")


def _feature_domain_text(domain: FeatureDomain) -> str:
    """The domain as compact JSON with sorted keys, one format per feature;
    a statistic that is not finite, such as a mean whose running sum
    overflowed, raises :class:`NonFiniteStatistic`."""
    _check_finite(domain, NonFiniteStatistic)
    entry = '%s:{"count":%d,"id":%d,"max":"%r","mean":"%r","min":"%r","variance":"%r"}'
    stats = (getattr(domain, key).tolist() for key in ("max", "mean", "min", "variance"))
    rows = zip(map(encode_basestring_ascii, domain.names()), domain.count.tolist(), range(len(domain)), *stats)
    return '{"features":{%s}}' % ",".join([entry % row for row in rows])


def _floats(rows: list) -> np.ndarray:
    """A table of float literals, parsed in one call; one that is not a
    float, a JSON bool among them, raises :class:`FormatError`.  A JSON
    ``null`` reads as NaN, so callers must check that the values are finite."""
    try:
        table = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad float literal: {exc}") from exc
    if table.ndim != 2 or bool in set(map(type, chain.from_iterable(rows))):
        raise FormatError("float literals must be a table of numbers or decimal strings")
    return table


def _feature_entries(node: dict) -> tuple[list[str], list[dict]]:
    """The sorted names of a ``featureDomain`` node and their entries; names
    :func:`~pvml.core.check_feature_name` refuses, and ids other than 0..N-1
    in name order, raise :class:`FormatError`."""
    features = node["features"]
    names = sorted(features)
    try:
        check_feature_names(names)
    except InvalidFeatureName as exc:
        raise FormatError(f"bad feature name: {exc}") from exc
    entries = [features[name] for name in names]
    ids = [e["id"] for e in entries]
    if not (set(map(type, ids)) <= {int} and ids == list(range(len(ids)))):
        raise FormatError("feature ids must be 0..N-1 in name order")
    return names, entries


def feature_domain_from_json(node: dict) -> FeatureDomain:
    """The domain :func:`_feature_domain_text` wrote; bad names or ids (see
    :func:`_feature_entries`), counts other than non-negative integers and
    statistics other than finite float literals raise :class:`FormatError`."""
    try:
        names, entries = _feature_entries(node)
        counts = [e["count"] for e in entries]
        stats = _floats([[e[key] for e in entries] for key in FeatureDomain.STATISTICS])
        if not (set(map(type, counts)) <= {int} and min(counts, default=0) >= 0):
            raise FormatError("feature counts must be non-negative integers")
        domain = FeatureDomain(names, counts, *stats)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed feature domain: {exc}") from exc
    _check_finite(domain, FormatError)
    return domain


def _member_domain_to_json(domain: FeatureDomain) -> dict:
    """An ensemble member's domain: ids alone, the statistics being the ensemble's."""
    return {"features": {name: {"id": fid} for fid, name in enumerate(domain.names())}}


def _member_domain_from_json(node: dict, ensemble: FeatureDomain) -> FeatureDomain:
    """The domain :func:`_member_domain_to_json` wrote: ``ensemble`` restricted to
    its names.  Bad names or ids, and names outside ``ensemble``, raise
    :class:`FormatError`."""
    try:
        names, _ = _feature_entries(node)
        ids = feature_ids(ensemble.ids, names)
        if (ids < 0).any():
            raise FormatError("an ensemble member's feature domain names a feature outside the ensemble's")
        return ensemble.subset(ids)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed member feature domain: {exc}") from exc


def output_domain_to_json(domain: OutputDomain) -> dict:
    """Label counts, or the targets' count and the four statistics a feature has."""
    if isinstance(domain, CategoricalDomain):
        return {"type": "categorical", "counts": dict(sorted(domain.counts.items()))}
    stats = {key: _f2s(getattr(domain, key)) for key in FeatureDomain.STATISTICS}
    return {"type": "real", **stats, "count": domain.count}


def _is_count(value) -> bool:
    return type(value) is int and value >= 1  # a JSON integer of at least 1, not a bool


def output_domain_from_json(node: dict) -> OutputDomain:
    """The domain :func:`output_domain_to_json` wrote; counts other than integers of at
    least 1, statistics that are not finite and a negative variance raise :class:`FormatError`."""
    try:
        if node["type"] == "categorical":
            counts = node["counts"]
            if isinstance(counts, dict) and all(map(_is_count, counts.values())):
                return CategoricalDomain(dict(counts))
            raise FormatError("label counts must be a map of integers of at least 1")
        if node["type"] == "real":
            stats = [_s2f(node[key]) for key in FeatureDomain.STATISTICS]
            if all(map(math.isfinite, stats)) and stats[3] >= 0.0 and _is_count(node["count"]):
                return RealDomain(*stats, node["count"])
            raise FormatError("a real output domain needs finite statistics, a variance of at least 0 and a count of at least 1")
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed output domain: {exc}") from exc
    raise FormatError(f"unknown output domain type {node.get('type')!r}")


# ---------------------------------------------------------------------------
# Per-class parameter codecs
# ---------------------------------------------------------------------------

def _linear_params(model: LinearSgdModel) -> dict:
    return {"weights": [list(map(repr, row)) for row in model.weights.tolist()]}


def _linear_restore(container: dict, name, prov, fd, od) -> LinearSgdModel:
    return LinearSgdModel(name, prov, fd, od, _floats(container["parameters"]["weights"]))


def _tree_params(model: TreeModel) -> dict:
    """The node table as nested JSON: one dict per row, each split then linked to its children."""
    rows = [{"kind": "split", "feature": feature, "threshold": _f2s(threshold)} for feature, threshold, _, _ in model.nodes]
    for i, (n, value) in model.leaves.items():
        if model.task == CATEGORICAL:
            rows[i] = {"kind": "leaf", "n": n, "counts": {label: _f2s(w) for label, w in sorted(value.items())}}
        else:
            rows[i] = {"kind": "leaf", "n": n, "mean": _f2s(value)}
    for row, (_, _, left, right) in zip(rows, model.nodes):
        if left >= 0:
            row["left"], row["right"] = rows[left], rows[right]
    return {"root": rows[0]}


def _tree_restore(container: dict, name, prov, fd, od) -> TreeModel:
    """The node table :func:`_tree_params` wrote, in growth order.  A split
    needs a finite threshold, a leaf an integer ``n`` of at least 1 and a
    finite ``mean`` or ``counts`` over the output domain's labels whose
    weights are finite, non-negative and not all zero."""
    labels = frozenset(od.labels()) if od.task == CATEGORICAL else None

    def expand(node: dict):
        if node["kind"] == "split":
            threshold = _s2f(node["threshold"])
            if not math.isfinite(threshold):
                raise FormatError(f"split threshold {node['threshold']!r} is not finite")
            return (node["feature"], threshold), (node["left"], node["right"])
        if node["kind"] != "leaf":
            raise FormatError(f"unknown tree node kind {node.get('kind')!r}")
        n = node.get("n")
        if not _is_count(n):
            raise FormatError(f"leaf size {n!r} is not an integer of at least 1")
        if labels is None:
            mean = _s2f(node.get("mean"))
            if not math.isfinite(mean):
                raise FormatError("a regression leaf needs a finite mean")
            return None, (n, mean)
        counts = node.get("counts")
        if not isinstance(counts, dict):
            raise FormatError("a classification leaf needs a map of label counts")
        if not labels.issuperset(counts):
            raise FormatError(f"leaf labels {sorted(set(counts) - labels)!r} are outside the output domain")
        weights = {label: _s2f(w) for label, w in counts.items()}
        if not (all(0.0 <= w < math.inf for w in weights.values()) and sum(weights.values()) > 0.0):
            raise FormatError("leaf counts must be finite, non-negative and not all zero")
        return None, (n, weights)

    return TreeModel(name, prov, fd, od, *grow_table(container["parameters"]["root"], expand))


def _recorded_members(prov: PObj) -> tuple:
    """The member provenances an ensemble provenance records, or :class:`FormatError`."""
    members = prov.instance.get("members")
    if not (isinstance(members, PList) and all(isinstance(m, PObj) for m in members)):
        raise FormatError("the ensemble provenance records no list of member objects")
    return members.items


def _ensemble_params(model: EnsembleModel) -> dict:
    """Member ``i`` stores its provenance as ``i``, its position in the
    ensemble provenance's ``members``, which must record it."""
    recorded = _recorded_members(model.provenance)
    if len(recorded) != len(model.members) or any(m.provenance != p for m, p in zip(model.members, recorded)):
        raise FormatError("the ensemble provenance does not record its members' provenance in order")
    return {
        "members": [
            {**_container(m, i), "featureDomain": _member_domain_to_json(m.feature_domain)}
            for i, m in enumerate(model.members)
        ],
        "memberWeights": [_f2s(w) for w in model.member_weights],
    }


def _ensemble_restore(container: dict, name, prov, fd, od) -> EnsembleModel:
    params = container["parameters"]
    recorded = _recorded_members(prov)
    if len(params["members"]) != len(recorded):
        raise FormatError(f"the file holds {len(params['members'])} members; the provenance records {len(recorded)}")
    members = []
    for i, (member, member_prov) in enumerate(zip(params["members"], recorded)):
        at = member.get("provenance") if isinstance(member, dict) else None
        if type(at) is not int or at != i:
            raise FormatError(f"member {i} records provenance {at!r}, not its position {i}")
        members.append(_model_from_container(member, (member_prov, fd)))
    return EnsembleModel(name, prov, fd, od, members, [_s2f(w) for w in params["memberWeights"]])


_TO_PARAMS: dict[str, Callable] = {
    LINEAR_MODEL_CLASS: _linear_params,
    TREE_MODEL_CLASS: _tree_params,
    ENSEMBLE_MODEL_CLASS: _ensemble_params,
}

_RESTORERS: dict[str, Callable] = {
    LINEAR_MODEL_CLASS: _linear_restore,
    TREE_MODEL_CLASS: _tree_restore,
    ENSEMBLE_MODEL_CLASS: _ensemble_restore,
}


def register_model_class(class_name: str, to_params: Callable[[Model], dict], restore: Callable) -> None:
    """Open registry hook for model classes defined outside this library."""
    _TO_PARAMS[class_name] = to_params
    _RESTORERS[class_name] = restore


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------

def model_to_container(model: Model) -> dict:
    """The container :func:`save_model` writes, its feature domain read back from the text written."""
    domain = _feature_domain_text(model.feature_domain)
    return {**_container(model, to_json_value(model.provenance)), "featureDomain": json.loads(domain)}


def _container(model: Model, provenance) -> dict:
    """The container without its ``featureDomain``."""
    to_params = _TO_PARAMS.get(model.model_class)
    if to_params is None:
        raise UnknownModelClass(f"no serializer registered for {model.model_class!r}")
    return {
        "formatName": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "modelClass": model.model_class,
        "name": model.name,
        "provenance": provenance,
        "outputDomain": output_domain_to_json(model.output_domain),
        "parameters": to_params(model),
    }


def _model_from_container(container: dict, member_of: tuple[PObj, FeatureDomain] | None = None) -> Model:
    """The model of ``container``; an ensemble member's is given ``member_of``,
    its recorded provenance and the ensemble's feature domain."""
    if not isinstance(container, dict):
        raise FormatError("model container must be a JSON object")
    if container.get("formatName") != FORMAT_NAME:
        raise FormatError("not a PVML model file (bad or missing formatName)")
    if container.get("version") != FORMAT_VERSION:
        raise FormatError(f"unsupported container version {container.get('version')!r}")
    class_name = container.get("modelClass")
    restore = _RESTORERS.get(class_name) if isinstance(class_name, str) else None
    if restore is None:
        raise UnknownModelClass(f"model class {class_name!r} is not registered")
    try:
        if member_of is None:
            prov = from_json_value(container["provenance"])
            if not isinstance(prov, PObj):
                raise FormatError("the model provenance must be an object")
            fd = feature_domain_from_json(container["featureDomain"])
        else:
            prov, fd = member_of[0], _member_domain_from_json(container["featureDomain"], member_of[1])
        od = output_domain_from_json(container["outputDomain"])
        return restore(container, container.get("name", class_name), prov, fd, od)
    except UnknownModelClass:
        raise
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(f"malformed model container: {exc}") from exc


def write_atomically(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, whole or not at all.

    The text goes to a new temporary file in the target's directory, which
    ``os.replace`` then moves over the target.  If anything fails, the
    temporary file is removed and the target is left as it was.  Line
    endings are written as given.
    """
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_model(model: Model, path: str) -> None:
    """Write the model container, byte-deterministic; one nested too deeply to encode raises :class:`FormatError`."""
    domain = _feature_domain_text(model.feature_domain)
    try:
        rest = json.dumps(_container(model, to_json_value(model.provenance)), sort_keys=True, separators=(",", ":"))
    except RecursionError as exc:
        raise FormatError(f"the model is nested too deeply to write: {exc}") from exc
    # "featureDomain" sorts first among the container's keys, so its text goes first
    write_atomically(path, '{"featureDomain":' + domain + "," + rest[1:] + "\n")


def load_model(path: str, expected_task: str | None = None) -> Model:
    """Reload a model, checking the task type before handing it back.

    ``expected_task`` is "categorical" or "real"; passing the wrong one
    raises :class:`TaskMismatch` instead of letting a regression model
    silently answer classification queries (or vice versa).  ``None`` skips
    the check, for tooling that only inspects the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not valid UTF-8: {exc}") from exc
    try:
        container = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise FormatError(f"not valid JSON: {exc}") from exc
    model = _model_from_container(container)
    if expected_task is not None and model.task != expected_task:
        raise TaskMismatch(
            f"model performs {model.task} prediction but {expected_task} was requested"
        )
    return model
