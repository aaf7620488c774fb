"""Reference computations that check pvml's outputs from outside.

Nothing here calls pvml.  Models are read from the saved JSON container,
rows are featurized from the CSV text by the benchmark's own rules, trees
are walked and linear scores computed directly, and evaluation numbers are
recomputed from reference predictions and the ground truth.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

TOL = 1e-9


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def featurize(row: dict, columns) -> dict[str, float]:
    """Named features of one CSV row.

    Numeric cells parse as floats, categorical cells become ``col@value``
    and text cells become lower-case ``col@token`` counts.  Generated text
    holds only lower-case alphanumeric tokens separated by spaces.
    """
    out: dict[str, float] = {}
    for column, kind in columns:
        cell = row[column]
        if cell == "":
            continue
        if kind == "numeric":
            out[column] = float(cell)
        elif kind == "categorical":
            out[f"{column}@{cell}"] = 1.0
        else:
            for token in cell.lower().split():
                name = f"{column}@{token}"
                out[name] = out.get(name, 0.0) + 1.0
    return out


# ---------------------------------------------------------------------------
# Model containers
# ---------------------------------------------------------------------------

def load_container(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _obj_fields(node: dict) -> dict:
    """Fields of an ``obj`` node in the provenance JSON form."""
    if node.get("type") != "obj":
        raise ValueError("expected an obj provenance node")
    return node["value"]["fields"]


def _section(node: dict, name: str) -> dict:
    return _obj_fields(node)[name]["value"]


def recorded_transformations(container: dict) -> list[dict]:
    """The transformation nodes recorded in the model's data provenance."""
    data = _section(container["provenance"], "instance")["data"]
    return _section(data, "instance")["transformations"]["value"]


def recorded_zscore_fits(container: dict) -> list[dict[str, tuple[float, float]]]:
    """The z-score fits recorded in the model's data provenance, in order.

    Each entry maps a feature name to its (mean, std).  Features without an
    entry were degenerate at fit time and pass through unchanged.
    """
    fits = []
    for t in recorded_transformations(container):
        if t["value"]["class"] != "pvml.ZScoreTransform":
            raise ValueError(f"unsupported transformation {t['value']['class']}")
        fitted = _section(t, "instance")["fitted"]["value"]
        fits.append(
            {
                name: (entry["value"]["mean"]["value"], entry["value"]["std"]["value"])
                for name, entry in fitted.items()
            }
        )
    return fits


def apply_fits(features: dict[str, float], fits) -> dict[str, float]:
    for fit in fits:
        features = {
            n: (v - fit[n][0]) / fit[n][1] if n in fit else v for n, v in features.items()
        }
    return features


def parameter_block(container: dict) -> dict:
    """The trained parameters alone: weights or tree nodes, members nested.

    Provenance, domains and names are left out, so the block of a model
    and of its reproduction must be identical.
    """
    params = container["parameters"]
    if container["modelClass"] == "pvml.EnsembleModel":
        params = {
            "memberWeights": params["memberWeights"],
            "members": [parameter_block(m) for m in params["members"]],
        }
    return {"modelClass": container["modelClass"], "parameters": params}


def parameter_bytes(container: dict) -> bytes:
    return json.dumps(parameter_block(container), sort_keys=True, separators=(",", ":")).encode()


def parameter_sha256(container: dict) -> str:
    return hashlib.sha256(parameter_bytes(container)).hexdigest()


def _laid_out(value, depth: int) -> int:
    """Bytes ``value`` takes in the file when its key sits at ``depth``.

    Model files are written with sorted keys and an indent of two, so a
    nested value is its own indented dump shifted right on every line
    after the first.
    """
    text = json.dumps(value, sort_keys=True, indent=2)
    return len(text.encode()) + text.count("\n") * 2 * depth


def section_bytes(container: dict, depth: int = 1) -> dict[str, int]:
    """Model-file bytes in provenance, feature-domain and parameter sections.

    Nested ensemble members count in their own sections; the ensemble's
    own parameter bytes are its member weights.
    """
    out = {
        "provenance": _laid_out(container["provenance"], depth),
        "domain": _laid_out(container["featureDomain"], depth),
        "parameters": 0,
    }
    params = container["parameters"]
    if container["modelClass"] == "pvml.EnsembleModel":
        out["parameters"] = _laid_out(params["memberWeights"], depth + 1)
        for member in params["members"]:
            for key, value in section_bytes(member, depth + 3).items():
                out[key] += value
    else:
        out["parameters"] = _laid_out(params, depth)
    return out


# ---------------------------------------------------------------------------
# Reference predictions
# ---------------------------------------------------------------------------

def _labels(container: dict) -> list[str]:
    return sorted(container["outputDomain"]["counts"])


def _ids(container: dict) -> dict[str, int]:
    return {name: e["id"] for name, e in container["featureDomain"]["features"].items()}


def _walk(node: dict, sparse: dict[int, float]) -> dict:
    while node["kind"] == "split":
        value = sparse.get(node["feature"], 0.0)
        node = node["left"] if value <= float(node["threshold"]) else node["right"]
    return node


def _argmax(scores: dict[str, float]) -> str:
    best = max(scores.values())
    return min(label for label, s in scores.items() if s == best)


def predict_tree(container: dict, rows: list[dict[str, float]]) -> list:
    """(output, scores) per row; None where the row shares no feature."""
    ids, labels = _ids(container), None
    if container["outputDomain"]["type"] == "categorical":
        labels = _labels(container)
    root = container["parameters"]["root"]
    out = []
    for features in rows:
        sparse = {ids[n]: v for n, v in features.items() if n in ids}
        if not sparse:
            out.append(None)
            continue
        leaf = _walk(root, sparse)
        if labels is None:
            out.append((float(leaf["mean"]), {}))
            continue
        counts = {label: float(w) for label, w in leaf["counts"].items()}
        total = sum(counts.values())
        scores = {label: counts.get(label, 0.0) / total for label in labels}
        out.append((_argmax(scores), scores))
    return out


def predict_linear(container: dict, rows: list[dict[str, float]]) -> list:
    """softmax(x . W) per row, with a trailing bias feature of one."""
    ids, labels = _ids(container), _labels(container)
    weights = np.array([[float(v) for v in row] for row in container["parameters"]["weights"]])
    x = np.zeros((len(rows), len(ids) + 1))
    x[:, -1] = 1.0
    overlap = []
    for i, features in enumerate(rows):
        hit = False
        for name, value in features.items():
            fid = ids.get(name)
            if fid is not None:
                x[i, fid] = value
                hit = True
        overlap.append(hit)
    z = x @ weights
    z -= z.max(axis=1, keepdims=True)
    probs = np.exp(z)
    probs /= probs.sum(axis=1, keepdims=True)
    out = []
    for hit, p in zip(overlap, probs):
        scores = {label: float(v) for label, v in zip(labels, p)}
        out.append((_argmax(scores), scores) if hit else None)
    return out


def predict_ensemble_regression(container: dict, rows: list[dict[str, float]]) -> list:
    """Weighted mean of member walks, each member through its own domain."""
    params = container["parameters"]
    weights = [float(w) for w in params["memberWeights"]]
    member_preds = [predict_tree(m, rows) for m in params["members"]]
    out = []
    for i in range(len(rows)):
        used = [(p[i][0], w) for p, w in zip(member_preds, weights) if p[i] is not None]
        if not used:
            out.append(None)
            continue
        out.append((sum(v * w for v, w in used) / sum(w for _, w in used), {}))
    return out


def predict(container: dict, rows: list[dict[str, float]]) -> list:
    cls = container["modelClass"]
    if cls == "pvml.TreeModel":
        return predict_tree(container, rows)
    if cls == "pvml.LinearSgdModel":
        return predict_linear(container, rows)
    if cls == "pvml.EnsembleModel" and container["outputDomain"]["type"] == "real":
        return predict_ensemble_regression(container, rows)
    raise ValueError(f"no reference predictor for {cls}")


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def same_output(got, want: tuple) -> bool:
    """Labels must match unless the reference's top two scores tie within TOL."""
    output, scores = want
    if isinstance(output, float):
        return _close(float(got), output)
    if got == output:
        return True
    ranked = sorted(scores.values(), reverse=True)
    return len(ranked) > 1 and ranked[0] - ranked[1] <= TOL and _close(scores[got], ranked[0])


def predictions_match(path: str, reference: list, labels: list[str] | None) -> bool:
    """A predictions CSV written by ``pvml predict`` against reference rows."""
    written = read_rows(path)
    if len(written) != len(reference):
        return False
    for i, (row, want) in enumerate(zip(written, reference)):
        if want is None or int(row["row"]) != i or not same_output(
            row["prediction"] if labels else float(row["prediction"]), want
        ):
            return False
        if labels and not all(_close(float(row[label]), want[1][label]) for label in labels):
            return False
    return True


def classification_metrics(truths: list[str], preds: list[str], model_labels) -> dict:
    labels = sorted(set(model_labels) | set(truths))
    pairs = list(zip(truths, preds))
    n = len(pairs)
    ratio = lambda a, b: a / b if b > 0 else 0.0  # noqa: E731
    per_label, tp_all, fp_all, fn_all = {}, 0, 0, 0
    for label in labels:
        tp = sum(1 for t, p in pairs if t == label and p == label)
        fp = sum(1 for t, p in pairs if t != label and p == label)
        fn = sum(1 for t, p in pairs if t == label and p != label)
        precision, recall = ratio(tp, tp + fp), ratio(tp, tp + fn)
        per_label[label] = {
            "precision": precision,
            "recall": recall,
            "f1": ratio(2 * precision * recall, precision + recall),
        }
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
    micro_p, micro_r = ratio(tp_all, tp_all + fp_all), ratio(tp_all, tp_all + fn_all)
    confusion: dict[str, dict[str, int]] = {t: {} for t in labels}
    for t, p in pairs:
        confusion[t][p] = confusion[t].get(p, 0) + 1
    return {
        "accuracy": sum(1 for t, p in pairs if t == p) / n,
        "macro-precision": sum(m["precision"] for m in per_label.values()) / len(labels),
        "macro-recall": sum(m["recall"] for m in per_label.values()) / len(labels),
        "macro-f1": sum(m["f1"] for m in per_label.values()) / len(labels),
        "micro-precision": micro_p,
        "micro-recall": micro_r,
        "micro-f1": ratio(2 * micro_p * micro_r, micro_p + micro_r),
        "per-label": per_label,
        "num-examples": n,
        "confusion": confusion,
    }


def regression_metrics(truths: list[float], preds: list[float]) -> dict:
    n = len(truths)
    resid = [p - t for t, p in zip(truths, preds)]
    ss_res = sum(r * r for r in resid)
    mean = sum(truths) / n
    ss_tot = sum((t - mean) ** 2 for t in truths)
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res == 0 else 0.0
    return {
        "rmse": math.sqrt(ss_res / n),
        "mae": sum(abs(r) for r in resid) / n,
        "r2": r2,
        "num-examples": n,
    }


def reference_metrics(container: dict, truths: list, reference: list) -> dict:
    preds = [p[0] for p in reference]
    if container["outputDomain"]["type"] == "categorical":
        return classification_metrics(truths, preds, _labels(container))
    return regression_metrics([float(t) for t in truths], preds)


def _numbers_match(got, want) -> bool:
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and set(got) == set(want)
            and all(_numbers_match(got[k], want[k]) for k in want)
        )
    if isinstance(want, float):
        return isinstance(got, (int, float)) and _close(float(got), want)
    return got == want


def report_matches(path: str, want: dict) -> bool:
    """An evaluation report written by ``pvml evaluate`` against reference metrics."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    metrics = dict(report["metrics"])
    confusion = want.get("confusion")
    expected = {k: v for k, v in want.items() if k != "confusion"}
    if confusion is not None and not _numbers_match(report["confusion"], confusion):
        return False
    return _numbers_match(metrics, expected)
