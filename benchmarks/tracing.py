"""Spans around pvml's layer boundaries, recorded from outside the library.

Each layer is reached through a module-level name in the module that calls
it (``pvml.cli.load_csv``, ``pvml.trees.best_split`` ...) or through a
method on a class.  The tracer swaps those names for timing wrappers while
a traced round runs and puts the originals back afterwards.  A recursive
function is wrapped only where its callers name it, so it is timed once
per outside call; methods that re-enter themselves (an ensemble's members
predicting inside the ensemble's ``predict``) open a span only at the
outermost call.

Spans are ``(name, start, end, parent)`` tuples kept in memory; parent is
the index of the enclosing span or -1.  Self time is a span's duration
minus that of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# (importable owner, attribute, span name).  The owner is a module or a
# class reached as ``module.Class``.
SPANS = (
    ("pvml.cli", "load_csv", "data.csv_load"),
    ("pvml.repro", "CsvDataSource", "data.csv_load"),
    ("pvml.data", "featurize_row", "data.featurize"),
    ("pvml.cli", "fit_transformers", "data.transform"),
    ("pvml.cli", "apply_transformers", "data.transform"),
    ("pvml.repro", "fit_transformers", "data.transform"),
    ("pvml.repro", "apply_transformers", "data.transform"),
    ("pvml.cli", "build_dataset", "core.build_dataset"),
    ("pvml.repro", "build_dataset", "core.build_dataset"),
    ("pvml.core.Trainer", "train", "core.train"),
    ("pvml.core.Model", "predict", "core.predict"),
    ("pvml.optimize.LinearSgdTrainer", "train_with_count", "optimize.train"),
    ("pvml.trees.CartTrainer", "train_with_count", "trees.train"),
    ("pvml.trees", "best_split", "trees.best_split"),
    ("pvml.ensemble", "bootstrap_sample", "ensemble.bootstrap"),
    ("pvml.cli", "evaluate_classification", "evaluate.score"),
    ("pvml.cli", "evaluate_regression", "evaluate.score"),
    ("pvml.evaluate.ClassificationEvaluation", "to_report", "evaluate.report"),
    ("pvml.evaluate.RegressionEvaluation", "to_report", "evaluate.report"),
    ("pvml.cli", "save_model", "persist.save"),
    ("pvml.cli", "load_model", "persist.load"),
    ("pvml.persist", "to_json_value", "provenance.to_json"),
    ("pvml.persist", "from_json_value", "provenance.from_json"),
    ("pvml.cli", "provenance_hash", "provenance.hash"),
    ("pvml.repro", "provenance_hash", "provenance.hash"),
    ("pvml.repro", "extract_configuration", "provenance.extract_config"),
    ("pvml.repro", "rebuild_dataset", "repro.rebuild_dataset"),
    ("pvml.cli", "reproduce_model", "repro.reproduce"),
)


def _resolve(owner: str):
    try:
        return importlib.import_module(owner)
    except ImportError:
        module, _, cls = owner.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``pvml.cli`` so the report
    write (``json.dump``) is a span; every other name passes through."""

    def __init__(self, real, dump):
        self._real = real
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self.counts: Counter = Counter()
        self.deferred: list = []  # (kind, args) measured after the round
        self._saved: list = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; re-entry opens no new span."""
        if self._open[name]:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        self._open[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open[name] -= 1
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)

        return traced

    # -- installing --------------------------------------------------------

    def _wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``; note names not found."""
        if attr not in vars(owner):
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        import pvml.cli
        import pvml.optimize
        import pvml.repro
        import pvml.trees

        for owner_name, attr, name in SPANS:
            self._wrap(_resolve(owner_name), attr, lambda fn, name=name: self._wrapper(name, fn))
        self._wrap(pvml.cli, "json", lambda real: _JsonProxy(real, self._wrapper("evaluate.report", real.dump)))

        tracer = self

        def count_steps(step):
            def counted(*args, **kwargs):
                tracer.counts["optimize.steps"] += 1
                return step(*args, **kwargs)

            return counted

        self._wrap(pvml.optimize, "optimizer_step", count_steps)

        # thresholds and canonical bytes are worked out after the round from
        # the arguments kept here, so that working them out is not timed
        def keep_split_args(split):
            def kept(rows, candidate_features, cfg, *rest, **kwargs):
                tracer.deferred.append(("thresholds", (rows, tuple(candidate_features), cfg)))
                return split(rows, candidate_features, cfg, *rest, **kwargs)

            return kept

        def keep_hashed_value(hashed):
            def kept(value):
                tracer.deferred.append(("canonical", value))
                return hashed(value)

            return kept

        self._wrap(pvml.trees, "best_split", keep_split_args)
        for module in (pvml.cli, pvml.repro):
            self._wrap(module, "provenance_hash", keep_hashed_value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- deferred counts ---------------------------------------------------

    def settle(self) -> None:
        """Turn the kept arguments into counts; call after the traced work."""
        from pvml.provenance import canonical_encode, strip_volatile
        from pvml.trees import RANDOM_THRESHOLD

        for kind, payload in self.deferred:
            if kind == "canonical":
                self.counts["provenance.canonical_bytes"] += len(
                    canonical_encode(strip_volatile(payload))
                )
                continue
            rows, candidates, cfg = payload
            if cfg.split_kind == RANDOM_THRESHOLD:
                self.counts["trees.thresholds"] += len(candidates)
                continue
            for fid in candidates:
                distinct = {row.values.get(fid, 0.0) for row in rows}
                self.counts["trees.thresholds"] += len(distinct) - 1
        self.deferred.clear()


def self_times(spans: list) -> list[float]:
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def has_ancestor(spans: list, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_totals(spans: list, counts: Counter) -> dict[str, float]:
    """Per-layer seconds and counts of one traced round."""
    own = self_times(spans)
    total: Counter = Counter()
    calls: Counter = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        if name == "core.train" and has_ancestor(spans, i, "repro.reproduce"):
            total["repro.retrain"] += end - start
        if name.startswith("cli."):
            total["cli.self"] += own[i]
        if name == "core.build_dataset":
            total["core.build_dataset.self"] += own[i]
    return {
        "data.csv_load_s": total["data.csv_load"],
        "data.featurize_s": total["data.featurize"],
        "data.transform_s": total["data.transform"],
        "core.build_dataset_s": total["core.build_dataset.self"],
        "core.predict_s": total["core.predict"],
        "optimize.train_s": total["optimize.train"],
        "optimize.steps": counts["optimize.steps"],
        "trees.train_s": total["trees.train"],
        "trees.best_split_calls": calls["trees.best_split"],
        "trees.best_split_s": total["trees.best_split"],
        "trees.thresholds": counts["trees.thresholds"],
        "ensemble.bootstrap_calls": calls["ensemble.bootstrap"],
        "ensemble.bootstrap_s": total["ensemble.bootstrap"],
        "evaluate.score_s": total["evaluate.score"],
        "evaluate.report_s": total["evaluate.report"],
        "persist.save_s": total["persist.save"],
        "persist.load_s": total["persist.load"],
        "provenance.hash_s": total["provenance.hash"],
        "provenance.canonical_bytes": counts["provenance.canonical_bytes"],
        "provenance.to_json_s": total["provenance.to_json"],
        "provenance.from_json_s": total["provenance.from_json"],
        "provenance.extract_config_s": total["provenance.extract_config"],
        "repro.rebuild_dataset_s": total["repro.rebuild_dataset"],
        "repro.retrain_s": total["repro.retrain"],
        "cli.self_s": total["cli.self"],
    }


def write_spans(path: str, spans: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
