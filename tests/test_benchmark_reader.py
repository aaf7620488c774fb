"""The benchmark reads saved model files without the library.

``benchmarks/checks.py`` walks the JSON of a model file to fingerprint its
parameters, size its sections and score rows by its own reference code.  A
model file layout it cannot read would blind the benchmark, so a linear
model, a tree and a random forest are saved here and read through it, and
its predictions must agree with the loaded models'.
"""

import importlib.util
import math
import os

import pytest

from pvml.core import CategoricalOutput, make_example
from pvml.errors import NoFeatureOverlap
from pvml.persist import load_model, save_model

from test_batch import MODELS

_BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


def _benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", os.path.join(_BENCHMARKS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _benchmark_module("checks")

ROWS = [
    {"x": -1.5, "y": 3.0, "t@2": 1.0},
    {"x": 0.5, "y": 6.0},
    {"y": 1.0, "t@7": 1.0, "unknown": 2.0},
    {"x": 2.5, "t@11": 1.0},
    {"t@3": 1.0},
    {"unknown": 1.0},
]


@pytest.mark.parametrize("name", ["linear-logistic", "cart-clf", "forest-reg"])
def test_the_benchmark_reads_what_the_library_loads(tmp_path, name):
    path = str(tmp_path / "m.pvml")
    save_model(MODELS[name], path)
    container = checks.load_container(path)
    model = load_model(path)

    block = checks.parameter_block(container)
    assert block["modelClass"] == model.model_class
    assert len(checks.parameter_sha256(container)) == 64
    sections = checks.section_bytes(container)
    assert set(sections) == {"provenance", "domain", "parameters"}
    assert all(type(size) is int and size > 0 for size in sections.values())

    reference = checks.predict(container, ROWS)
    for row, want in zip(ROWS, reference):
        example = make_example(row.items())
        if want is None:
            with pytest.raises(NoFeatureOverlap):
                model.predict(example)
            continue
        got = model.predict(example).output
        if isinstance(got, CategoricalOutput):
            assert checks.same_output(got.label, want)
        else:
            assert math.isclose(got.value, want[0], rel_tol=checks.TOL, abs_tol=checks.TOL)


def test_member_parameter_blocks_are_the_members_own(tmp_path):
    path = str(tmp_path / "m.pvml")
    save_model(MODELS["forest-reg"], path)
    block = checks.parameter_block(checks.load_container(path))
    members = block["parameters"]["members"]
    assert [m["modelClass"] for m in members] == [m.model_class for m in MODELS["forest-reg"].members]
    assert all("root" in m["parameters"] for m in members)


def test_every_name_the_tracer_wraps_exists():
    """``benchmarks/tracing.py`` times layers by swapping module and class
    attributes for wrappers, and reports a name it cannot find only as a
    ``names_not_found`` entry of a traced run: every name must exist."""
    tracing = _benchmark_module("tracing")
    for owner, attr, _ in tracing.SPANS:
        assert attr in vars(tracing._resolve(owner)), f"{owner}.{attr}"
    wrapped = [("pvml.cli", "json"), ("pvml.optimize", "optimizer_step"), ("pvml.trees", "best_split"),
               ("pvml.cli", "provenance_hash"), ("pvml.repro", "provenance_hash")]
    settled = [("pvml.provenance", "canonical_encode"), ("pvml.provenance", "strip_volatile")]
    for owner, attr in wrapped + settled:
        assert attr in vars(importlib.import_module(owner)), f"{owner}.{attr}"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
