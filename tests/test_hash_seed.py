"""``pvml train`` makes the same model under every string-hash seed and
every OpenBLAS kernel, and trees under every numpy CPU dispatch.

Python salts the hash of a ``str`` per process, so iterating a set or dict
of strings can change order from one process to the next.  Each trainer
here trains on the same CSV in two processes, with ``PYTHONHASHSEED`` 0 and
1; the parameter blocks and the provenance hashes must be equal.  OpenBLAS
picks a kernel for the host's CPU, and each kernel sums a product in its own
order; each trainer also trains with ``OPENBLAS_CORETYPE`` unset,
``Haswell`` and ``Prescott``, and the parameter blocks must be equal.
numpy picks its loops by the host's CPU features too.  A tree and a forest
train with ``NPY_DISABLE_CPU_FEATURES`` unset and set to the AVX-512 groups,
and the parameter blocks must be equal.  The linear trainer is left out:
numpy's ``exp`` and ``log`` round differently under AVX-512 and AVX2, so a
logistic model's last bits follow the host.  glibc picks the variant of its
libm functions, ``pow`` among them, by the CPU too: a regression tree and a
regression forest, whose variance squares each deviation, train with
``GLIBC_TUNABLES`` unset and set to hide FMA and AVX2, and the parameter
blocks must be equal.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pvml.data import ColumnarSchema, FieldProcessor
from pvml.ensemble import RANDOM_FOREST, EnsembleConfig, EnsembleTrainer
from pvml.optimize import AdaGrad, LinearSgdTrainer
from pvml.provenance import config_to_json, extract_configuration
from pvml.trees import CartTrainer, TreeConfig

from test_benchmark_reader import checks

SRC = str(Path(__file__).resolve().parents[1] / "src")

TRAINERS = {
    "tree": CartTrainer(TreeConfig(max_depth=4, seed=5)),
    "linear": LinearSgdTrainer("logistic", AdaGrad(0.3), epochs=5, batch_size=4, seed=13),
    "random-forest": EnsembleTrainer(
        EnsembleConfig(
            CartTrainer(TreeConfig(max_depth=3, feature_subsampling_fraction=0.5, seed=2)),
            4,
            seed=7,
            variant=RANDOM_FOREST,
        )
    ),
}

COLORS = ["red", "green", "blue", "cyan", "amber", "violet"]
WORDS = ["fox", "dog", "owl", "cat", "elk", "yak", "emu", "ant"]


def _write_inputs(directory: Path, trainer, response: str = "categorical") -> list[str]:
    """A CSV of numeric, categorical and text columns with a ``response``
    label, its schema and the trainer config; returns the arguments of
    ``pvml train`` without the output."""
    rows = ["f1,color,words,label"]
    for i in range(24):
        words = " ".join(WORDS[(i * k) % len(WORDS)] for k in (1, 3, 5))
        label = "abc"[(i * 5) % 3] if response == "categorical" else repr((i * 37) % 17 / 3.7 - 1.1)
        rows.append(f"{(i * 7) % 11 / 4},{COLORS[i % len(COLORS)]},{words},{label}")
    (directory / "train.csv").write_text("\n".join(rows) + "\n")
    schema = ColumnarSchema(
        "label",
        response,
        (FieldProcessor("f1", "numeric"), FieldProcessor("color", "categorical"), FieldProcessor("words", "text")),
    )
    (directory / "schema.json").write_text(config_to_json(extract_configuration(schema.provenance())))
    (directory / "trainer.json").write_text(config_to_json(extract_configuration(trainer.provenance())))
    return ["train", "--data", "train.csv", "--schema", "schema.json", "--trainer", "trainer.json"]


def _train(directory: Path, argv: list[str], hash_seed: str, **settings: str | None) -> tuple[dict, str]:
    """The parameter block and provenance hash of one ``pvml train`` process.

    ``settings`` sets environment variables, or unsets them where None.
    ``OPENBLAS_CORETYPE``, ``NPY_DISABLE_CPU_FEATURES`` and ``GLIBC_TUNABLES``
    are unset unless set there, so OpenBLAS, numpy and glibc pick the host's
    own kernels, loops and libm variants.
    """
    output = "model.pvml"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "OPENBLAS_CORETYPE": None, "NPY_DISABLE_CPU_FEATURES": None, "GLIBC_TUNABLES": None}
    env = {name: value for name, value in {**env, **settings}.items() if value is not None}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pvml.cli", *argv, "--output", output],
        cwd=directory, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (hash_line,) = [line for line in done.stdout.splitlines() if line.startswith("provenance-hash ")]
    container = json.loads((directory / output).read_text())
    return checks.parameter_block(container), hash_line.split()[1]


@pytest.mark.parametrize("name", sorted(TRAINERS))
def test_train_is_the_same_under_every_hash_seed(tmp_path, name):
    argv = _write_inputs(tmp_path, TRAINERS[name])
    (block_0, hash_0), (block_1, hash_1) = (_train(tmp_path, argv, seed) for seed in ("0", "1"))
    assert block_0 == block_1
    assert hash_0 == hash_1


@pytest.mark.parametrize("name", sorted(TRAINERS))
def test_train_is_the_same_under_every_blas_kernel(tmp_path, name):
    argv = _write_inputs(tmp_path, TRAINERS[name])
    blocks = [_train(tmp_path, argv, "0", OPENBLAS_CORETYPE=kernel)[0] for kernel in (None, "Haswell", "Prescott")]
    assert blocks[0] == blocks[1] == blocks[2]


@pytest.mark.parametrize("name", ["random-forest", "tree"])
def test_trees_are_the_same_under_every_numpy_dispatch(tmp_path, name):
    argv = _write_inputs(tmp_path, TRAINERS[name])
    blocks = [
        _train(tmp_path, argv, "0", NPY_DISABLE_CPU_FEATURES=disabled)[0]
        for disabled in (None, "X86_V4 AVX512_ICL AVX512_SPR")
    ]
    assert blocks[0] == blocks[1]


@pytest.mark.parametrize("name", ["random-forest", "tree"])
def test_regression_trees_are_the_same_under_every_libm_variant(tmp_path, name):
    argv = _write_inputs(tmp_path, TRAINERS[name], "real")
    blocks = [
        _train(tmp_path, argv, "0", GLIBC_TUNABLES=tunables)[0]
        for tunables in (None, "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX2_Usable,-FMA_Usable,-FMA4")
    ]
    assert blocks[0] == blocks[1]
