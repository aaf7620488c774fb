"""Seeded inputs for the benchmark workloads.

Every input file is a pure function of the workload and the seed.  The
generator is a local xoshiro256** (splitmix64 seed expansion), kept apart
from ``pvml.rng`` so that a change to the library cannot change the data
it is measured on.  Configuration documents are written literally in the
``{"config": [...]}`` format the CLI reads.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


class Rng:
    """xoshiro256** seeded through splitmix64."""

    def __init__(self, seed: int):
        s = seed & MASK64
        self._s = []
        for _ in range(4):
            s = (s + _GOLDEN) & MASK64
            self._s.append(_mix64(s))

    def u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & MASK64, 7) * 9) & MASK64
        t = (s[1] << 17) & MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self) -> float:
        return (self.u64() >> 11) * (2.0 ** -53)

    def below(self, n: int) -> int:
        return (self.u64() * n) >> 64

    def normal(self) -> float:
        u1 = 1.0 - self.uniform()  # (0, 1]
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * self.uniform())

    def pick_cdf(self, cdf: list[float]) -> int:
        return min(bisect.bisect_right(cdf, self.uniform() * cdf[-1]), len(cdf) - 1)


def _zipf_cdf(n: int, s: float = 1.0) -> list[float]:
    acc, out = 0.0, []
    for k in range(1, n + 1):
        acc += 1.0 / k ** s
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Configuration documents
# ---------------------------------------------------------------------------

def _v(kind: str, value) -> dict:
    return {"type": kind, "value": value}


def _doc(*records: tuple[str, str, dict]) -> str:
    return json.dumps(
        {"config": [{"name": n, "class": c, "properties": p} for n, c, p in records]},
        sort_keys=True,
        indent=2,
    )


def schema_doc(response: str, task: str, columns: tuple[tuple[str, str], ...]) -> str:
    cols = [_v("map", {"column": _v("str", c), "kind": _v("str", k)}) for c, k in columns]
    return _doc(
        (
            "pvml.ColumnarSchema-0",
            "pvml.ColumnarSchema",
            {
                "response-column": _v("str", response),
                "response-type": _v("str", task),
                "columns": _v("list", cols),
            },
        )
    )


def _cart_props(max_depth: int, min_leaf: int, fraction: float, seed: int) -> dict:
    return {
        "max-depth": _v("int", max_depth),
        "min-examples-per-leaf": _v("int", min_leaf),
        "min-impurity-decrease": _v("flt", 0.0),
        "feature-subsampling-fraction": _v("flt", fraction),
        "split-kind": _v("str", "exhaustive"),
        "seed": _v("int", seed),
    }


def _trainer_seed(seed: int, salt: int) -> int:
    """A signed 64-bit trainer seed derived from the run seed."""
    x = _mix64((seed * 0x100000001B3 + salt) & MASK64)
    return x - (1 << 64) if x >= 1 << 63 else x


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # "categorical" or "real"
    response: str
    columns: tuple[tuple[str, str], ...]  # (column, kind) in schema order
    sizes: dict  # rows per file: train, test, score, and the small warm-up train
    make_row: Callable[[Rng], dict]
    trainer_doc: Callable[[int], str]
    transform_doc: str | None = None


# mixed-cart: numeric columns on very different, un-normalised scales, so
# a z-score transform moves every threshold far away from the raw values.
_COLORS = ("red", "green", "blue", "amber", "violet")
_REGIONS = tuple(f"r{i}" for i in range(8))
_NOTE_WORDS = tuple(
    "late early paid open closed urgent minor repeat online store phone mail "
    "refund bonus audit credit debit local remote alpha beta gamma delta north "
    "south east west small large fresh stale quick slow prime basic extra plain "
    "gold silver bronze iron".split()
)
_COLOR_EFFECT = {"red": (0.6, 0.0, -0.6), "green": (0.0, 0.5, 0.0), "blue": (-0.5, 0.0, 0.5),
                 "amber": (0.0, 0.0, 0.0), "violet": (0.2, -0.2, 0.0)}
_CART_LABELS = ("high", "low", "mid")


def _mixed_row(rng: Rng) -> dict:
    amount = 5000.0 + 1500.0 * rng.normal()
    ratio = 0.02 * rng.uniform()
    age = 18 + rng.below(73)
    temp = -40.0 + 10.0 * rng.normal()
    color = _COLORS[rng.below(len(_COLORS))]
    region = _REGIONS[rng.below(len(_REGIONS))]
    notes = " ".join(_NOTE_WORDS[rng.below(len(_NOTE_WORDS))] for _ in range(2 + rng.below(4)))
    za, zr, zg, zt = (amount - 5000.0) / 1500.0, ratio / 0.01 - 1.0, (age - 54) / 21.0, (temp + 40.0) / 10.0
    effect = _COLOR_EFFECT[color]
    scores = (
        1.4 * za + 0.8 * zt + effect[0] + 0.5 * rng.normal(),
        -1.2 * za + 1.0 * zr + effect[1] + 0.5 * rng.normal(),
        0.9 * zg - 0.8 * zt + effect[2] + 0.5 * rng.normal(),
    )
    label = _CART_LABELS[max(range(3), key=lambda k: scores[k])]
    return {
        "amount": f"{amount:.2f}",
        "ratio": f"{ratio:.6f}",
        "age": str(age),
        "temp": f"{temp:.1f}",
        "color": color,
        "region": region,
        "notes": notes,
        "label": label,
    }


def _mixed_trainer(seed: int) -> str:
    return _doc(("pvml.CartTrainer-0", "pvml.CartTrainer", _cart_props(5, 2, 1.0, _trainer_seed(seed, 1))))


MIXED_CART = Workload(
    name="mixed-cart",
    task="categorical",
    response="label",
    columns=(
        ("amount", "numeric"), ("ratio", "numeric"), ("age", "numeric"), ("temp", "numeric"),
        ("color", "categorical"), ("region", "categorical"), ("notes", "text"),
    ),
    sizes={"train": 200, "test": 600, "score": 1200, "warm": 40},
    make_row=_mixed_row,
    trainer_doc=_mixed_trainer,
    transform_doc=_doc(
        ("pvml.ZScoreTransform-0", "pvml.ZScoreTransform", {"features": _v("str", "*")})
    ),
)


# sparse-sgd: one text column over a large vocabulary.  Each class owns a
# slice of the vocabulary; half of a row's tokens come from its class slice.
_VOCAB = 3200
_SGD_CLASSES = ("c0", "c1", "c2", "c3")
_SLICE = _VOCAB // len(_SGD_CLASSES)
_GLOBAL_CDF = _zipf_cdf(_VOCAB)
_SLICE_CDF = _zipf_cdf(_SLICE)
_COMMON = 10  # every row carries one of the ten commonest tokens


def _token(i: int) -> str:
    return f"t{i:04d}"


def _sparse_row(rng: Rng) -> dict:
    k = rng.below(len(_SGD_CLASSES))
    tokens = [_token(rng.below(_COMMON))]
    for _ in range(24 + rng.below(12)):
        if rng.uniform() < 0.5:
            tokens.append(_token(k * _SLICE + rng.pick_cdf(_SLICE_CDF)))
        else:
            tokens.append(_token(rng.pick_cdf(_GLOBAL_CDF)))
    return {"text": " ".join(tokens), "topic": _SGD_CLASSES[k]}


def _sparse_trainer(seed: int) -> str:
    return _doc(
        (
            "pvml.LinearSgdTrainer-0",
            "pvml.LinearSgdTrainer",
            {
                "objective": _v("str", "logistic"),
                "optimizer": _v("ref", "pvml.AdaGrad-1"),
                "epochs": _v("int", 3),
                "batch-size": _v("int", 32),
                "seed": _v("int", _trainer_seed(seed, 2)),
            },
        ),
        ("pvml.AdaGrad-1", "pvml.AdaGrad", {"lr": _v("flt", 0.5), "eps": _v("flt", 1e-08)}),
    )


SPARSE_SGD = Workload(
    name="sparse-sgd",
    task="categorical",
    response="topic",
    columns=(("text", "text"),),
    sizes={"train": 600, "test": 300, "score": 1200, "warm": 40},
    make_row=_sparse_row,
    trainer_doc=_sparse_trainer,
)


# forest-regress: numeric columns plus a many-level categorical column, so
# every member container repeats a sizeable feature domain.
_STATIONS = tuple(f"s{i:02d}" for i in range(40))
_KINDS = ("flat", "hill", "coast", "urban")
_KIND_EFFECT = {"flat": 0.0, "hill": 1.5, "coast": -1.0, "urban": 0.5}


def _forest_row(rng: Rng) -> dict:
    x1 = rng.uniform() * 10.0
    x2 = 300.0 + 50.0 * rng.normal()
    x3 = 0.001 * rng.uniform()
    x4 = rng.normal()
    station = rng.below(len(_STATIONS))
    kind = _KINDS[rng.below(len(_KINDS))]
    y = (
        3.0 * math.sin(x1 / 2.0)
        + 0.02 * (x2 - 300.0)
        + 2000.0 * x3
        + x4 * x4
        + _KIND_EFFECT[kind]
        + 0.05 * (station % 7)
        + 0.5 * rng.normal()
    )
    return {
        "x1": f"{x1:.4f}",
        "x2": f"{x2:.2f}",
        "x3": f"{x3:.7f}",
        "x4": f"{x4:.4f}",
        "station": _STATIONS[station],
        "kind": kind,
        "y": f"{y:.4f}",
    }


def _forest_trainer(seed: int) -> str:
    return _doc(
        (
            "pvml.EnsembleTrainer-0",
            "pvml.EnsembleTrainer",
            {
                "variant": _v("str", "random-forest"),
                "num-members": _v("int", 6),
                "sample-fraction": _v("flt", 1.0),
                "with-replacement": _v("bool", True),
                "seed": _v("int", _trainer_seed(seed, 3)),
                "base-trainer": _v("ref", "pvml.CartTrainer-1"),
            },
        ),
        ("pvml.CartTrainer-1", "pvml.CartTrainer", _cart_props(6, 3, 0.35, _trainer_seed(seed, 4))),
    )


FOREST_REGRESS = Workload(
    name="forest-regress",
    task="real",
    response="y",
    columns=(
        ("x1", "numeric"), ("x2", "numeric"), ("x3", "numeric"), ("x4", "numeric"),
        ("station", "categorical"), ("kind", "categorical"),
    ),
    sizes={"train": 160, "test": 400, "score": 800, "warm": 40},
    make_row=_forest_row,
    trainer_doc=_forest_trainer,
)

WORKLOADS = {w.name: w for w in (MIXED_CART, SPARSE_SGD, FOREST_REGRESS)}


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Inputs:
    """Relative paths (from the repository root) of one workload's files."""

    dir: str
    train: str
    test: str
    score: str
    schema: str
    trainer: str
    transform: str | None
    warm_train: str
    warm_test: str


def _write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[c] for c in header])


def write_inputs(workload: Workload, seed: int, out_dir: str) -> Inputs:
    """Generate every input file of one workload under ``out_dir``.

    The training rows of sparse-sgd start with one row per common token,
    so every scored row shares at least one feature with the model.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = Rng(seed ^ _mix64(sum(map(ord, workload.name))))
    rows = {part: [workload.make_row(rng) for _ in range(n)] for part, n in workload.sizes.items()}
    if workload is SPARSE_SGD:
        for i in range(_COMMON):
            rows["train"][i]["text"] = f"{_token(i)} {rows['train'][i]['text']}"
    features = [c for c, _ in workload.columns]
    labelled = features + [workload.response]
    p = lambda name: os.path.join(out_dir, name)  # noqa: E731
    _write_csv(p("train.csv"), labelled, rows["train"])
    _write_csv(p("test.csv"), labelled, rows["test"])
    _write_csv(p("score.csv"), features, rows["score"])
    _write_csv(p("warm-train.csv"), labelled, rows["warm"])
    _write_csv(p("warm-test.csv"), labelled, rows["warm"][: len(rows["warm"]) // 2])
    with open(p("schema.json"), "w", encoding="utf-8") as fh:
        fh.write(schema_doc(workload.response, workload.task, workload.columns))
    with open(p("trainer.json"), "w", encoding="utf-8") as fh:
        fh.write(workload.trainer_doc(seed))
    transform = None
    if workload.transform_doc is not None:
        transform = p("transform.json")
        with open(transform, "w", encoding="utf-8") as fh:
            fh.write(workload.transform_doc)
    return Inputs(
        out_dir, p("train.csv"), p("test.csv"), p("score.csv"), p("schema.json"),
        p("trainer.json"), transform, p("warm-train.csv"), p("warm-test.csv"),
    )
