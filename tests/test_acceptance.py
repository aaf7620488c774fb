"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are fixed here, not configurable.
"""

import contextlib
import hashlib
import random
import time

import numpy as np
import pytest

from pvml.core import (
    CATEGORICAL,
    CategoricalOutput,
    build_dataset,
    make_example,
)
from pvml.data import (
    ColumnarSchema,
    FieldProcessor,
    InMemoryDataSource,
    TransformSpec,
    apply_transformers,
    fit_transformers,
    load_csv,
)
from pvml.ensemble import ADABOOST, RANDOM_FOREST, EnsembleConfig, EnsembleTrainer, train_ensemble
from pvml.errors import NoFeatureOverlap, TaskMismatch
from pvml.optimize import (
    Adam,
    AdaGrad,
    LinearSgdTrainer,
    train_linear_sgd,
)
from pvml.persist import load_model, save_model
from pvml.provenance import (
    PBool,
    PFlt,
    PHash,
    PInt,
    PList,
    PMap,
    PStr,
    PTimestamp,
    canonical_encode,
    object_provenance,
    parse_provenance,
    provenance_hash,
    serialize_provenance,
)
from pvml.rng import Xoshiro256StarStar
from pvml.trees import CartTrainer, TreeConfig, _Row, best_split, train_cart

from test_ensemble import assert_members_trained_alone, ensemble_bytes
from test_optimize import logistic_loss, squared_loss
from test_provenance import _model_fixture
from test_trees import _brute_force_split


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number} PASS: {title}")


# ---------------------------------------------------------------------------
# 1. Provenance round-trip and hash invariance (10,000 trees, < 30 s)
# ---------------------------------------------------------------------------

def _random_prov_value(rnd: random.Random, depth: int):
    if depth <= 0 or rnd.random() < 0.55:
        pick = rnd.randrange(6)
        if pick == 0:
            return PStr("".join(rnd.choices("abcxyz0189 @/#", k=rnd.randrange(0, 9))))
        if pick == 1:
            return PInt(rnd.randrange(-(2**63), 2**63))
        if pick == 2:
            return PFlt(rnd.uniform(-1e9, 1e9))
        if pick == 3:
            return PBool(rnd.random() < 0.5)
        if pick == 4:
            return PTimestamp(rnd.randrange(0, 2**40), rnd.randrange(0, 10**9))
        return PHash("SHA-256", "".join(rnd.choices("0123456789abcdef", k=16)))
    pick = rnd.randrange(3)
    children = [_random_prov_value(rnd, depth - 1) for _ in range(rnd.randrange(0, 4))]
    if pick == 0:
        return PList(tuple(children))
    if pick == 1:
        keys = rnd.sample("abcdefghij", k=len(children))
        return PMap(dict(zip(keys, children)))
    fields = {f"k{i}": child for i, child in enumerate(children)}
    return object_provenance(  # even keys configure, odd ones are instance values
        "cls" + str(rnd.randrange(5)),
        config={k: v for i, (k, v) in enumerate(fields.items()) if i % 2 == 0},
        instance={k: v for i, (k, v) in enumerate(fields.items()) if i % 2},
    )


def test_criterion_1_provenance_round_trip():
    with criterion(1, "10,000 provenance trees round-trip; hash ignores order and volatility"):
        started = time.monotonic()
        rnd = random.Random(20250)
        for _ in range(10_000):
            value = _random_prov_value(rnd, depth=3)
            assert parse_provenance(serialize_provenance(value)) == value

        for _ in range(200):
            n = rnd.randrange(1, 8)
            keys = rnd.sample("abcdefghijklmnop", k=n)
            entries = [(k, _random_prov_value(rnd, 1)) for k in keys]
            shuffled = entries[:]
            rnd.shuffle(shuffled)
            assert provenance_hash(PMap(entries)) == provenance_hash(PMap(shuffled))

        base = _model_fixture(seconds=100, os_name="Linux", user={})
        for mutated in (
            _model_fixture(seconds=424242, os_name="Linux", user={}),
            _model_fixture(seconds=100, os_name="SomethingElse", user={}),
            _model_fixture(seconds=100, os_name="Linux", user={"k": "v", "x": "y"}),
        ):
            assert provenance_hash(mutated) == provenance_hash(base)

        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_1_corpus_bytes_and_hashes_pinned():
    # digest of the canonical bytes and hashes of the corpus above, recorded
    # before map lookups were indexed and again, by the same code, once the
    # corpus's objects were split into configuration and instance values
    rnd = random.Random(20250)
    digest = hashlib.sha256()
    for _ in range(10_000):
        value = _random_prov_value(rnd, depth=3)
        digest.update(canonical_encode(value))
        digest.update(provenance_hash(value).encode())
    assert digest.hexdigest() == "070e4c7ebcce97829d9759a3948b8041ac2c5b8ceb0aa8a0fb734fe3828c1b48"


# ---------------------------------------------------------------------------
# 2. Reproducibility of every fixture pipeline (< 60 s total)
# ---------------------------------------------------------------------------

CLASSIFICATION_LABELS = ["a", "a", "b", "b", "a", "a", "b", "b", "a", "a"]


def _write_classification_fixture(path) -> None:
    # interleaved pattern in f1 keeps stumps imperfect, so boosting iterates
    lines = ["f1,f2,f3,color,label"]
    colors = ["red", "blue", "green", "red"]
    for row in range(40):
        slot = row % 10
        f1 = float(slot + 1)
        f2 = round(0.25 * ((row * 7) % 11) - 1.0, 4)
        f3 = round(0.5 * ((row * 3) % 5), 4)
        lines.append(f"{f1},{f2},{f3},{colors[row % 4]},{CLASSIFICATION_LABELS[slot]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_regression_fixture(path) -> None:
    lines = ["f1,f2,y"]
    for row in range(30):
        f1 = round((row % 10) * 0.5, 4)
        f2 = round(((row * 3) % 7) * 0.25, 4)
        y = round(2.0 * f1 - f2 + 0.5, 4)
        lines.append(f"{f1},{f2},{y}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _clf_schema():
    return ColumnarSchema(
        "label",
        "categorical",
        (
            FieldProcessor("f1", "numeric"),
            FieldProcessor("f2", "numeric"),
            FieldProcessor("f3", "numeric"),
            FieldProcessor("color", "categorical"),
        ),
    )


def _reg_schema():
    return ColumnarSchema(
        "y", "real", (FieldProcessor("f1", "numeric"), FieldProcessor("f2", "numeric"))
    )


def _pipeline_dataset(csv_path, schema):
    ds = build_dataset(load_csv(str(csv_path), schema))
    return apply_transformers(ds, fit_transformers(ds, TransformSpec("zscore")))


def _fixture_trainers():
    return {
        "logistic-adagrad": LinearSgdTrainer("logistic", AdaGrad(0.3), 20, 8, seed=101),
        "cart": CartTrainer(TreeConfig(max_depth=4, seed=102)),
        "random-forest": EnsembleTrainer(
            EnsembleConfig(
                CartTrainer(TreeConfig(max_depth=3, feature_subsampling_fraction=0.5, seed=103)),
                num_members=10,
                seed=104,
                variant=RANDOM_FOREST,
            )
        ),
        "adaboost": EnsembleTrainer(
            EnsembleConfig(
                CartTrainer(TreeConfig(max_depth=1, seed=105)),
                num_members=10,
                seed=106,
                variant=ADABOOST,
            )
        ),
    }


def test_criterion_2_reproducibility(tmp_path):
    from pvml.repro import reproduce_model

    with criterion(2, "every fixture pipeline reproduces hash- and prediction-identically"):
        started = time.monotonic()
        clf_csv = tmp_path / "clf.csv"
        reg_csv = tmp_path / "reg.csv"
        _write_classification_fixture(clf_csv)
        _write_regression_fixture(reg_csv)

        runs = [
            (name, _pipeline_dataset(clf_csv, _clf_schema()), trainer)
            for name, trainer in _fixture_trainers().items()
        ]
        runs.append(
            ("linear-adam", _pipeline_dataset(reg_csv, _reg_schema()),
             LinearSgdTrainer("squared", Adam(0.01), 30, 10, seed=107))
        )

        for name, dataset, trainer in runs:
            model = trainer.train(dataset)
            rebuilt = reproduce_model(model.provenance)
            assert provenance_hash(rebuilt.provenance) == provenance_hash(model.provenance), name
            for ex in dataset.examples:
                a, b = model.predict(ex), rebuilt.predict(ex)
                assert a.output == b.output, name
                assert a.scores == b.scores, name

        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. Gradient checks against central finite differences
# ---------------------------------------------------------------------------

def _finite_difference(loss_fn, params, h=1e-5):
    grad = np.zeros_like(params)
    for idx in np.ndindex(params.shape):
        plus, minus = params.copy(), params.copy()
        plus[idx] += h
        minus[idx] -= h
        grad[idx] = (loss_fn(plus) - loss_fn(minus)) / (2 * h)
    return grad


def test_criterion_3_gradient_checks():
    with criterion(3, "analytic gradients match finite differences within 1e-6 relative"):
        rng = Xoshiro256StarStar(424242)
        for trial in range(100):
            n_features = 1 + rng.next_below(10)
            names = [f"f{i}" for i in range(n_features)]
            classification = trial % 2 == 0
            labels = tuple(f"c{i}" for i in range(2 + rng.next_below(4))) if classification else None

            examples = []
            for _ in range(2 + rng.next_below(5)):
                pairs = [(n, rng.next_float() * 4 - 2) for n in names if rng.next_float() < 0.8]
                if not pairs:
                    pairs = [(names[0], rng.next_float())]
                weight = 0.5 + rng.next_float()
                if classification:
                    output = CategoricalOutput(labels[rng.next_below(len(labels))])
                else:
                    from pvml.core import RealOutput

                    output = RealOutput(rng.next_float() * 2 - 1)
                examples.append(make_example(pairs, output, weight))

            domain = build_dataset(InMemoryDataSource(examples)).feature_domain
            k = len(labels) if classification else 1
            params = np.array(
                [[rng.next_float() - 0.5 for _ in range(k)] for _ in range(len(domain) + 1)]
            )
            if classification:
                _, analytic = logistic_loss(params, examples, domain, labels)
                numeric = _finite_difference(
                    lambda p: logistic_loss(p, examples, domain, labels)[0], params
                )
            else:
                _, analytic = squared_loss(params, examples, domain)
                numeric = _finite_difference(
                    lambda p: squared_loss(p, examples, domain)[0], params
                )
            scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
            assert np.all(np.abs(analytic - numeric) / scale < 1e-6)


# ---------------------------------------------------------------------------
# 4. Exhaustive split search equals brute force on 200 random datasets
# ---------------------------------------------------------------------------

def test_criterion_4_split_oracle_equivalence():
    with criterion(4, "exhaustive best_split equals brute force on 200 datasets"):
        rng = Xoshiro256StarStar(777)
        cfg = TreeConfig(max_depth=3, min_examples_per_leaf=1)
        for trial in range(200):
            task = CATEGORICAL if trial % 2 == 0 else "real"
            n = 2 + rng.next_below(19)  # up to 20 examples
            n_features = 1 + rng.next_below(5)
            rows = []
            for _ in range(n):
                values = {
                    fid: rng.next_below(9) / 2.0  # dyadic grid keeps sums exact
                    for fid in range(n_features)
                    if rng.next_float() < 0.85
                }
                if task == CATEGORICAL:
                    target = ("x", "y", "z")[rng.next_below(3)]
                else:
                    target = rng.next_below(7) / 2.0
                rows.append(_Row(values, target, 1.0))
            candidates = list(range(n_features))
            expected = _brute_force_split(rows, candidates, cfg, task)
            actual = best_split(rows, candidates, cfg, task)
            if expected is None:
                assert actual is None
            else:
                assert (actual.feature_id, actual.threshold) == expected[:2]
                assert abs(actual.impurity_decrease - expected[2]) <= 1e-12


# ---------------------------------------------------------------------------
# 5. Desk-scale learning
# ---------------------------------------------------------------------------

def test_criterion_5_desk_scale_learning(separable_dataset, xor_dataset, interleaved_dataset):
    with criterion(5, "separable logistic 100%; XOR tree exact; boosting error non-increasing"):
        logistic = train_linear_sgd(
            separable_dataset, "logistic", AdaGrad(0.5), epochs=100, batch_size=10, shuffle_seed=3
        )
        assert all(
            logistic.predict(ex).output == ex.output for ex in separable_dataset.examples
        )

        tree = train_cart(xor_dataset, TreeConfig(max_depth=2))
        assert all(tree.predict(ex).output == ex.output for ex in xor_dataset.examples)

        def boost_error(m):
            cfg = EnsembleConfig(
                CartTrainer(TreeConfig(max_depth=1, seed=5)), m, 21, variant=ADABOOST
            )
            ensemble = train_ensemble(interleaved_dataset, cfg)
            wrong = sum(
                1 for ex in interleaved_dataset.examples if ensemble.predict(ex).output != ex.output
            )
            return wrong / len(interleaved_dataset.examples)

        e1, e5, e10 = (boost_error(m) for m in (1, 5, 10))
        assert e1 >= e5 >= e10


# ---------------------------------------------------------------------------
# 6. Inference-time contract checks
# ---------------------------------------------------------------------------

def test_criterion_6_contract_checks(tmp_path, clf_csv):
    with criterion(6, "overlap, dropping, task-on-load, and range warnings enforced"):
        path, schema = clf_csv
        dataset = build_dataset(load_csv(str(path), schema))
        model = train_cart(dataset, TreeConfig(max_depth=3, seed=1))

        with pytest.raises(NoFeatureOverlap):
            model.predict(make_example([("never-seen", 1.0)]))

        pred = model.predict(make_example([("f1", 0.5), ("alien", 9.0)]))
        assert pred.features_used == 1 and pred.features_total == 2

        out = tmp_path / "model.pvml"
        save_model(model, str(out))
        with pytest.raises(TaskMismatch):
            load_model(str(out), "real")

        f1_max = dataset.feature_domain.max[dataset.feature_domain.ids["f1"]]
        warned = model.predict(make_example([("f1", f1_max + 100.0)]))
        assert "out-of-range:f1" in warned.warnings


# ---------------------------------------------------------------------------
# 7. Transformation correctness
# ---------------------------------------------------------------------------

def test_criterion_7_transformations(tmp_path):
    with criterion(7, "z-scored features have zero mean, unit variance; provenance grows"):
        csv_path = tmp_path / "clf.csv"
        _write_classification_fixture(csv_path)
        dataset = build_dataset(load_csv(str(csv_path), _clf_schema()))

        fitted = fit_transformers(dataset, TransformSpec("zscore"))
        transformed = apply_transformers(dataset, fitted)
        degenerate = {w.split(":", 1)[1] for w in fitted.warnings}
        for name in transformed.feature_domain.names():
            if name in degenerate:
                continue
            fid = transformed.feature_domain.ids[name]
            assert abs(transformed.feature_domain.mean[fid]) < 1e-9
            assert abs(transformed.feature_domain.variance[fid] - 1.0) < 1e-9

        def transformations(ds):
            return ds.provenance.instance["transformations"]

        assert len(transformations(transformed)) == len(transformations(dataset)) + 1
        again = apply_transformers(transformed, fit_transformers(transformed, TransformSpec("minmax")))
        assert len(transformations(again)) == len(transformations(transformed)) + 1


# ---------------------------------------------------------------------------
# 8. Ensemble members are independent of execution order
# ---------------------------------------------------------------------------

def test_criterion_8_parallel_equals_serial(tmp_path):
    with criterion(8, "every ensemble member equals the member trained alone from its seed and count"):
        csv_path = tmp_path / "clf.csv"
        _write_classification_fixture(csv_path)
        dataset = _pipeline_dataset(csv_path, _clf_schema())

        def run():
            cfg = EnsembleConfig(
                CartTrainer(TreeConfig(max_depth=3, feature_subsampling_fraction=0.5, seed=61)),
                num_members=10,
                seed=62,
                variant=RANDOM_FOREST,
            )
            return cfg, train_ensemble(dataset, cfg)

        cfg, first = run()
        assert_members_trained_alone(dataset, cfg, first)
        _, second = run()
        assert ensemble_bytes(first) == ensemble_bytes(second)
        for ex in dataset.examples:
            assert first.predict(ex) == second.predict(ex)
