"""Reconstruction from configuration, full reproduction, and provenance diff."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvml.core import build_dataset
from pvml.data import TransformSpec, apply_transformers, fit_transformers, load_csv
from pvml.ensemble import ADABOOST, BAGGING, RANDOM_FOREST, EnsembleConfig, EnsembleTrainer
from pvml.errors import MissingProperty, ReproductionMismatch, ResourceChanged, UnknownClass
from pvml.optimize import Adam, AdaGrad, LinearSgdTrainer, Sgd
from pvml.provenance import (
    PBool,
    PFlt,
    PInt,
    PMap,
    PStr,
    PTimestamp,
    canonical_encode,
    extract_configuration,
    object_provenance,
    provenance_hash,
)
from pvml.repro import (
    diff_provenance,
    reconstruct_source,
    reconstruct_trainer,
    reproduce_model,
)
from pvml.trees import EXHAUSTIVE, RANDOM_THRESHOLD, CartTrainer, TreeConfig

from test_provenance import prov_values


class TestReconstructSource:
    def test_csv_source_round_trip(self, clf_csv):
        path, schema = clf_csv
        source = load_csv(str(path), schema)
        rebuilt = reconstruct_source(extract_configuration(source.provenance))
        assert list(rebuilt) == list(source)

    def test_unregistered_class(self):
        prov = object_provenance("mystery.Loader", config={"path": PStr("x")}, instance={})
        with pytest.raises(UnknownClass):
            reconstruct_source(extract_configuration(prov))

    def test_changed_file_detected(self, clf_csv):
        path, schema = clf_csv
        source = load_csv(str(path), schema)
        recorded = source.provenance.instance["data-hash"].digest
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("9.0,9.0,red,a\n")
        with pytest.raises(ResourceChanged):
            reconstruct_source(
                extract_configuration(source.provenance), expected_data_hash=recorded
            )

    def test_hash_check_passes_for_untouched_file(self, clf_csv):
        path, schema = clf_csv
        source = load_csv(str(path), schema)
        recorded = source.provenance.instance["data-hash"].digest
        rebuilt = reconstruct_source(
            extract_configuration(source.provenance), expected_data_hash=recorded
        )
        assert list(rebuilt) == list(source)


@dataclass(frozen=True)
class _StumpConfig:
    min_gain: float
    with_bias: bool = True
    seed: int = 0


class TestReconstructTrainer:
    def test_linear_trainer_round_trip(self):
        trainer = LinearSgdTrainer("logistic", AdaGrad(0.25, eps=1e-7), 12, 5, seed=99)
        rebuilt = reconstruct_trainer(trainer.provenance())
        assert rebuilt.provenance().config == trainer.provenance().config

    def test_round_trip_via_records(self):
        trainer = CartTrainer(TreeConfig(max_depth=5, min_examples_per_leaf=2, seed=7))
        records = extract_configuration(trainer.provenance())
        rebuilt = reconstruct_trainer(records)
        assert rebuilt.provenance().config == trainer.provenance().config

    def test_invocation_count_restored_from_provenance(self, interleaved_dataset):
        trainer = CartTrainer(TreeConfig(max_depth=2, seed=7))
        trainer.train(interleaved_dataset)
        trainer.train(interleaved_dataset)
        model = trainer.train(interleaved_dataset)  # third call records count 2
        tp = model.provenance.config["trainer"]
        rebuilt = reconstruct_trainer(tp)
        assert rebuilt.invocation_count == 2

    def test_ensemble_nesting(self):
        cfg = EnsembleConfig(
            CartTrainer(TreeConfig(max_depth=3, seed=1)), num_members=4, seed=2, variant=BAGGING
        )
        trainer = EnsembleTrainer(cfg)
        rebuilt = reconstruct_trainer(trainer.provenance())
        assert isinstance(rebuilt, EnsembleTrainer)
        assert isinstance(rebuilt.cfg.base_trainer, CartTrainer)
        assert rebuilt.provenance().config == trainer.provenance().config
        # and the configuration-record path reaches the same trainer
        via_records = reconstruct_trainer(extract_configuration(trainer.provenance()))
        assert via_records.provenance().config == trainer.provenance().config

    def test_missing_property(self):
        prov = object_provenance(
            "pvml.CartTrainer",
            config={"max-depth": PInt(3)},  # everything else missing
            instance={"invocation-count": PInt(0)},
        )
        with pytest.raises(MissingProperty):
            reconstruct_trainer(prov)

    def test_unknown_trainer_class(self):
        prov = object_provenance("mystery.Trainer", config={}, instance={})
        with pytest.raises(UnknownClass):
            reconstruct_trainer(prov)


_SEEDS = st.integers(min_value=-(2**63), max_value=2**64 - 1)
_COUNTS = st.integers(min_value=1, max_value=2**63 - 1)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)

_OPTIMIZERS = st.one_of(
    st.builds(Sgd, _POSITIVE),
    st.builds(AdaGrad, _POSITIVE, st.floats(min_value=0.0, allow_infinity=False)),
    st.builds(Adam, _POSITIVE, _UNIT, _UNIT, _POSITIVE),
)


def _cart_trainers(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True)):
    return st.builds(
        lambda *args: CartTrainer(TreeConfig(*args)),
        _COUNTS,
        _COUNTS,
        st.floats(min_value=0.0, allow_infinity=False),
        fraction,
        st.sampled_from((EXHAUSTIVE, RANDOM_THRESHOLD)),
        _SEEDS,
    )


_LINEAR_TRAINERS = st.builds(
    LinearSgdTrainer, st.sampled_from(("logistic", "squared")), _OPTIMIZERS, _COUNTS, _COUNTS, _SEEDS
)


@st.composite
def _ensemble_trainers(draw):
    variant = draw(st.sampled_from((BAGGING, RANDOM_FOREST, ADABOOST)))
    if variant == RANDOM_FOREST:
        base = draw(_cart_trainers(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)))
    else:
        base = draw(st.one_of(_cart_trainers(), _LINEAR_TRAINERS))
    fraction = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    return EnsembleTrainer(EnsembleConfig(base, draw(_COUNTS), draw(_SEEDS), fraction, draw(st.booleans()), variant))


class TestConfigurationRoundTrip:
    @given(st.one_of(_cart_trainers(), _LINEAR_TRAINERS, _ensemble_trainers()), st.integers(0, 2**63 - 1))
    @settings(max_examples=300, deadline=None)
    def test_random_valid_configs_round_trip(self, trainer, count):
        trainer.set_invocation_count(count)
        via_records = reconstruct_trainer(extract_configuration(trainer.provenance()))
        assert via_records.provenance().config == trainer.provenance().config
        assert canonical_encode(reconstruct_trainer(trainer.provenance()).provenance()) == canonical_encode(
            trainer.provenance()
        )


def _train_fixture_model(path, schema, trainer):
    ds = build_dataset(load_csv(str(path), schema))
    ds = apply_transformers(ds, fit_transformers(ds, TransformSpec("zscore")))
    return ds, trainer.train(ds)


class TestReproduceModel:
    def test_csv_adagrad_pipeline(self, clf_csv):
        path, schema = clf_csv
        trainer = LinearSgdTrainer("logistic", AdaGrad(0.3), 25, 4, seed=13)
        ds, model = _train_fixture_model(path, schema, trainer)
        rebuilt = reproduce_model(model.provenance)
        assert provenance_hash(rebuilt.provenance) == provenance_hash(model.provenance)
        assert np.array_equal(rebuilt.weights, model.weights)

    def test_reproduction_after_edit_fails(self, clf_csv):
        path, schema = clf_csv
        trainer = CartTrainer(TreeConfig(max_depth=3, seed=4))
        _, model = _train_fixture_model(path, schema, trainer)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("5.0,5.0,red,a\n")
        with pytest.raises(ResourceChanged):
            reproduce_model(model.provenance)

    def test_ensemble_member_hashes_preserved(self, clf_csv):
        path, schema = clf_csv
        cfg = EnsembleConfig(
            CartTrainer(TreeConfig(max_depth=2, feature_subsampling_fraction=0.5, seed=3)),
            num_members=5,
            seed=11,
            variant="random-forest",
        )
        ds, model = _train_fixture_model(path, schema, EnsembleTrainer(cfg))
        rebuilt = reproduce_model(model.provenance)
        original = [provenance_hash(p) for p in model.provenance.instance["members"].items]
        reproduced = [provenance_hash(p) for p in rebuilt.provenance.instance["members"].items]
        assert original == reproduced

    def test_inconsistent_provenance_raises_mismatch(self, clf_csv):
        path, schema = clf_csv
        trainer = CartTrainer(TreeConfig(max_depth=3, seed=4))
        _, model = _train_fixture_model(path, schema, trainer)
        # claim the dataset had a different size than the source really yields
        mp = model.provenance
        data = mp.instance["data"]
        forged_data = object_provenance(
            data.class_name,
            config=dict(data.config.entries),
            instance={**dict(data.instance.entries), "num-examples": PInt(999)},
        )
        forged = object_provenance(
            mp.class_name,
            config=dict(mp.config.entries),
            instance={**dict(mp.instance.entries), "data": forged_data},
        )
        with pytest.raises(ReproductionMismatch):
            reproduce_model(forged)


class _RangeSource:
    """A loader class outside the library namespace, for registry tests."""

    CLASS = "ext.RangeSource"

    def __init__(self, n: int):
        self.n = n
        self.provenance = object_provenance(
            self.CLASS,
            config={"n": PInt(n)},
            instance={},
        )

    def __iter__(self):
        from pvml.core import CategoricalOutput, make_example

        for i in range(self.n):
            label = "even" if i % 2 == 0 else "odd"
            yield make_example([("x", float(i))], CategoricalOutput(label))


class TestOpenWorldRegistries:
    def test_user_loader_class_round_trips(self):
        from pvml.repro import register_loader_class

        register_loader_class(_RangeSource.CLASS, lambda props: _RangeSource(props.value("n")))
        source = _RangeSource(6)
        rebuilt = reconstruct_source(extract_configuration(source.provenance))
        assert list(rebuilt) == list(source)

    def test_user_trainer_class_round_trips(self, interleaved_dataset):
        from pvml.repro import register_trainer_class

        class StumpTrainer(CartTrainer):
            trainer_class = "ext.StumpTrainer"

            def __init__(self, seed: int):
                super().__init__(TreeConfig(max_depth=1, seed=seed))

        register_trainer_class(
            "ext.StumpTrainer",
            lambda props: StumpTrainer(seed=props.value("seed")),
        )
        trainer = StumpTrainer(seed=3)
        model = trainer.train(interleaved_dataset)
        rebuilt = reconstruct_trainer(model.provenance.config["trainer"])
        assert isinstance(rebuilt, StumpTrainer)
        assert rebuilt.provenance().config == trainer.provenance().config

    def test_user_config_dataclass_is_declared_once(self):
        from pvml.core import Trainer
        from pvml.repro import register_trainer_class

        class StumpTrainer(Trainer):
            trainer_class = "ext.ConfiguredStump"

            def __init__(self, cfg: _StumpConfig):
                super().__init__(cfg.seed)
                self.cfg = cfg

            def train_with_count(self, dataset, count, user_info=None):
                raise NotImplementedError

        register_trainer_class("ext.ConfiguredStump", lambda props: StumpTrainer(props.read(_StumpConfig)))
        trainer = StumpTrainer(_StumpConfig(0.5, with_bias=False, seed=-1))
        assert trainer.provenance().config == PMap(
            {"min-gain": PFlt(0.5), "with-bias": PBool(False), "seed": PInt(-1)}
        )
        rebuilt = reconstruct_trainer(extract_configuration(trainer.provenance()))
        assert rebuilt.cfg == _StumpConfig(0.5, with_bias=False, seed=2**64 - 1)


class TestDiffProvenance:
    def test_identical_trees_diff_empty(self):
        v = object_provenance("demo.Thing", config={"a": PInt(1)}, instance={"b": PInt(2)})
        assert diff_provenance(v, v) == []

    def test_timestamp_only_differences_tagged_volatile(self):
        def fixture(sec):
            return object_provenance(
                "demo.Thing",
                config={"lr": PFlt(0.1)},
                instance={"loaded-at": PTimestamp(sec, 0)},
            )

        entries = diff_provenance(fixture(1), fixture(2))
        assert len(entries) == 1
        assert entries[0].path == "instance/loaded-at"
        assert entries[0].volatile

    def test_config_difference_not_volatile(self):
        a = object_provenance("demo.Thing", config={"lr": PFlt(0.1)}, instance={})
        b = object_provenance("demo.Thing", config={"lr": PFlt(0.2)}, instance={})
        entries = diff_provenance(a, b)
        assert len(entries) == 1
        assert entries[0].path == "config/lr"
        assert not entries[0].volatile

    def test_missing_keys_reported(self):
        a = object_provenance("demo.Thing", config={"lr": PFlt(0.1)}, instance={})
        b = object_provenance("demo.Thing", config={}, instance={})
        entries = diff_provenance(a, b)
        assert entries[0].left == PFlt(0.1) and entries[0].right is None

    @given(prov_values(max_leaves=8), prov_values(max_leaves=8))
    @settings(max_examples=200, deadline=None)
    def test_empty_diff_iff_equal_encoding(self, a, b):
        empty = diff_provenance(a, b) == []
        same = canonical_encode(a) == canonical_encode(b)
        assert empty == same
