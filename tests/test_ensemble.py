"""Bagging/random-forest/AdaBoost training, combination, and provenance."""

import json
import math

import numpy as np

import pytest

from pvml.core import (
    CategoricalOutput,
    Prediction,
    RealOutput,
    build_dataset,
    make_example,
)
from pvml.data import InMemoryDataSource, load_csv
from pvml.ensemble import (
    ADABOOST,
    BAGGING,
    RANDOM_FOREST,
    EnsembleConfig,
    EnsembleModel,
    _index_list_encoding,
    bootstrap_sample,
    combine,
    train_ensemble,
)
from pvml.errors import AllMembersRejected, EmptySource, FormatError, InconsistentTask, TaskMismatch
from pvml.optimize import LinearSgdTrainer, Sgd, train_linear_sgd
from pvml.persist import load_model, model_to_container, save_model
from pvml.provenance import (
    PInt,
    PList,
    canonical_encode,
    provenance_hash,
    sha256_hex,
    strip_volatile,
)
from pvml.rng import MASK64, Xoshiro256StarStar, splitmix64
from pvml.trees import RANDOM_THRESHOLD, CartTrainer, TreeConfig, train_cart


def assert_members_trained_alone(dataset, cfg, model):
    """Member i equals the base trainer's model trained alone on the sample
    drawn from splitmix64(seed + i), with invocation count base + i."""
    trainer_prov = model.provenance.config["trainer"]
    base = trainer_prov.config["base-trainer"].instance["invocation-count"].value
    assert len(model.members) == cfg.num_members
    for i, member in enumerate(model.members):
        member_seed = splitmix64((cfg.seed + i) & MASK64)
        sample = bootstrap_sample(dataset, cfg.sample_fraction, cfg.with_replacement, member_seed)
        alone = cfg.base_trainer.train_with_count(sample, base + i)
        assert (member.nodes, member.leaves) == (alone.nodes, alone.leaves)
        assert provenance_hash(member.provenance) == provenance_hash(alone.provenance)


def ensemble_bytes(model) -> bytes:
    """Member parameters and weights, then the non-volatile provenance."""
    params = [model_to_container(m)["parameters"] for m in model.members]
    text = json.dumps([params, [repr(w) for w in model.member_weights]], sort_keys=True)
    return text.encode() + canonical_encode(strip_volatile(model.provenance))


class TestBootstrapSample:
    def test_full_draw_without_replacement_is_identity(self, interleaved_dataset):
        sample = bootstrap_sample(interleaved_dataset, 1.0, False, member_seed=5)
        assert sample.examples == interleaved_dataset.examples

    def test_same_seed_same_sample(self, interleaved_dataset):
        a = bootstrap_sample(interleaved_dataset, 0.7, True, member_seed=9)
        b = bootstrap_sample(interleaved_dataset, 0.7, True, member_seed=9)
        assert a.examples == b.examples
        assert provenance_hash(a.provenance) == provenance_hash(b.provenance)

    def test_half_of_four_draws_two(self):
        examples = [make_example([("x", float(i))], CategoricalOutput("a")) for i in range(4)]
        ds = build_dataset(InMemoryDataSource(examples))
        assert len(bootstrap_sample(ds, 0.5, False, member_seed=1).examples) == 2

    def test_empty_draw_is_an_empty_source(self, interleaved_dataset):
        # a fraction that rounds to no examples is a data error, not a crash
        with pytest.raises(EmptySource):
            bootstrap_sample(interleaved_dataset, 0.03125, True, member_seed=1)

    def test_sample_provenance_records_seed_and_indices_hash(self, interleaved_dataset):
        sample = bootstrap_sample(interleaved_dataset, 0.5, True, member_seed=33)
        source = sample.provenance.instance["source"]
        inst = source.instance
        assert inst["member-seed"] == PInt(33)
        assert inst["indices-hash"].algorithm == "SHA-256"
        assert inst["base"] == interleaved_dataset.provenance


class TestIndexListEncoding:
    """The bootstrap's index hash covers the bytes of ``canonical_encode``
    of a ``PList`` of ``PInt``s, written without building them."""

    @staticmethod
    def _old(indices):
        return canonical_encode(PList(tuple(PInt(i) for i in indices)))

    @pytest.mark.parametrize(
        "indices",
        [[], [0], [7], [3, 1, 3, 0, 2, 2], [2**31 - 1, 2**31, 2**32 + 5, 2**62 + 3, 2**63 - 1], list(range(300))],
    )
    def test_bytes_equal_the_encoding(self, indices):
        assert _index_list_encoding(np.array(indices, dtype=np.int64)) == self._old(indices)

    @pytest.mark.parametrize("with_replacement", [True, False])
    def test_a_sample_records_the_hash_of_its_indices(self, interleaved_dataset, with_replacement):
        sample = bootstrap_sample(interleaved_dataset, 0.6, with_replacement, member_seed=21)
        recorded = sample.provenance.instance["source"].instance["indices-hash"].digest
        indices = _drawn_indices(len(interleaved_dataset), 0.6, with_replacement, 21)
        assert recorded == sha256_hex(self._old(indices))
        assert sample.examples == tuple(interleaved_dataset.examples[i] for i in indices)


def _drawn_indices(n_total, fraction, with_replacement, seed):
    """The indices a bootstrap draws, by the stream ``bootstrap_sample`` reads."""
    n_draw = int(math.floor(fraction * n_total + 0.5))
    rng = Xoshiro256StarStar(seed)
    if with_replacement:
        return [(u * n_total) >> 64 for u in rng.u64s(n_draw)]
    return rng.sample_prefix(n_total, n_draw)


class TestCombine:
    def _pred(self, scores):
        label = max(sorted(scores), key=lambda l: scores[l])
        return Prediction(CategoricalOutput(label), scores, 1, 1)

    def test_identical_members_unchanged(self):
        pred = self._pred({"a": 0.7, "b": 0.3})
        merged = combine([pred, pred, pred], [1.0, 1.0, 1.0])
        assert merged.output == pred.output
        assert merged.scores == pytest.approx(pred.scores)

    def test_tie_breaks_to_smaller_label(self):
        one = self._pred({"a": 1.0, "b": 0.0})
        two = self._pred({"a": 0.0, "b": 1.0})
        merged = combine([one, two], [1.0, 1.0])
        assert merged.output == CategoricalOutput("a")

    def test_regression_weighted_mean(self):
        preds = [Prediction(RealOutput(1.0), {}, 1, 1), Prediction(RealOutput(3.0), {}, 1, 1)]
        merged = combine(preds, [0.5, 0.5])
        assert merged.output.value == 2.0

    def test_scores_renormalized_per_member(self):
        # one member reports unnormalized scores; the vote must not be dominated
        big = self._pred({"a": 100.0, "b": 0.0})
        small = self._pred({"a": 0.0, "b": 0.5})
        merged = combine([big, small], [1.0, 1.0])
        assert merged.scores["a"] == pytest.approx(0.5)
        assert merged.scores["b"] == pytest.approx(0.5)

    def test_mixed_tasks_rejected(self):
        preds = [self._pred({"a": 1.0}), Prediction(RealOutput(1.0), {}, 1, 1)]
        with pytest.raises(InconsistentTask):
            combine(preds, [1.0, 1.0])


class TestTrainEnsemble:
    def test_single_member_full_bag_equals_base_model(self, interleaved_dataset):
        cfg = EnsembleConfig(
            CartTrainer(TreeConfig(max_depth=3, seed=4)),
            num_members=1,
            seed=8,
            sample_fraction=1.0,
            with_replacement=False,
            variant=BAGGING,
        )
        ensemble = train_ensemble(interleaved_dataset, cfg)
        base = CartTrainer(TreeConfig(max_depth=3, seed=4)).train(interleaved_dataset)
        for ex in interleaved_dataset.examples:
            assert ensemble.predict(ex).output == base.predict(ex).output

    def test_member_provenance_one_per_member(self, interleaved_dataset):
        cfg = EnsembleConfig(
            CartTrainer(TreeConfig(max_depth=2, seed=4)), num_members=7, seed=8, variant=BAGGING
        )
        ensemble = train_ensemble(interleaved_dataset, cfg)
        members = ensemble.provenance.instance["members"]
        assert len(members) == 7 == len(ensemble.members)

    def test_member_hashes_distinct(self, interleaved_dataset):
        cfg = EnsembleConfig(
            CartTrainer(TreeConfig(max_depth=2, seed=4)), num_members=5, seed=8, variant=BAGGING
        )
        ensemble = train_ensemble(interleaved_dataset, cfg)
        hashes = {provenance_hash(p) for p in ensemble.provenance.instance["members"].items}
        assert len(hashes) == 5

    def test_deterministic_across_runs(self, interleaved_dataset):
        def run():
            cfg = EnsembleConfig(
                CartTrainer(TreeConfig(max_depth=2, seed=4)), num_members=5, seed=8, variant=BAGGING
            )
            return train_ensemble(interleaved_dataset, cfg)

        a, b = run(), run()
        assert provenance_hash(a.provenance) == provenance_hash(b.provenance)
        assert [(m.nodes, m.leaves) for m in a.members] == [(m.nodes, m.leaves) for m in b.members]

    def test_parallel_equals_serial(self, clf_csv):
        # each member depends only on its seed and count, so any execution
        # order, serial or concurrent, gives the same ensemble
        path, schema = clf_csv
        ds = build_dataset(load_csv(str(path), schema))

        def run():
            base = CartTrainer(TreeConfig(max_depth=3, feature_subsampling_fraction=0.5, seed=2))
            base.set_invocation_count(3)
            cfg = EnsembleConfig(base, num_members=8, seed=14, variant=RANDOM_FOREST)
            return cfg, train_ensemble(ds, cfg)

        assert_members_trained_alone(ds, *run())
        assert ensemble_bytes(run()[1]) == ensemble_bytes(run()[1])

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_random_threshold_members_grown_together_equal_each_grown_alone(self, clf_csv, reg_csv, task):
        # each member draws its candidates and thresholds in growth order
        # from its own stream, whichever members grow beside it
        path, schema = clf_csv if task == "classification" else reg_csv
        ds = build_dataset(load_csv(str(path), schema))
        base = CartTrainer(
            TreeConfig(max_depth=4, feature_subsampling_fraction=0.5, split_kind=RANDOM_THRESHOLD, seed=6)
        )
        cfg = EnsembleConfig(base, num_members=5, seed=21, variant=RANDOM_FOREST)
        assert_members_trained_alone(ds, cfg, train_ensemble(ds, cfg))

    def test_random_forest_requires_subsampled_trees(self):
        with pytest.raises(ValueError):
            EnsembleConfig(
                CartTrainer(TreeConfig(max_depth=2, seed=0)), 3, 0, variant=RANDOM_FOREST
            )
        with pytest.raises(ValueError):
            EnsembleConfig(LinearSgdTrainer("logistic", Sgd(0.1), 1, 4, 0), 3, 0, variant=RANDOM_FOREST)

    def test_bagging_over_linear_base(self, separable_dataset):
        cfg = EnsembleConfig(
            LinearSgdTrainer("logistic", Sgd(0.5), epochs=30, batch_size=10, seed=3),
            num_members=3,
            seed=6,
            variant=BAGGING,
        )
        ensemble = train_ensemble(separable_dataset, cfg)
        correct = sum(
            1 for ex in separable_dataset.examples if ensemble.predict(ex).output == ex.output
        )
        assert correct == len(separable_dataset.examples)


class TestEnsembleModelChecks:
    """The constructor refuses what the forest table could not score."""

    @staticmethod
    def _rebuilt(model, members=None, weights=None):
        return EnsembleModel(
            model.name, model.provenance, model.feature_domain, model.output_domain,
            model.members if members is None else members, model.member_weights if weights is None else weights,
        )

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, 0.0, -0.0, -0.25])
    def test_weight_not_finite_and_positive(self, interleaved_dataset, weight):
        model = train_ensemble(interleaved_dataset, EnsembleConfig(CartTrainer(TreeConfig(max_depth=2)), 3, seed=1))
        with pytest.raises(ValueError, match="finite and greater than 0"):
            self._rebuilt(model, weights=(weight, *model.member_weights[1:]))

    def test_member_feature_outside_the_domain(self, interleaved_dataset):
        model = train_ensemble(interleaved_dataset, EnsembleConfig(CartTrainer(TreeConfig(max_depth=2)), 3, seed=1))
        stranger = train_cart(build_dataset(InMemoryDataSource([
            make_example([("zz", float(i))], CategoricalOutput("ab"[i % 2])) for i in range(4)
        ])), TreeConfig(max_depth=1))
        with pytest.raises(ValueError, match="'zz'"):
            self._rebuilt(model, members=(*model.members[:-1], stranger))

    def test_no_member(self, interleaved_dataset):
        model = train_ensemble(interleaved_dataset, EnsembleConfig(CartTrainer(TreeConfig(max_depth=2)), 3, seed=1))
        with pytest.raises(ValueError, match="at least one member"):
            self._rebuilt(model, members=(), weights=())

    def test_member_labels_outside_the_output_domain(self, interleaved_dataset):
        model = train_ensemble(interleaved_dataset, EnsembleConfig(CartTrainer(TreeConfig(max_depth=2)), 3, seed=1))
        nine = train_linear_sgd(build_dataset(InMemoryDataSource([
            make_example([("x", float(i))], CategoricalOutput("abcdefghi"[i])) for i in range(9)
        ])), "logistic", Sgd(0.1), 1, 3, 2)
        with pytest.raises(ValueError, match=r"member labels \['c', 'd', 'e', 'f', 'g', 'h', 'i'\] are outside"):
            self._rebuilt(model, members=(*model.members[:-1], nine))

    def test_member_of_another_task(self, interleaved_dataset):
        model = train_ensemble(interleaved_dataset, EnsembleConfig(CartTrainer(TreeConfig(max_depth=2)), 3, seed=1))
        regression = train_cart(build_dataset(InMemoryDataSource([
            make_example([("x", float(i))], RealOutput(0.5 * i)) for i in range(4)
        ])), TreeConfig(max_depth=1))
        with pytest.raises(ValueError, match="task differs"):
            self._rebuilt(model, members=(regression, *model.members[1:]))

    REAL_DOMAIN = {"type": "real", "min": "0.0", "max": "1.0", "mean": "0.5", "variance": "0.25", "count": 4}

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c["parameters"]["members"][1]["outputDomain"]["counts"].update(zz=1), "outside the ensemble's output domain"),
        (lambda c: c.update(outputDomain=TestEnsembleModelChecks.REAL_DOMAIN), "task differs"),
    ], ids=["label", "task"])
    def test_a_file_with_such_a_member_fails_to_load(self, interleaved_dataset, tmp_path, edit, message):
        model = train_ensemble(interleaved_dataset, EnsembleConfig(CartTrainer(TreeConfig(max_depth=2)), 3, seed=1))
        path = tmp_path / "model.pvml"
        save_model(model, str(path))
        container = json.loads(path.read_text(encoding="utf-8"))
        edit(container)
        path.write_text(json.dumps(container), encoding="utf-8")
        with pytest.raises(FormatError, match=message):
            load_model(str(path))


class TestRedactionOfEnsembles:
    def test_member_data_paths_redacted(self, clf_csv):
        from pvml.provenance import redact, serialize_provenance

        path, schema = clf_csv
        ds = build_dataset(load_csv(str(path), schema))
        cfg = EnsembleConfig(
            CartTrainer(TreeConfig(max_depth=2, seed=1)), num_members=3, seed=2, variant=BAGGING
        )
        ensemble = train_ensemble(ds, cfg)
        _, redacted = redact(ensemble.provenance)
        text = serialize_provenance(redacted)
        assert str(path) not in text  # member provenances carry the path too


class TestAdaBoost:
    def test_requires_classification(self, regression_dataset):
        cfg = EnsembleConfig(
            CartTrainer(TreeConfig(max_depth=1, seed=5)), 3, 21, variant=ADABOOST
        )
        with pytest.raises(TaskMismatch):
            train_ensemble(regression_dataset, cfg)

    def test_alpha_formula_on_known_first_round(self, interleaved_dataset):
        # the first stump mislabels 4 of 10 uniformly weighted points
        cfg = EnsembleConfig(
            CartTrainer(TreeConfig(max_depth=1, seed=5)), 1, 21, variant=ADABOOST
        )
        ensemble = train_ensemble(interleaved_dataset, cfg)
        member = ensemble.members[0]
        err = sum(
            1.0 / 10.0
            for ex in interleaved_dataset.examples
            if member.predict(ex).output.label != ex.output.label
        )
        assert err == pytest.approx(0.4)
        assert ensemble.member_weights[0] == pytest.approx(math.log((1 - err) / err), rel=1e-12)

    def test_independent_samme_replay(self, interleaved_dataset):
        """Replay the weight recursion from the member predictions alone."""
        cfg = EnsembleConfig(
            CartTrainer(TreeConfig(max_depth=1, seed=5)), 5, 21, variant=ADABOOST
        )
        ensemble = train_ensemble(interleaved_dataset, cfg)
        n = len(interleaved_dataset.examples)
        weights = [1.0 / n] * n
        for member, alpha in zip(ensemble.members, ensemble.member_weights):
            missed = [
                member.predict(ex).output.label != ex.output.label
                for ex in interleaved_dataset.examples
            ]
            err = sum(w for w, m in zip(weights, missed) if m)
            assert 0.0 < err < 0.5
            assert alpha == pytest.approx(math.log((1 - err) / err), rel=1e-12)
            weights = [w * math.exp(alpha) if m else w for w, m in zip(weights, missed)]
            total = sum(weights)
            weights = [w / total for w in weights]
            assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_training_error_nonincreasing_in_members(self, interleaved_dataset):
        def training_error(m):
            cfg = EnsembleConfig(
                CartTrainer(TreeConfig(max_depth=1, seed=5)), m, 21, variant=ADABOOST
            )
            ensemble = train_ensemble(interleaved_dataset, cfg)
            wrong = sum(
                1
                for ex in interleaved_dataset.examples
                if ensemble.predict(ex).output != ex.output
            )
            return wrong / len(interleaved_dataset.examples)

        errs = [training_error(m) for m in (1, 5, 10)]
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[2] == 0.0

    def test_perfect_stump_stops_with_capped_alpha(self, separable_dataset):
        cfg = EnsembleConfig(
            CartTrainer(TreeConfig(max_depth=1, seed=5)), 10, 21, variant=ADABOOST
        )
        ensemble = train_ensemble(separable_dataset, cfg)
        assert len(ensemble.members) == 1
        assert ensemble.member_weights[0] == pytest.approx(10.0 + math.log(2 - 1))

    def test_chance_level_stumps_rejected(self, xor_dataset):
        # every stump on balanced XOR has error exactly 0.5 = 1 - 1/K
        cfg = EnsembleConfig(
            CartTrainer(TreeConfig(max_depth=1, seed=5)), 5, 21, variant=ADABOOST
        )
        with pytest.raises(AllMembersRejected):
            train_ensemble(xor_dataset, cfg)
