"""Optimizer updates, objective gradients, and SGD training behaviour."""

import hashlib
import json
import math

import numpy as np
import pytest

from pvml.core import CategoricalOutput, RealOutput, build_dataset, compile_examples, make_example
from pvml.data import InMemoryDataSource
from pvml.errors import NonFiniteGradient, ShapeMismatch, TaskMismatch
from pvml.optimize import (
    Adam,
    AdaGrad,
    LinearSgdTrainer,
    Sgd,
    _logistic_loss,
    _squared_loss,
    init_state,
    optimizer_step,
    train_linear_sgd,
)
from pvml.persist import model_to_container
from pvml.provenance import PInt, provenance_hash
from pvml.rng import Xoshiro256StarStar


class TestOptimizerStep:
    @pytest.mark.parametrize("cfg", [Sgd(0.1), AdaGrad(0.1), Adam(0.001)])
    def test_zero_gradient_leaves_params_alone(self, cfg):
        params = np.array([[1.0, -2.0], [0.5, 0.25]])
        state = init_state(cfg, params.shape)
        _, updated = optimizer_step(cfg, state, params, np.zeros_like(params))
        assert np.array_equal(updated, params)

    def test_sgd_step(self):
        _, updated = optimizer_step(Sgd(0.5), None, np.array([1.0]), np.array([2.0]))
        assert updated[0] == 0.0

    def test_adagrad_first_step(self):
        # acc = g^2 = 4, step = lr * g / sqrt(acc) = 0.1 * 2 / 2
        cfg = AdaGrad(lr=0.1, eps=0.0)
        state, updated = optimizer_step(
            cfg, init_state(cfg, (1,)), np.zeros(1), np.array([2.0])
        )
        assert updated[0] == pytest.approx(-0.1, abs=1e-15)
        assert state.acc[0] == 4.0

    def test_adam_first_step_is_lr_sized(self):
        # bias correction makes m_hat = g and v_hat = g^2 on step one
        cfg = Adam(lr=0.001)
        _, updated = optimizer_step(
            cfg, init_state(cfg, (1,)), np.zeros(1), np.array([0.5])
        )
        assert updated[0] == pytest.approx(-0.001, rel=1e-6)

    def test_adam_timestep_advances(self):
        cfg = Adam(lr=0.01)
        state = init_state(cfg, (1,))
        for expected_t in (1, 2, 3):
            state, _ = optimizer_step(cfg, state, np.zeros(1), np.array([1.0]))
            assert state.t == expected_t

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            optimizer_step(Sgd(0.1), None, np.zeros(3), np.zeros(4))

    def test_non_finite_gradient(self):
        with pytest.raises(NonFiniteGradient):
            optimizer_step(Sgd(0.1), None, np.zeros(2), np.array([1.0, float("nan")]))

    def test_inputs_not_mutated(self):
        cfg = AdaGrad(0.1)
        params = np.ones(2)
        grads = np.ones(2)
        state = init_state(cfg, (2,))
        optimizer_step(cfg, state, params, grads)
        assert np.array_equal(params, np.ones(2))
        assert np.array_equal(state.acc, np.zeros(2))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            Sgd(0.0)
        with pytest.raises(ValueError):
            Adam(0.1, beta1=1.0)
        with pytest.raises(ValueError):
            AdaGrad(0.1, eps=-1.0)


def _batch(rng, n, feature_names, labels=None):
    examples = []
    for _ in range(n):
        pairs = [(name, rng.next_float() * 4 - 2) for name in feature_names]
        weight = 0.5 + rng.next_float()
        if labels is None:
            examples.append(make_example(pairs, RealOutput(rng.next_float() * 2 - 1), weight))
        else:
            label = labels[rng.next_below(len(labels))]
            examples.append(make_example(pairs, CategoricalOutput(label), weight))
    return examples


def _domain_for(examples):
    labelled = examples if not any(
        f.name for ex in examples for f in ex.features
    ) else examples
    return build_dataset(InMemoryDataSource(labelled)).feature_domain


def _finite_difference(loss_fn, params, h=1e-5):
    grad = np.zeros_like(params)
    for idx in np.ndindex(params.shape):
        plus = params.copy()
        minus = params.copy()
        plus[idx] += h
        minus[idx] -= h
        grad[idx] = (loss_fn(plus) - loss_fn(minus)) / (2 * h)
    return grad


def _assert_close_to_fd(analytic, numeric, tol=1e-6):
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    assert np.all(np.abs(analytic - numeric) / scale < tol)


def logistic_loss(params, examples, domain, labels):
    """Softmax cross-entropy of the examples compiled against ``domain``, and its gradient."""
    return _logistic_loss(params, compile_examples(examples, domain, labels))


def squared_loss(params, examples, domain):
    """Half squared error of the examples compiled against ``domain``, and its gradient."""
    return _squared_loss(params, compile_examples(examples, domain))


class TestLogisticObjective:
    def test_uniform_softmax_loss_is_ln2(self):
        examples = [
            make_example([("a", 1.0)], CategoricalOutput("x")),
            make_example([("a", -1.0)], CategoricalOutput("y")),
        ]
        domain = _domain_for(examples)
        params = np.zeros((len(domain) + 1, 2))
        loss, _ = logistic_loss(params, examples, domain, ("x", "y"))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = Xoshiro256StarStar(31)
        labels = ("a", "b", "c")
        examples = _batch(rng, 6, ("f1", "f2", "f3"), labels)
        domain = _domain_for(examples)
        params = np.array(
            [[rng.next_float() - 0.5 for _ in labels] for _ in range(len(domain) + 1)]
        )
        _, analytic = logistic_loss(params, examples, domain, labels)
        numeric = _finite_difference(
            lambda p: logistic_loss(p, examples, domain, labels)[0], params
        )
        _assert_close_to_fd(analytic, numeric)

    def test_doubling_weight_doubles_contribution(self):
        domain_examples = [make_example([("a", 1.0)], CategoricalOutput("x"), 1.0)]
        domain = _domain_for(domain_examples)
        params = np.array([[0.3, -0.1], [0.0, 0.2]])
        single = make_example([("a", 1.0)], CategoricalOutput("x"), 1.0)
        double = make_example([("a", 1.0)], CategoricalOutput("x"), 2.0)
        loss1, _ = logistic_loss(params, [single], domain, ("x", "y"))
        loss2, _ = logistic_loss(params, [double], domain, ("x", "y"))
        assert loss2 == pytest.approx(2 * loss1, rel=1e-12)


    def test_features_outside_the_domain_are_ignored(self):
        # compiling drops the names outside the domain; the last example
        # of ``extra`` keeps only its 0.0, so it adds its bias-only term
        known = [
            make_example([("a", 1.0), ("b", 2.0)], CategoricalOutput("x")),
            make_example([("a", -1.0)], CategoricalOutput("y"), 2.0),
            make_example([("a", 0.0)], CategoricalOutput("y"), 1.5),
        ]
        domain = _domain_for(known)
        extra = [
            make_example([("a", 1.0), ("b", 2.0), ("zz", 5.0)], CategoricalOutput("x")),
            make_example([("_", 3.0), ("a", -1.0)], CategoricalOutput("y"), 2.0),
            make_example([("a", 0.0), ("zz", 4.0)], CategoricalOutput("y"), 1.5),
        ]
        params = np.array([[0.3, -0.1], [0.2, 0.4], [0.0, 0.2]])
        loss, grads = logistic_loss(params, known, domain, ("x", "y"))
        loss_extra, grads_extra = logistic_loss(params, extra, domain, ("x", "y"))
        assert loss_extra == loss
        assert np.array_equal(grads_extra, grads)


class TestSquaredObjective:
    def test_zero_loss_at_perfect_fit(self):
        examples = [make_example([("a", 2.0)], RealOutput(0.0))]
        domain = _domain_for(examples)
        params = np.zeros((2, 1))
        loss, grads = squared_loss(params, examples, domain)
        assert loss == 0.0
        assert np.all(grads == 0.0)

    def test_single_example_half_square(self):
        examples = [make_example([("f", 1.0)], RealOutput(1.0))]
        domain = _domain_for(examples)
        loss, _ = squared_loss(np.zeros((2, 1)), examples, domain)
        assert loss == 0.5

    def test_a_row_outside_the_domain_adds_its_bias_term(self):
        # "zz" is dropped and "a" is 0.0, so only the bias scores the row
        domain = _domain_for([make_example([("a", 1.0)], RealOutput(0.0))])
        params = np.array([[0.5], [2.0]])
        outside = make_example([("a", 0.0), ("zz", 3.0)], RealOutput(1.0), 2.0)
        loss, grads = squared_loss(params, [outside], domain)
        assert loss == 0.5 * 2.0 * (2.0 - 1.0) ** 2
        assert grads.tolist() == [[0.0], [2.0]]

    def test_gradient_matches_finite_differences(self):
        rng = Xoshiro256StarStar(77)
        examples = _batch(rng, 8, ("f1", "f2"))
        domain = _domain_for(examples)
        params = np.array([[rng.next_float() - 0.5] for _ in range(len(domain) + 1)])
        _, analytic = squared_loss(params, examples, domain)
        numeric = _finite_difference(
            lambda p: squared_loss(p, examples, domain)[0], params
        )
        _assert_close_to_fd(analytic, numeric)


class TestTrainLinearSgd:
    def test_separable_data_fully_learned(self, separable_dataset):
        model = train_linear_sgd(
            separable_dataset, "logistic", AdaGrad(lr=0.5), epochs=100, batch_size=10, shuffle_seed=3
        )
        correct = sum(
            1
            for ex in separable_dataset.examples
            if model.predict(ex).output == ex.output
        )
        assert correct == len(separable_dataset.examples)

    def test_same_seed_gives_bitwise_identical_weights(self, separable_dataset):
        kwargs = dict(epochs=20, batch_size=7, shuffle_seed=5)
        a = train_linear_sgd(separable_dataset, "logistic", Adam(0.01), **kwargs)
        b = train_linear_sgd(separable_dataset, "logistic", Adam(0.01), **kwargs)
        assert np.array_equal(a.weights, b.weights)
        assert provenance_hash(a.provenance) == provenance_hash(b.provenance)

    def test_task_mismatch(self, separable_dataset):
        with pytest.raises(TaskMismatch):
            train_linear_sgd(separable_dataset, "squared", Sgd(0.1), 1, 8, 0)

    def test_regression_learns_linear_map(self, regression_dataset):
        model = train_linear_sgd(
            regression_dataset, "squared", Adam(0.05), epochs=400, batch_size=6, shuffle_seed=1
        )
        for ex in regression_dataset.examples:
            assert model.predict(ex).output.value == pytest.approx(ex.output.value, abs=0.15)

    def test_loss_nonincreasing_with_small_sgd_steps(self, regression_dataset):
        losses = []
        for epochs in range(1, 9):
            model = train_linear_sgd(
                regression_dataset, "squared", Sgd(1e-3), epochs, len(regression_dataset), 11
            )
            loss, _ = squared_loss(
                model.weights, regression_dataset.examples, regression_dataset.feature_domain
            )
            losses.append(loss)
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_overflowing_last_step_is_a_non_finite_gradient(self, regression_dataset):
        # one step whose update overflows to infinity, with no later gradient to catch it
        with np.errstate(over="ignore"), pytest.raises(NonFiniteGradient):
            train_linear_sgd(regression_dataset, "squared", Sgd(1e308), 1, len(regression_dataset), 1)

    def test_provenance_records_config_and_count(self, separable_dataset):
        trainer = LinearSgdTrainer("logistic", Adam(0.01), epochs=2, batch_size=4, seed=9)
        trainer.train(separable_dataset)
        model = trainer.train(separable_dataset)
        tp = model.provenance.config["trainer"]
        cfg = tp.config
        assert cfg["epochs"] == PInt(2)
        assert cfg["batch-size"] == PInt(4)
        assert cfg["seed"] == PInt(9)
        assert cfg["optimizer"].config.keys() == ("beta1", "beta2", "eps", "lr")
        assert tp.instance["invocation-count"] == PInt(1)

    def test_scores_max_equals_predicted_label(self, separable_dataset):
        model = train_linear_sgd(separable_dataset, "logistic", Sgd(0.1), 5, 10, 2)
        for ex in separable_dataset.examples[:10]:
            pred = model.predict(ex)
            assert pred.scores[pred.output.label] == max(pred.scores.values())


def _golden_dataset(labels, seed):
    """Sparse weighted examples: each row holds a few of twelve features."""
    rng = Xoshiro256StarStar(seed)
    examples = []
    for _ in range(90):
        pairs = [(f"t{j:02d}", rng.next_float() * 4 - 2) for j in range(12) if rng.next_float() < 0.3]
        pairs.append(("bias-ish", 1.0 + rng.next_below(3)))
        signal = sum(v for name, v in pairs if name in ("t00", "t03", "t07"))
        if labels is None:
            output = RealOutput(signal + rng.next_float())
        else:
            output = CategoricalOutput(labels[min(len(labels) - 1, max(0, int(signal + 1.5)))])
        examples.append(make_example(pairs, output, weight=0.5 + rng.next_below(4) / 2.0))
    return build_dataset(InMemoryDataSource(examples))


def _weights_sha256(model) -> str:
    """SHA-256 of the parameter block as compact sorted-key JSON."""
    params = model_to_container(model)["parameters"]
    text = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenWeights:
    """Trained weights pinned bit for bit, so a change to any SGD kernel fails here."""

    def test_logistic_adagrad(self):
        dataset = _golden_dataset(("a", "b", "c"), 41)
        model = train_linear_sgd(dataset, "logistic", AdaGrad(0.3), epochs=4, batch_size=7, shuffle_seed=42)
        assert _weights_sha256(model) == GOLDEN_LOGISTIC_ADAGRAD

    def test_squared_adam(self):
        dataset = _golden_dataset(None, 43)
        model = train_linear_sgd(dataset, "squared", Adam(0.05), epochs=4, batch_size=8, shuffle_seed=44)
        assert _weights_sha256(model) == GOLDEN_SQUARED_ADAM


class TestSparseProduct:
    def test_matches_the_dense_product(self):
        # the sparse kernels add the terms of a dense product in another
        # order, so the two agree to rounding, not bit for bit
        labels = ("a", "b", "c")
        dataset = _golden_dataset(labels, 41)
        model = train_linear_sgd(dataset, "logistic", AdaGrad(0.3), epochs=4, batch_size=7, shuffle_seed=42)
        domain, examples = dataset.feature_domain, dataset.examples
        x = np.zeros((len(examples), len(domain) + 1))
        x[:, -1] = 1.0
        for row, example in enumerate(examples):
            for f in example.features:
                x[row, domain.ids[f.name]] = f.value
        z = x @ model.weights
        probs = np.exp(z - z.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        scores = [[p.scores[label] for label in labels] for p in model.predict_batch(examples)]
        np.testing.assert_allclose(scores, probs, rtol=1e-12, atol=1e-15)
        n, targets, weights = len(examples), dataset.columns.targets, dataset.columns.weights
        probs[np.arange(n), targets] -= 1.0
        _, grads = logistic_loss(model.weights, examples, domain, labels)
        np.testing.assert_allclose(grads, x.T @ (probs * (weights / n)[:, None]), rtol=1e-9, atol=1e-15)


# Recorded with the sparse product of the compiled rows, which adds each
# row's terms in a fixed order, in place of the dense design matrix whose
# BLAS product summed in the order of whichever kernel the host picked.
GOLDEN_LOGISTIC_ADAGRAD = "9ec5c84a6cc3118076ff5e163017b10b5d5a8b975848ba34cf654a13e4aed607"
GOLDEN_SQUARED_ADAM = "4cf9485c026a394c32cbb0f05933ef56b4e868261f6a1e53022d2f925dd6493e"
