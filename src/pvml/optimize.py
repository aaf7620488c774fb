"""Gradient optimizers and linear models trained with them.

Linear and logistic (softmax) models share one parameter layout: a dense
matrix of shape (num_features + 1, num_outputs) whose last row is the bias.
Optimizer steps are pure functions from (config, state, params, grads) to
new (state, params), which keeps training deterministic and easy to test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    CATEGORICAL,
    REAL,
    CategoricalOutput,
    Columns,
    Dataset,
    Example,
    FeatureDomain,
    Model,
    Output,
    RealOutput,
    Trainer,
    argmax_label,
    compile_examples,
    model_provenance,
)
from .errors import NonFiniteGradient, NonFiniteScore, ShapeMismatch, TaskMismatch, UnlabelledExample
from .rng import Xoshiro256StarStar

LOGISTIC = "logistic"
SQUARED = "squared"

LINEAR_TRAINER_CLASS = "pvml.LinearSgdTrainer"
LINEAR_MODEL_CLASS = "pvml.LinearSgdModel"


# ---------------------------------------------------------------------------
# Optimizer configurations and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sgd:
    lr: float

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError("learning rate must be positive")


@dataclass(frozen=True)
class AdaGrad:
    lr: float
    eps: float = 1e-8

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError("learning rate must be positive")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")


@dataclass(frozen=True)
class Adam:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError("learning rate must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be positive")


OptimizerConfig = Sgd | AdaGrad | Adam


@dataclass(frozen=True)
class LinearSgdConfig:
    objective: str
    optimizer: OptimizerConfig
    epochs: int
    batch_size: int
    seed: int

    def __post_init__(self):
        if self.objective not in (LOGISTIC, SQUARED):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be >= 1")


@dataclass(frozen=True)
class AdaGradState:
    acc: np.ndarray  # running sum of squared gradients


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int


OptimizerState = AdaGradState | AdamState | None


def init_state(cfg: OptimizerConfig, shape: tuple[int, ...]) -> OptimizerState:
    if isinstance(cfg, AdaGrad):
        return AdaGradState(np.zeros(shape))
    if isinstance(cfg, Adam):
        return AdamState(np.zeros(shape), np.zeros(shape), 0)
    return None


def optimizer_step(
    cfg: OptimizerConfig,
    state: OptimizerState,
    params: np.ndarray,
    grads: np.ndarray,
) -> tuple[OptimizerState, np.ndarray]:
    """One update; returns fresh state and parameters, inputs untouched."""
    if params.shape != grads.shape:
        raise ShapeMismatch(f"params {params.shape} vs grads {grads.shape}")
    if not np.all(np.isfinite(grads)):
        raise NonFiniteGradient("gradient contains NaN or infinite entries")

    if isinstance(cfg, Sgd):
        return None, params - cfg.lr * grads

    if isinstance(cfg, AdaGrad):
        if state is not None and state.acc.shape != params.shape:
            raise ShapeMismatch("optimizer state shape does not match parameters")
        acc = (state.acc if state is not None else np.zeros_like(params)) + grads * grads
        step = np.zeros_like(params)
        nonzero = acc > 0
        step[nonzero] = cfg.lr * grads[nonzero] / (np.sqrt(acc[nonzero]) + cfg.eps)
        return AdaGradState(acc), params - step

    if isinstance(cfg, Adam):
        if state is not None and state.m.shape != params.shape:
            raise ShapeMismatch("optimizer state shape does not match parameters")
        if state is None:
            state = AdamState(np.zeros_like(params), np.zeros_like(params), 0)
        t = state.t + 1
        m = cfg.beta1 * state.m + (1 - cfg.beta1) * grads
        v = cfg.beta2 * state.v + (1 - cfg.beta2) * grads * grads
        m_hat = m / (1 - cfg.beta1 ** t)
        v_hat = v / (1 - cfg.beta2 ** t)
        return AdamState(m, v, t), params - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)

    raise TypeError(f"unknown optimizer config {type(cfg).__name__}")


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

def _design_matrix(columns: Columns, rows: np.ndarray, num_features: int) -> np.ndarray:
    """Dense (batch, features + 1) matrix of ``rows`` with a trailing bias column of ones."""
    starts = columns.indptr[rows]
    lengths = columns.indptr[rows + 1] - starts
    # the positions of every batch row's entries, row after row
    at = np.repeat(starts + lengths - np.cumsum(lengths), lengths) + np.arange(lengths.sum())
    x = np.zeros((len(rows), num_features + 1))
    x[:, -1] = 1.0
    x[np.repeat(np.arange(len(rows)), lengths), columns.feature_ids[at]] = columns.values[at]
    return x


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _logistic_loss(params, x, targets, w) -> tuple[float, np.ndarray]:
    n = len(targets)
    probs = _softmax(x @ params)
    picked = probs[np.arange(n), targets]
    loss = float(np.sum(w * -np.log(picked)) / n)

    delta = probs.copy()
    delta[np.arange(n), targets] -= 1.0
    grads = x.T @ (delta * (w / n)[:, None])
    return loss, grads


def _squared_loss(params, x, y, w) -> tuple[float, np.ndarray]:
    n = len(y)
    pred = (x @ params)[:, 0]
    resid = pred - y
    loss = float(np.sum(w * 0.5 * resid * resid) / n)
    grads = x.T @ (resid * w / n)[:, None]
    return loss, grads


def _batch_loss(loss, params, columns: Columns, rows: np.ndarray, num_features: int):
    """``loss`` and its gradient over the compiled ``rows``."""
    x = _design_matrix(columns, rows, num_features)
    return loss(params, x, columns.targets[rows], columns.weights[rows])


def logistic_objective(
    params: np.ndarray,
    examples: Sequence[Example],
    domain: FeatureDomain,
    labels: Sequence[str],
) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy loss and its exact gradient.

    Loss is the mean over the batch of each example's weighted negative
    log-probability of its true label, so doubling a weight doubles that
    example's contribution.
    """
    if not examples:
        raise ValueError("empty batch")
    if not all(isinstance(ex.output, CategoricalOutput) for ex in examples):
        raise UnlabelledExample("logistic objective needs categorical ground truth")
    columns = compile_examples(examples, domain, labels)
    return _batch_loss(_logistic_loss, params, columns, np.arange(len(examples)), len(domain))


def squared_objective(
    params: np.ndarray,
    examples: Sequence[Example],
    domain: FeatureDomain,
) -> tuple[float, np.ndarray]:
    """Half squared error (weighted, mean over the batch) and its gradient."""
    if not examples:
        raise ValueError("empty batch")
    if not all(isinstance(ex.output, RealOutput) for ex in examples):
        raise UnlabelledExample("squared objective needs real-valued ground truth")
    columns = compile_examples(examples, domain)
    return _batch_loss(_squared_loss, params, columns, np.arange(len(examples)), len(domain))


# ---------------------------------------------------------------------------
# Model and trainer
# ---------------------------------------------------------------------------

class LinearSgdModel(Model):
    """Linear predictor; softmax scores for classification, raw value for regression."""

    model_class = LINEAR_MODEL_CLASS

    def __init__(self, name, provenance, feature_domain, output_domain, weights: np.ndarray):
        super().__init__(name, provenance, feature_domain, output_domain)
        expected = (len(feature_domain) + 1, self._num_outputs())
        if weights.shape != expected:
            raise ShapeMismatch(f"weights {weights.shape}, expected {expected}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("model weights must be finite")
        self.weights = weights.copy()
        self.weights.setflags(write=False)

    def _num_outputs(self) -> int:
        if self.task == CATEGORICAL:
            return len(self.output_domain.labels())
        return 1

    def _predict_intersected(self, example, sparse: Mapping[int, float]) -> tuple[Output, dict[str, float]]:
        x = np.zeros(len(self.feature_domain) + 1)
        x[-1] = 1.0
        for fid, value in sparse.items():
            x[fid] = value
        return self._output_of(x @ self.weights)

    def _score_compiled(self, columns: Columns) -> list[tuple[Output, dict[str, float]]]:
        """Row by row, through the same product as :meth:`_predict_intersected`.

        A whole-batch matrix product may add in another order than one
        row's, so the rows share one dense vector instead.
        """
        x = np.zeros(len(self.feature_domain) + 1)
        x[-1] = 1.0
        bounds = columns.indptr.tolist()
        out = []
        for start, end in zip(bounds, bounds[1:]):
            ids = columns.feature_ids[start:end]
            x[ids] = columns.values[start:end]
            out.append(self._output_of(x @ self.weights))
            x[ids] = 0.0
        return out

    def _output_of(self, z: np.ndarray) -> tuple[Output, dict[str, float]]:
        """The prediction for the linear scores ``z`` of one example."""
        values = z.tolist()
        if not all(map(math.isfinite, values)):  # in Python: cheaper than numpy for one row
            raise NonFiniteScore("the linear score of an example overflowed to a non-finite value")
        if self.task == REAL:
            return RealOutput(values[0]), {}
        scores = dict(zip(self.output_domain.labels(), _softmax(z[None, :])[0].tolist()))
        return CategoricalOutput(argmax_label(scores)), scores


class LinearSgdTrainer(Trainer):
    """Trains linear/logistic models by mini-batch SGD with a fixed PRNG."""

    trainer_class = LINEAR_TRAINER_CLASS

    def __init__(
        self,
        objective: str,
        optimizer: OptimizerConfig,
        epochs: int,
        batch_size: int,
        seed: int,
    ):
        self.cfg = LinearSgdConfig(objective, optimizer, epochs, batch_size, seed)
        super().__init__(seed)

    def train_with_count(self, dataset: Dataset, count: int, user_info=None) -> LinearSgdModel:
        cfg = self.cfg
        expected_task = CATEGORICAL if cfg.objective == LOGISTIC else REAL
        if dataset.task != expected_task:
            raise TaskMismatch(
                f"{cfg.objective} objective needs a {expected_task} dataset, got {dataset.task}"
            )

        domain = dataset.feature_domain
        k = len(dataset.output_domain.labels()) if dataset.task == CATEGORICAL else 1
        weights = np.zeros((len(domain) + 1, k))
        state = init_state(cfg.optimizer, weights.shape)

        columns = dataset.columns
        loss = _logistic_loss if cfg.objective == LOGISTIC else _squared_loss
        rng = Xoshiro256StarStar(self.stream_seed(count))
        order = list(range(len(dataset.examples)))
        for _ in range(cfg.epochs):
            rng.shuffle(order)
            shuffled = np.array(order)
            for start in range(0, len(order), cfg.batch_size):
                rows = shuffled[start : start + cfg.batch_size]
                _, grads = _batch_loss(loss, weights, columns, rows, len(domain))
                state, weights = optimizer_step(cfg.optimizer, state, weights, grads)
        if not np.all(np.isfinite(weights)):
            raise NonFiniteGradient("an update overflowed: the weights are not finite")

        prov = model_provenance(
            LINEAR_MODEL_CLASS,
            trainer_provenance=self.provenance_with_count(count),
            dataset_provenance=dataset.provenance,
            user_info=user_info,
        )
        return LinearSgdModel(
            f"linear-sgd-{cfg.objective}", prov, domain, dataset.output_domain, weights
        )


def train_linear_sgd(
    dataset: Dataset,
    objective: str,
    optimizer: OptimizerConfig,
    epochs: int,
    batch_size: int,
    shuffle_seed: int,
) -> LinearSgdModel:
    """One-shot convenience: a fresh trainer and a single invocation."""
    trainer = LinearSgdTrainer(objective, optimizer, epochs, batch_size, shuffle_seed)
    return trainer.train(dataset)
