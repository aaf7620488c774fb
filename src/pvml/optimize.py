"""Gradient optimizers and linear models trained with them.

Linear and logistic (softmax) models share one parameter layout: a dense
matrix of shape (num_features + 1, num_outputs) whose last row is the bias.
Optimizer steps are pure functions from (config, state, params, grads) to
new (state, params), which keeps training deterministic and easy to test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    CATEGORICAL,
    REAL,
    CategoricalOutput,
    Columns,
    Dataset,
    Model,
    Output,
    RealOutput,
    Trainer,
    model_provenance,
)
from .errors import NonFiniteGradient, NonFiniteScore, ShapeMismatch, TaskMismatch
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
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 where eps is 0 is masked out
            step = np.where(acc > 0, cfg.lr * grads / (np.sqrt(acc) + cfg.eps), 0.0)
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

_ONE_ROW = np.zeros(1, dtype=np.intp)  # the segment starts of a single row


def _scores(weights: np.ndarray, starts: np.ndarray, ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The linear scores of sparse rows: row ``i`` holds the entries of ``ids``
    and ``values`` from ``starts[i]`` to the next start, at least one.  Its
    ``weights[id] * value`` terms are added by ``np.add.reduceat``, in an order
    fixed by the row alone, then the bias row: a row scores to the same bits
    alone or in a batch, and no BLAS kernel takes part."""
    return np.add.reduceat(weights.take(ids, axis=0) * values[:, None], starts, axis=0) + weights[-1]


def _gradient(params: np.ndarray, batch: Columns, delta: np.ndarray) -> np.ndarray:
    """The gradient of the batch's scores weighted by ``delta``, one row per
    batch row: ``np.bincount`` adds each entry's ``value * delta[row]`` to its
    feature's row in entry order, and the bias row sums ``delta`` over rows."""
    k = params.shape[1]
    rows = np.repeat(np.arange(len(delta)), np.diff(batch.indptr))
    cells = (batch.feature_ids[:, None] * k + np.arange(k)).ravel()  # each term's place in ``params.ravel()``
    terms = batch.values[:, None] * delta.take(rows, axis=0)
    grads = np.bincount(cells, weights=terms.ravel(), minlength=params.size).reshape(params.shape)
    grads[-1] = delta.sum(axis=0)
    return grads


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _logistic_loss(params: np.ndarray, batch: Columns) -> tuple[float, np.ndarray]:
    n, targets, w = len(batch.targets), batch.targets, batch.weights
    probs = _softmax(_scores(params, batch.indptr[:-1], batch.feature_ids, batch.values))
    loss = float(np.sum(w * -np.log(probs[np.arange(n), targets])) / n)
    delta = probs.copy()
    delta[np.arange(n), targets] -= 1.0
    return loss, _gradient(params, batch, delta * (w / n)[:, None])


def _squared_loss(params: np.ndarray, batch: Columns) -> tuple[float, np.ndarray]:
    n, y, w = len(batch.targets), batch.targets, batch.weights
    resid = _scores(params, batch.indptr[:-1], batch.feature_ids, batch.values)[:, 0] - y
    loss = float(np.sum(w * 0.5 * resid * resid) / n)
    return loss, _gradient(params, batch, (resid * w / n)[:, None])


# ---------------------------------------------------------------------------
# Model and trainer
# ---------------------------------------------------------------------------

class LinearSgdModel(Model):
    """Linear predictor; softmax scores for classification, raw value for regression."""

    model_class = LINEAR_MODEL_CLASS

    def __init__(self, name, provenance, feature_domain, output_domain, weights: np.ndarray):
        super().__init__(name, provenance, feature_domain, output_domain)
        expected = (len(feature_domain) + 1, len(self.output_domain.labels()) if self.task == CATEGORICAL else 1)
        if weights.shape != expected:
            raise ShapeMismatch(f"weights {weights.shape}, expected {expected}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("model weights must be finite")
        self.weights = weights.copy()
        self.weights.setflags(write=False)

    def _predict_intersected(self, sparse: Mapping[int, float]) -> tuple[Output, dict[str, float]]:
        ids = np.fromiter(sparse, dtype=np.intp, count=len(sparse))
        values = np.fromiter(sparse.values(), dtype=np.float64, count=len(sparse))
        return self._outputs_of(_scores(self.weights, _ONE_ROW, ids, values))[0]

    def _score_compiled(self, columns: Columns) -> list[tuple[Output, dict[str, float]]]:
        """Every row through :func:`_scores` at once, as :meth:`_predict_intersected` scores one."""
        return self._outputs_of(_scores(self.weights, columns.indptr[:-1], columns.feature_ids, columns.values))

    def _outputs_of(self, z: np.ndarray) -> list[tuple[Output, dict[str, float]]]:
        """The predictions for the linear scores ``z``, one row per example.

        The softmax works row by row, so a row's scores are the same bits
        alone or stacked; the first maximum goes to the smallest label, as
        :func:`~pvml.core.argmax_label` breaks ties.
        """
        values = z.ravel().tolist()
        if not all(map(math.isfinite, values)):  # in Python: cheaper than numpy for one row
            raise NonFiniteScore("the linear score of an example overflowed to a non-finite value")
        if self.task == REAL:  # one column, so the values are the rows' outputs
            return [(RealOutput(value), {}) for value in values]
        labels = self.output_domain.labels()
        probs = _softmax(z)
        return [
            (CategoricalOutput(labels[best]), dict(zip(labels, row)))
            for best, row in zip(probs.argmax(axis=1).tolist(), probs.tolist())
        ]


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

        loss = _logistic_loss if cfg.objective == LOGISTIC else _squared_loss
        rng = Xoshiro256StarStar(self.stream_seed(count))
        order = list(range(len(dataset)))
        for _ in range(cfg.epochs):
            rng.shuffle(order)
            shuffled = np.array(order)
            for start in range(0, len(order), cfg.batch_size):
                _, grads = loss(weights, dataset.columns.take(shuffled[start : start + cfg.batch_size]))
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
