"""The Adam optimizer, the fine-tuning loop, and the evaluation protocol."""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import seeds
from .autodiff import no_grad
from .domain import StationGraph, Windows, usable_cpus
from .errors import ConfigError, DataError, NumericError
from .losses import LossConfig, combined_loss, metrics
from .model import FREEZE_MODES, PfgaModel, forward_batch

__all__ = [
    "TrainConfig",
    "Adam",
    "FitResult",
    "EvalReport",
    "fit",
    "evaluate",
    "check_finite",
    "persistence_forecast",
]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    max_epochs: int = 300
    batch_size: int = 64
    seed: int = 0
    freeze_mode: str = "partial"

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be positive")
        if self.max_epochs < 1 or self.batch_size < 1:
            raise ConfigError("max_epochs and batch_size must be positive")
        if self.freeze_mode not in FREEZE_MODES:
            raise ConfigError(f"freeze_mode must be one of {FREEZE_MODES}")


# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# windows in flight in fit's validation and in evaluate, one default training batch, so inference
# holds no more activations than a training step: w threads take passes of ceil(_EVAL_CHUNK / w)
# windows each. The predictions depend on neither the chunk nor the thread count
_EVAL_CHUNK = 64
# most inference threads, so passes keep at least _EVAL_CHUNK / 2 windows: on two CPUs, two threads
# with passes of 32 windows beat the serial loop, but passes of 4 windows or fewer ran slower on threads
_EVAL_THREADS = 2


class Adam:
    """Adaptive-moment estimation with bias correction."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(t.data) for t in self.params]
        self.v = [np.zeros_like(t.data) for t in self.params]
        self.t = 0

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = ADAM_BETA1 * self.m[i] + (1.0 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1.0 - ADAM_BETA2) * g * g
            m_hat = self.m[i] / (1.0 - ADAM_BETA1**self.t)
            v_hat = self.v[i] / (1.0 - ADAM_BETA2**self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class FitResult:
    log: list  # (epoch, train_loss, valid_mae) tuples
    best_epoch: int
    best_valid_mae: float


def fit(
    model: PfgaModel,
    train: Windows,
    valid: Windows,
    graph: StationGraph,
    train_cfg: TrainConfig,
    loss_cfg: LossConfig,
) -> FitResult:
    """Seeded Adam mini-batch descent on the combined loss over trainable parameters.

    Per epoch the training windows are reshuffled from the train.shuffle
    substream, the validation MAE is logged, and the best-validation parameter
    state is retained and restored into the model at the end. A non-finite loss
    aborts with the offending epoch. The ablations are set before the call:
    loss_cfg.lambda_freq = 0 drops the frequency term, and the blocks'
    ``masked`` marks (see ``freeze_and_adapt``) decide graph masking.
    """
    if len(train) == 0 or len(valid) == 0:
        raise DataError("fit requires non-empty train and validation sets")
    params = model.trainable_parameters()
    optimizer = Adam([t for _, t in params], train_cfg.learning_rate)
    rng = seeds.substream(train_cfg.seed, "train.shuffle")
    adjacency = graph.adjacency

    log = []
    best = None  # (valid_mae, epoch, state)
    n = len(train)
    for epoch in range(1, train_cfg.max_epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, train_cfg.batch_size):
            hist, target, hours, dows = train.take(order[lo : lo + train_cfg.batch_size])
            pred = forward_batch(model, hist, hours, dows, adjacency)
            loss = combined_loss(pred, target, loss_cfg)
            value = float(loss.data)
            if not np.isfinite(value):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            loss.backward()
            optimizer.step()
            total += value * len(hours)
        train_loss = total / n

        valid_mae = float(np.mean(np.abs(_predict(model, valid, adjacency) - valid.target)))
        if not np.isfinite(valid_mae):
            raise NumericError(f"non-finite validation error at epoch {epoch}")
        log.append((epoch, train_loss, valid_mae))
        if best is None or valid_mae < best[0]:
            best = (valid_mae, epoch, [(name, t.data.copy()) for name, t in params])

    by_name = dict(params)
    for name, data in best[2]:
        by_name[name].data = data
    return FitResult(log=log, best_epoch=best[1], best_valid_mae=best[0])


def persistence_forecast(windows: Windows) -> np.ndarray:
    """Repeat each window's last observed target-channel value across the horizon."""
    return np.repeat(windows.history[:, -1:, :, 0:1], windows.target.shape[1], axis=1)


@dataclass
class EvalReport:
    per_step: list  # one metrics dict per horizon step, index 0 = one step ahead
    aggregate: dict
    baseline: dict
    predictions: np.ndarray  # (n_windows, S, N, 1)
    truths: np.ndarray

    def as_json_dict(self) -> dict:
        return {
            "aggregate": self.aggregate,
            "per_step": self.per_step,
            "persistence_baseline": self.baseline,
        }


def _on_threads(run, count: int, workers: int) -> None:
    """run(k) for every k in range(count), on this thread and workers - 1 helpers.

    Each thread takes the next k until none is left. Once one run raises, no
    thread starts another; the first exception is raised here after every
    helper has stopped.
    """
    lock = threading.Lock()
    todo = iter(range(count))
    errors = []

    def work():
        while True:
            with lock:
                k = None if errors else next(todo, None)
            if k is None:
                return
            try:
                run(k)
            except BaseException as exc:  # raised again in the calling thread
                with lock:
                    errors.append(exc)
                return

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]


def _predict(model: PfgaModel, windows: Windows, adjacency: np.ndarray) -> np.ndarray:
    """Predictions (B, S, N, 1) for every window, from tape-free passes on up to _EVAL_THREADS threads.

    With w = min(usable CPUs, _EVAL_THREADS, ceil(B / _EVAL_CHUNK)) threads,
    each pass takes ceil(_EVAL_CHUNK / w) windows, so at most _EVAL_CHUNK are in
    flight. A window's prediction does not depend on the windows in its pass, so
    the result is the same bits for every w; with w = 1 the calling thread runs
    the passes in turn.
    """
    workers = min(usable_cpus(), _EVAL_THREADS, -(-len(windows) // _EVAL_CHUNK))
    size = -(-_EVAL_CHUNK // workers)
    starts = range(0, len(windows), size)
    preds = [None] * len(starts)

    def run(k):
        hist, _, hours, dows = windows.take(slice(starts[k], starts[k] + size))
        with no_grad():  # per thread: a helper enters it itself
            preds[k] = forward_batch(model, hist, hours, dows, adjacency).data

    _on_threads(run, len(starts), workers)
    return np.concatenate(preds)


def check_finite(predictions: np.ndarray, node_ids) -> None:
    """Raise ``NumericError`` naming the first non-finite entry of predictions (B, S, N, 1)."""
    if not np.isfinite(predictions).all():
        window, step, station, _ = np.argwhere(~np.isfinite(predictions))[0]
        raise NumericError(f"non-finite prediction for window {window}, step {step + 1}, station {node_ids[station]!r}")


def evaluate(model: PfgaModel, test: Windows, graph: StationGraph) -> EvalReport:
    if len(test) == 0:
        raise DataError("evaluate requires a non-empty test set")
    predictions = _predict(model, test, graph.adjacency)
    check_finite(predictions, graph.node_ids)
    truth = np.ascontiguousarray(test.target)

    per_step = [metrics(predictions[:, s], truth[:, s]) for s in range(predictions.shape[1])]
    aggregate = metrics(predictions, truth)
    baseline = metrics(persistence_forecast(test), truth)
    return EvalReport(
        per_step=per_step,
        aggregate=aggregate,
        baseline=baseline,
        predictions=predictions,
        truths=truth,
    )
