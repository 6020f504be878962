"""Mini-batch training loop: seeded shuffling, validation monitoring, early
stopping with best-weight restoration, and loss-history reporting.

Per epoch the training indices are reshuffled, mini-batches are consumed in
order (a trailing batch of one row is dropped because batch normalization
needs at least two), and the epoch training loss is the batch-size-weighted
mean of the per-batch losses seen during the epoch.  Validation always runs
in inference mode.  Early stopping counts epochs since the last strict
improvement of the validation loss; when patience runs out the model is
rolled back to the best epoch's full state (parameters and running
statistics) if restore_best is set.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, SplitIndices, _write_text
from .experiments import Predictor
from .network import Adam, MlpModel, backward, mse_loss


class NonFiniteLossError(RuntimeError):
    """Raised when a training batch produces a NaN or infinite loss."""

    def __init__(self, loss: float, epoch: int, batch_index: int):
        super().__init__(
            f"non-finite training loss {loss} at epoch {epoch}, batch {batch_index}; aborting"
        )
        self.epoch = epoch
        self.batch_index = batch_index


@dataclass
class TrainConfig:
    max_epochs: int = 1000
    batch_size: int = 64
    early_stop_patience: int = 20
    learning_rate: float = 0.0005
    shuffle_seed: int = 3
    restore_best: bool = True

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.early_stop_patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.early_stop_patience}")


@dataclass
class TrainReport:
    train_loss_per_epoch: list[float] = field(default_factory=list)
    val_loss_per_epoch: list[float] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0
    final_train_loss: float = float("nan")
    final_val_loss: float = float("nan")
    test_loss: float = float("nan")
    per_output_test_mse: np.ndarray = field(default_factory=lambda: np.full(4, np.nan))


def evaluate(predict: Predictor, dataset: Dataset, indices) -> tuple[float, np.ndarray]:
    """MSE of predict over the given rows: total and per output column."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("cannot evaluate on an empty index list")
    preds = predict(dataset.inputs[indices])
    per_output = np.mean((preds - dataset.targets[indices]) ** 2, axis=0)
    return float(per_output.mean()), per_output


def train(
    model: MlpModel,
    dataset: Dataset,
    splits: SplitIndices,
    config: TrainConfig,
) -> tuple[MlpModel, TrainReport]:
    """Train in place and report the loss history; deterministic per seeds."""
    train_idx = np.sort(np.asarray(splits.train, dtype=np.int64))
    val_idx = np.asarray(splits.validation, dtype=np.int64)
    if train_idx.size == 0 or val_idx.size == 0:
        raise ValueError("training and validation splits must be nonempty")
    if train_idx.size < config.batch_size:
        raise ValueError(
            f"training split has {train_idx.size} rows, below batch size {config.batch_size}"
        )

    rng = np.random.default_rng(config.shuffle_seed)
    adam = Adam(model.params, learning_rate=config.learning_rate)
    report = TrainReport()

    best_val = np.inf
    best_snapshot = None
    epochs_since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(train_idx)
        loss_sum = 0.0
        rows_seen = 0
        for batch_index, start in enumerate(range(0, order.size, config.batch_size)):
            batch = order[start : start + config.batch_size]
            if batch.size == 1:
                continue  # batchnorm variance is degenerate for a single row
            out, cache = model.forward_train(dataset.inputs[batch])
            loss = mse_loss(out, dataset.targets[batch])
            if not np.isfinite(loss):
                raise NonFiniteLossError(loss, epoch, batch_index)
            grads = backward(model, cache, dataset.targets[batch])
            adam.step(model.params, grads)
            loss_sum += loss * batch.size
            rows_seen += batch.size

        train_loss = loss_sum / rows_seen
        val_loss = mse_loss(model.forward(dataset.inputs[val_idx]), dataset.targets[val_idx])
        report.train_loss_per_epoch.append(train_loss)
        report.val_loss_per_epoch.append(val_loss)
        report.stopped_epoch = epoch

        if val_loss < best_val:
            best_val = val_loss
            report.best_epoch = epoch
            epochs_since_best = 0
            if config.restore_best:
                best_snapshot = model.snapshot()
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.early_stop_patience:
                break

    if config.restore_best and best_snapshot is not None:
        model.restore(best_snapshot)
        report.final_val_loss = best_val
    else:
        report.final_val_loss = report.val_loss_per_epoch[-1]
    report.final_train_loss = report.train_loss_per_epoch[-1]

    if splits.test is not None and np.asarray(splits.test).size > 0:
        report.test_loss, report.per_output_test_mse = evaluate(model.forward, dataset, splits.test)
    return model, report


def save_report(report: TrainReport, csv_path: str | os.PathLike, summary_path: str | os.PathLike) -> None:
    """Write the loss history CSV and a short human-readable summary."""
    history = zip(
        range(1, len(report.train_loss_per_epoch) + 1),
        report.train_loss_per_epoch,
        report.val_loss_per_epoch,
    )
    _write_text(csv_path, ["epoch,train_loss,val_loss"], history)
    summary = [
        f"stopped_epoch {report.stopped_epoch}",
        f"best_epoch {report.best_epoch}",
        ("final_train_loss", [report.final_train_loss]),
        ("final_val_loss", [report.final_val_loss]),
        ("test_loss", [report.test_loss]),
        ("per_output_test_mse", report.per_output_test_mse),
    ]
    _write_text(summary_path, summary)
