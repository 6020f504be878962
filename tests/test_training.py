"""Tests for the mini-batch training loop, early stopping, and evaluation."""

from __future__ import annotations

import threading
from dataclasses import fields

import numpy as np
import pytest

from wignernet.data import Dataset, SamplingRanges, SplitIndices, split_indices
from wignernet.network import ArchitectureSpec, init_model, mse_loss
from wignernet.oscillator import OscillatorConfig
from wignernet.training import (
    TrainConfig,
    TrainReport,
    evaluate,
    save_report,
    train,
)

CFG = OscillatorConfig()


def synthetic_dataset(inputs, targets):
    return Dataset(
        inputs=np.asarray(inputs, dtype=np.float64),
        targets=np.asarray(targets, dtype=np.float64),
        config=CFG,
        seed=0,
        ranges=SamplingRanges(),
    )


def affine_dataset(n=300, seed=0):
    """Targets are an exactly realizable affine map of the inputs."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1.0, 1.0, size=(n, 4))
    matrix = np.array(
        [
            [0.5, -0.2, 0.1, 0.0],
            [0.3, 0.4, 0.0, -0.1],
            [-0.2, 0.1, 0.6, 0.2],
            [0.0, -0.3, 0.2, 0.5],
        ]
    )
    shift = np.array([0.1, -0.2, 0.05, 0.3])
    return synthetic_dataset(inputs, inputs @ matrix.T + shift)


def tiny_model(seed=0, hidden=(16,)):
    return init_model(ArchitectureSpec(hidden_dims=hidden), seed)


class TestTrainConfig:
    def test_defaults_match_protocol(self):
        tc = TrainConfig()
        assert tc.max_epochs == 1000
        assert tc.batch_size == 64
        assert tc.patience == 20
        assert tc.learning_rate == 0.0005

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)

    @pytest.mark.parametrize("lr", [-1.0, 0.0, float("nan"), float("inf")])
    def test_learning_rate_must_be_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            TrainConfig(learning_rate=lr)


class TestTrainLoop:
    def test_learns_affine_target(self):
        """Validation loss on a realizable target falls below 1e-4 within 200 epochs.

        The sanity oracle is the linear model, with no hidden block and so no
        batchnorm: batchnorm's slow-moving running statistics floor the
        inference-mode loss well above what the exactly realizable target admits.
        """
        ds = affine_dataset()
        splits = split_indices(ds.n_rows, seed=1)
        config = TrainConfig(
            max_epochs=200,
            batch_size=32,
            patience=200,
            learning_rate=0.01,
            shuffle_seed=2,
        )
        _, report = train(tiny_model(seed=1, hidden=()), ds, splits, config)
        assert report.final_val_loss < 1e-4
        assert report.final_train_loss < report.train_loss_per_epoch[0] / 100.0

    def test_patience_one_stops_after_immediate_worsening(self):
        """Conflicting train/val targets make validation worsen from epoch 2 on."""
        rng = np.random.default_rng(3)
        inputs = rng.uniform(-1, 1, size=(40, 4))
        targets = np.ones((40, 4))
        splits = SplitIndices(
            train=np.arange(0, 30), validation=np.arange(30, 40), test=np.arange(30, 40)
        )
        targets[splits.validation] = -1.0  # training pulls predictions away from these
        ds = synthetic_dataset(inputs, targets)
        config = TrainConfig(
            max_epochs=50, batch_size=10, patience=1, learning_rate=0.01, shuffle_seed=0
        )
        _, report = train(tiny_model(seed=2), ds, splits, config)
        assert report.stopped_epoch == 2
        assert report.best_epoch == 1
        assert report.val_loss_per_epoch[1] > report.val_loss_per_epoch[0]

    def test_early_stop_bookkeeping_bound(self):
        ds = affine_dataset(n=100, seed=4)
        splits = split_indices(100, seed=4)
        config = TrainConfig(
            max_epochs=300, batch_size=20, patience=5, learning_rate=0.05, shuffle_seed=5
        )
        _, report = train(tiny_model(seed=4), ds, splits, config)
        if report.stopped_epoch < config.max_epochs:  # stopping was patience-triggered
            assert report.stopped_epoch <= report.best_epoch + config.patience

    def test_restore_best_reports_minimum_validation_loss(self):
        ds = affine_dataset(n=120, seed=5)
        splits = split_indices(120, seed=5)
        config = TrainConfig(
            max_epochs=40, batch_size=16, patience=40, learning_rate=0.02, shuffle_seed=6
        )
        model, report = train(tiny_model(seed=5), ds, splits, config)
        assert len(report.train_loss_per_epoch) == report.stopped_epoch
        assert len(report.val_loss_per_epoch) == report.stopped_epoch
        assert report.best_epoch <= report.stopped_epoch
        assert report.final_val_loss == min(report.val_loss_per_epoch)
        # The restored parameters actually reproduce that loss.
        val_loss = mse_loss(
            model.forward(ds.inputs[splits.validation]), ds.targets[splits.validation]
        )
        assert val_loss == pytest.approx(report.final_val_loss, rel=1e-12)

    def test_no_finite_validation_loss_restores_nothing(self):
        ds = affine_dataset(n=40, seed=5)
        splits = split_indices(40, seed=5)
        ds.targets[splits.validation] = np.nan
        config = TrainConfig(
            max_epochs=10, batch_size=16, patience=3, learning_rate=0.02, shuffle_seed=6
        )
        _, report = train(tiny_model(seed=5), ds, splits, config)
        assert (report.stopped_epoch, report.best_epoch) == (3, 0)
        assert np.isnan(report.final_val_loss)  # the last epoch's, not a best one's
        assert report.final_train_loss == report.train_loss_per_epoch[-1]
        assert np.isfinite(report.test_loss)

    def test_deterministic_given_seeds(self):
        ds = affine_dataset(n=80, seed=6)
        splits = split_indices(80, seed=6)
        config = TrainConfig(
            max_epochs=15, batch_size=16, patience=15, learning_rate=0.01, shuffle_seed=7
        )
        model_a, report_a = train(tiny_model(seed=6), ds, splits, config)
        model_b, report_b = train(tiny_model(seed=6), ds, splits, config)
        assert report_a.train_loss_per_epoch == report_b.train_loss_per_epoch
        assert report_a.val_loss_per_epoch == report_b.val_loss_per_epoch
        for pa, pb in zip(model_a.state_arrays(), model_b.state_arrays()):
            assert np.array_equal(pa, pb)

    def test_trailing_single_row_batch_is_dropped(self):
        """A train split of 9 rows with batch 4 leaves a one-row tail batchnorm can't use."""
        ds = affine_dataset(n=20, seed=7)
        splits = SplitIndices(
            train=np.arange(0, 9), validation=np.arange(9, 15), test=np.arange(15, 20)
        )
        config = TrainConfig(
            max_epochs=3, batch_size=4, patience=3, learning_rate=0.01, shuffle_seed=8
        )
        _, report = train(tiny_model(seed=7), ds, splits, config)  # must not raise
        assert report.stopped_epoch == 3

    def test_non_finite_loss_aborts_with_location(self):
        ds = affine_dataset(n=40, seed=8)
        ds.targets[5, 2] = np.nan  # poisoned row sits in the training split
        splits = SplitIndices(
            train=np.arange(0, 30), validation=np.arange(30, 35), test=np.arange(35, 40)
        )
        config = TrainConfig(
            max_epochs=5, batch_size=30, patience=5, learning_rate=0.01, shuffle_seed=9
        )
        with pytest.raises(RuntimeError) as excinfo:
            train(tiny_model(seed=8), ds, splits, config)
        assert str(excinfo.value) == "non-finite training loss nan at epoch 1, batch 0; aborting"

    def test_rejects_undersized_training_split(self):
        ds = affine_dataset(n=20, seed=9)
        splits = SplitIndices(
            train=np.arange(0, 4), validation=np.arange(4, 12), test=np.arange(12, 20)
        )
        with pytest.raises(ValueError, match="has 4 rows, below training.batch_size 8"):
            train(tiny_model(), ds, splits, TrainConfig(batch_size=8, max_epochs=1))

    def test_rejects_empty_validation_split(self):
        ds = affine_dataset(n=20, seed=9)
        splits = SplitIndices(
            train=np.arange(0, 16), validation=np.arange(0, 0), test=np.arange(16, 20)
        )
        with pytest.raises(ValueError, match="nonempty"):
            train(tiny_model(), ds, splits, TrainConfig(batch_size=8, max_epochs=1))


class TestTrainingThreads:
    """A training step runs on the calling thread alone."""

    def test_repeated_training_starts_no_thread(self):
        before = threading.active_count()
        config = TrainConfig(max_epochs=2, batch_size=16, patience=2, learning_rate=0.01)
        for seed in range(5):
            ds = affine_dataset(n=80, seed=seed)
            train(tiny_model(seed=seed, hidden=(16, 8)), ds, split_indices(80, seed), config)
        assert threading.active_count() == before


class TestEvaluate:
    def test_exact_model_scores_zero(self):
        """Zeroed network whose output bias equals the constant target."""
        model = tiny_model(seed=0)
        for dense, _ in model.blocks:
            dense.weights[...] = 0.0
        model.output_layer.weights[...] = 0.0
        model.output_layer.bias[...] = [1.0, -2.0, 0.5, 3.0]
        inputs = np.random.default_rng(0).normal(size=(30, 4))
        targets = np.tile([1.0, -2.0, 0.5, 3.0], (30, 1))
        ds = synthetic_dataset(inputs, targets)
        total, per_output = evaluate(model.forward, ds, np.arange(30))
        assert total == 0.0
        assert np.array_equal(per_output, np.zeros(4))

    def test_constant_zero_model_scores_column_second_moments(self):
        model = tiny_model(seed=1)
        for dense, _ in model.blocks:
            dense.weights[...] = 0.0
            dense.bias[...] = 0.0
        model.output_layer.weights[...] = 0.0
        model.output_layer.bias[...] = 0.0
        rng = np.random.default_rng(1)
        ds = synthetic_dataset(rng.normal(size=(50, 4)), rng.normal(size=(50, 4)))
        total, per_output = evaluate(model.forward, ds, np.arange(50))
        moments = np.mean(ds.targets**2, axis=0)
        assert np.allclose(per_output, moments, rtol=1e-12)
        assert total == pytest.approx(moments.mean(), rel=1e-12)

    def test_invariant_to_index_order(self):
        model = tiny_model(seed=2)
        rng = np.random.default_rng(2)
        ds = synthetic_dataset(rng.normal(size=(40, 4)), rng.normal(size=(40, 4)))
        idx = np.arange(40)
        total_a, per_a = evaluate(model.forward, ds, idx)
        total_b, per_b = evaluate(model.forward, ds, rng.permutation(idx))
        assert total_a == pytest.approx(total_b, rel=1e-12)
        assert np.allclose(per_a, per_b, rtol=1e-12)

    def test_empty_index_list_rejected(self):
        ds = affine_dataset(n=20)
        with pytest.raises(ValueError):
            evaluate(tiny_model().forward, ds, np.array([], dtype=int))


class TestSaveReport:
    def test_report_files(self, tmp_path):
        report = TrainReport(
            train_loss_per_epoch=[0.5, 0.25],
            val_loss_per_epoch=[0.6, 0.3],
            stopped_epoch=2,
            best_epoch=2,
            final_train_loss=0.25,
            final_val_loss=0.3,
            test_loss=0.31,
            per_output_test_mse=np.array([0.1, 0.2, 0.3, 0.4]),
        )
        csv_path = tmp_path / "history.csv"
        summary_path = tmp_path / "summary.txt"
        save_report(report, csv_path, summary_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 3
        assert lines[1].startswith("1,0.5")
        summary = summary_path.read_text()
        assert "best_epoch 2" in summary
        assert "test_loss 0.31" in summary

    def test_summary_labels_are_the_reports_scalar_fields(self, tmp_path):
        """summary.txt has one line per TrainReport field, in field order, but the
        per-epoch lists, which history.csv holds."""
        report = TrainReport(train_loss_per_epoch=[0.5], val_loss_per_epoch=[0.6])
        save_report(report, tmp_path / "history.csv", tmp_path / "summary.txt")
        labels = [line.split()[0] for line in (tmp_path / "summary.txt").read_text().splitlines()]
        scalars = [f.name for f in fields(TrainReport) if not f.name.endswith("_per_epoch")]
        assert labels == scalars == [
            "stopped_epoch", "best_epoch", "final_train_loss", "final_val_loss", "test_loss",
            "per_output_test_mse",
        ]
