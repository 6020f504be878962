"""End-to-end tests of the command-line pipeline on small configurations."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from wignernet.cli import default_config, main
from wignernet.data import load_dataset, load_splits
from wignernet.network import ArchitectureSpec, init_model, save_model


def run(*argv):
    return main([str(a) for a in argv])


def small_config(tmp_path, **overrides):
    """Config with a small dataset and short training so tests stay quick."""
    cfg = {
        "dataset": {"n_samples": 200},
        "network": {"hidden_dims": [16, 8]},
        "training": {"max_epochs": 2, "batch_size": 16, "patience": 2},
        "out_dir": str(tmp_path / "run"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_readme_json_block_is_the_default_config(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == default_config()


class TestGenerate:
    def test_writes_dataset_and_splits(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        ds = load_dataset(tmp_path / "run" / "dataset.csv")
        splits = load_splits(tmp_path / "run" / "splits.csv")
        assert ds.n_rows == 200
        assert (splits.train.size, splits.validation.size, splits.test.size) == (160, 20, 20)
        out = capsys.readouterr().out
        assert "clamp rate" in out
        assert "hbar" in out

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("generate", "--config", cfg, "--out-dir", out_a, "--n", 100, "--seed", 7) == 0
        assert run("generate", "--config", cfg, "--out-dir", out_b, "--n", 100, "--seed", 7) == 0
        for name in ("dataset.csv", "splits.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_unwritable_output_directory_fails(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg = small_config(tmp_path, out_dir=str(blocker / "sub"))
        assert run("generate", "--config", cfg) != 0

    def test_unknown_config_key_fails(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"bogus": 1}))
        assert run("generate", "--config", path) != 0


class TestTrain:
    def test_single_epoch_run(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        assert run("train", "--config", cfg, "--max-epochs", 1) == 0
        history = (tmp_path / "run" / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss"
        assert len(history) == 2  # exactly one epoch recorded
        assert (tmp_path / "run" / "model.txt").exists()
        assert "test loss" in capsys.readouterr().out

    def test_retraining_is_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        assert run("train", "--config", cfg) == 0
        first = (tmp_path / "run" / "model.txt").read_bytes()
        assert run("train", "--config", cfg) == 0
        assert (tmp_path / "run" / "model.txt").read_bytes() == first

    def test_missing_dataset_fails(self, tmp_path):
        cfg = small_config(tmp_path)
        assert run("train", "--config", cfg) != 0


class TestEval:
    def test_oracle_mode_scores_zero(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        assert run("eval", "--config", cfg, "--oracle") == 0
        eval_text = (tmp_path / "run" / "eval.txt").read_text()
        assert "test_mse 0\n" in eval_text
        assert "test MSE 0" in capsys.readouterr().out

    def test_trained_model_reports_finite_mse(self, tmp_path):
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        assert run("train", "--config", cfg) == 0
        assert run("eval", "--config", cfg) == 0
        eval_lines = (tmp_path / "run" / "eval.txt").read_text().splitlines()
        mse = float(eval_lines[1].split()[1])
        per_output = [float(v) for v in eval_lines[2].split()[1:]]
        assert np.isfinite(mse)
        assert len(per_output) == 4

    def test_input_dimension_mismatch_fails(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        bad = init_model(ArchitectureSpec(input_dim=3, hidden_dims=(8,), output_dim=4), 0)
        save_model(bad, tmp_path / "bad_model.txt")
        assert run("eval", "--config", cfg, "--model", tmp_path / "bad_model.txt") != 0
        assert "shape (B, 3)" in capsys.readouterr().err


class TestSplitCoverage:
    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("dataset_rows, split_rows", [(100, 300), (300, 100)])
    def test_split_file_must_cover_the_dataset(
        self, tmp_path, capsys, command, dataset_rows, split_rows
    ):
        """A split file for another dataset size fails and names both row counts."""
        cfg = small_config(tmp_path)
        for n in (dataset_rows, split_rows):
            assert run("generate", "--config", cfg, "--out-dir", tmp_path / f"n{n}", "--n", n) == 0
        data_dir = tmp_path / f"n{dataset_rows}"
        if command == "eval":
            assert run("train", "--config", cfg, "--out-dir", data_dir, "--max-epochs", 1) == 0
        capsys.readouterr()
        splits = tmp_path / f"n{split_rows}" / "splits.csv"
        assert run(command, "--config", cfg, "--out-dir", data_dir, "--splits", splits) != 0
        err = capsys.readouterr().err
        assert f"split file has {split_rows} rows, dataset has {dataset_rows}" in err


class TestSweep:
    def test_oracle_sweep_is_exact(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        assert run("sweep", "--config", cfg, "--oracle") == 0
        lines = (tmp_path / "run" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 51  # header + 50 log-spaced hbar values
        rel_err = np.array([float(l.split(",")[3]) for l in lines[1:]])
        assert np.all(rel_err <= 1e-12)
        hbar = np.array([float(l.split(",")[0]) for l in lines[1:]])
        assert hbar[0] == pytest.approx(1e-6)
        assert hbar[-1] == pytest.approx(1.0)
        out = capsys.readouterr().out
        assert "median rel err" in out
        assert "decreasing below trained range: True" in out

    def test_sweep_without_model_fails(self, tmp_path):
        cfg = small_config(tmp_path)
        assert run("sweep", "--config", cfg) != 0


class TestPhaseSpace:
    def test_oracle_grids_for_default_hbars(self, tmp_path):
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        assert run("phasespace", "--config", cfg, "--oracle") == 0
        for tag in ("1", "0p1", "0p01"):
            path = tmp_path / "run" / f"phasespace_hbar_{tag}.csv"
            assert path.exists(), f"missing {path.name}"
            rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
            assert len(rows) == 100

    def test_degenerate_model_fails_per_hbar(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        # A fresh untrained-but-saved model may be fine; force degeneracy instead
        # with a model whose output bias fixes negative widths.
        model = init_model(ArchitectureSpec(hidden_dims=(8,)), 0)
        for dense, _ in model.blocks:
            dense.weights[...] = 0.0
        model.output_layer.weights[...] = 0.0
        model.output_layer.bias[...] = [0.0, 0.0, -1.0, -1.0]
        save_model(model, tmp_path / "degenerate.txt")
        assert run("phasespace", "--config", cfg, "--model", tmp_path / "degenerate.txt") != 0
        assert "degenerate" in capsys.readouterr().err


class TestPipelineDeterminism:
    def test_full_small_pipeline_is_reproducible(self, tmp_path):
        """generate -> train -> sweep -> phasespace twice: byte-identical artifacts."""
        outputs = []
        for name in ("x", "y"):
            out_dir = tmp_path / name
            cfg_dir = tmp_path / f"cfg_{name}"
            cfg_dir.mkdir()
            # Enough training that the probe-point widths come out positive.
            cfg = small_config(
                cfg_dir,
                out_dir=str(out_dir),
                training={"max_epochs": 25, "batch_size": 16, "patience": 25,
                          "learning_rate": 0.005},
            )
            assert run("generate", "--config", cfg) == 0
            assert run("train", "--config", cfg) == 0
            assert run("eval", "--config", cfg) == 0
            assert run("sweep", "--config", cfg) == 0
            assert run("phasespace", "--config", cfg) == 0
            outputs.append(out_dir)
        files_a = sorted(p.name for p in outputs[0].iterdir())
        files_b = sorted(p.name for p in outputs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name
