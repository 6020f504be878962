"""End-to-end tests of the command-line pipeline on small configurations."""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from wignernet.cli import _FLAGS, RunConfig, build_parser, default_config, main
from wignernet.data import SamplingRanges, load_dataset, load_splits
from wignernet.experiments import PhaseSpaceSpec, SweepSpec
from wignernet.network import ArchitectureSpec, init_model, save_model
from wignernet.oscillator import DOMAIN, OscillatorConfig, evolve_batch
from wignernet.training import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*argv):
    return main([str(a) for a in argv])


def flat(node, prefix=""):
    """The dotted keys of the leaves of nested dict `node`."""
    for k, v in node.items():
        yield from flat(v, f"{prefix}{k}.") if isinstance(v, dict) else [prefix + k]


def section_keys(owner):
    """The names of config dataclass `owner`'s section keys: its init fields."""
    return [f.name for f in fields(owner) if f.init]


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
        block = README.read_text(encoding="utf-8").split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == default_config()

    def test_section_keys_are_their_dataclass_fields(self):
        """Each section lists exactly its dataclass's init fields; every other key
        is a RunConfig field of its own."""
        cfg = default_config()
        sections = {f.metadata["key"]: f.type for f in fields(RunConfig) if is_dataclass(f.type)}
        assert sections == {"oscillator": OscillatorConfig, "sampling": SamplingRanges,
                            "network": ArchitectureSpec, "training": TrainConfig,
                            "sweep": SweepSpec, "phasespace": PhaseSpaceSpec}
        own = {f.metadata["key"] for f in fields(RunConfig) if not is_dataclass(f.type)}
        assert own == {"dataset.n_samples", "dataset.seed", "dataset.split_seed",
                       "network.init_seed", "out_dir"}
        keys = set()
        for section, owner in sections.items():
            names = section_keys(owner)
            assert [k for k in cfg[section] if f"{section}.{k}" not in own] == names
            keys |= {f"{section}.{name}" for name in names}
        assert set(flat(cfg)) - keys == own

    def test_one_leaf_per_declared_key(self):
        """No key field lands on a section's key or on another key field."""
        declared = [len(section_keys(f.type)) if is_dataclass(f.type) else 1
                    for f in fields(RunConfig)]
        assert len(list(flat(default_config()))) == sum(declared)

    def test_default_config_reads_back_as_the_stock_run(self):
        """Compared by repr, which shows each init field and leaves out the derived
        arrays (SweepSpec.hbar_values), whose == is elementwise."""
        rc = RunConfig.from_dict(default_config())
        stock = {"oscillator": OscillatorConfig(), "ranges": SamplingRanges(), "n_samples": 10000,
                 "data_seed": 42, "split_seed": 7, "arch": ArchitectureSpec(), "init_seed": 1,
                 "train_config": TrainConfig(), "sweep_spec": SweepSpec(),
                 "phasespace_spec": PhaseSpaceSpec(), "out_dir": Path("runs/default")}
        assert {f.name: repr(getattr(rc, f.name)) for f in fields(rc)} == {
            name: repr(value) for name, value in stock.items()}

    def test_readme_domain_table_is_the_domain(self):
        """Each row's interval is oscillator.DOMAIN's for the quantity of each key in it."""
        text = README.read_text(encoding="utf-8")
        table = text.split("| quantity | config keys | closed interval |\n|---|---|---|\n", 1)[1]
        quantities = set()
        for line in table[: table.index("\n\n")].splitlines():
            _, _, keys, interval, _ = line.split("|")
            bounds = tuple(float(v) for v in re.findall(r"[-\w.]+", interval))
            for key in re.findall(r"`([^`]+)`", keys):
                name = key.split(".")[-1]
                quantity = {"hbar_values": "hbar", "grid_min": "grid", "grid_max": "grid"}.get(
                    name, name.removesuffix("_min").removesuffix("_max")
                )
                assert bounds == DOMAIN[quantity], key
                quantities.add(quantity)
        assert quantities == set(DOMAIN)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dataset.n_samples", 2.5),
            ("dataset.seed", 2.5),
            ("dataset.split_seed", 2.5),
            ("network.init_seed", 2.5),
            ("training.max_epochs", 2.5),
            ("training.batch_size", 2.5),
            ("training.patience", 2.5),
            ("training.shuffle_seed", 2.5),
            ("sweep.n_points", 2.5),
            ("phasespace.grid_points", 2.5),
            ("training.max_epochs", True),
            ("training.patience", 20.0),
        ],
    )
    def test_integer_key_rejects_other_numbers(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(nested(key, value)))
        for command in ("generate", "train", "eval", "sweep", "phasespace"):
            assert run(command, "--config", cfg, "--out-dir", tmp_path / "run") == 1
            err = capsys.readouterr().err
            assert err == f"error: config key {key!r} must be an integer, got {value!r}\n"

    @pytest.mark.parametrize("value", [[8.7], [16, True], 8])
    def test_hidden_dims_take_integers_only(self, tmp_path, capsys, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(nested("network.hidden_dims", value)))
        assert run("train", "--config", cfg, "--out-dir", tmp_path / "run") == 1
        message = f"config key 'network.hidden_dims' must be a list of integers, got {value!r}"
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("oscillator.t", "5", "a finite number"),
            ("oscillator.t", None, "a finite number"),
            ("oscillator.t", True, "a finite number"),
            ("oscillator.omega", float("inf"), "a finite number"),
            ("sampling.x0", [float("-inf"), 5], "a list of 2 finite numbers"),
            ("sampling.x0", [-5, 0, 5], "a list of 2 finite numbers"),
            ("phasespace.hbar_values", 1.0, "a list of finite numbers"),
            ("out_dir", 5, "a string"),
        ],
        ids=["t-string", "t-null", "t-true", "omega-infinite", "x0-infinite-bound",
             "x0-three-values", "hbar_values-scalar", "out_dir-int"],
    )
    def test_value_must_have_its_defaults_json_type(self, tmp_path, capsys, key, value, expected):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(nested(key, value)))
        assert run("generate", "--config", cfg, "--out-dir", tmp_path / "run") == 1
        message = f"config key {key!r} must be {expected}, got {value!r}"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_restore_best_is_not_a_key(self, tmp_path, capsys):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps(nested("training.restore_best", True)))
        assert run("train", "--config", cfg, "--out-dir", tmp_path / "run") == 1
        assert capsys.readouterr().err == "error: unknown config key 'training.restore_best'\n"

    def test_batchnorm_is_not_a_key(self, tmp_path, capsys):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps(nested("network.batchnorm", True)))
        assert run("train", "--config", cfg, "--out-dir", tmp_path / "run") == 1
        assert capsys.readouterr().err == "error: unknown config key 'network.batchnorm'\n"

    def test_float_keys_take_integers(self, tmp_path):
        cfg = small_config(tmp_path, oscillator={"t": 5, "m": 1},
                           training={"max_epochs": 1, "batch_size": 16, "learning_rate": 1})
        assert run("generate", "--config", cfg) == 0
        assert run("train", "--config", cfg) == 0

    @pytest.mark.parametrize(
        "text, message",
        [("[1, 2]", "config must be a JSON object, got list"),
         ("null", "config must be a JSON object, got NoneType"),
         ("{'out_dir': 'x'}",
          "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
         ("", "Expecting value: line 1 column 1 (char 0)")],
        ids=["list", "null", "single-quotes", "empty"],
    )
    def test_config_file_that_is_not_a_json_object_fails_naming_it(
        self, tmp_path, capsys, text, message
    ):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        for command in ("generate", "train", "eval", "sweep", "phasespace"):
            assert run(command, "--config", cfg, "--out-dir", tmp_path / "run") == 1
            assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "sweep", "phasespace"])
    def test_command_that_fails_on_a_missing_dataset_leaves_no_out_dir(self, tmp_path, capsys, command):
        out_dir = tmp_path / "run"
        assert run(command, "--out-dir", out_dir) == 1
        assert str(out_dir / "dataset.csv") in capsys.readouterr().err
        assert not out_dir.exists()

    def test_out_dir_is_made_by_the_first_write(self, tmp_path):
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        run_dir, out_dir = tmp_path / "run", tmp_path / "new" / "nested"
        assert run("eval", "--oracle", "--dataset", run_dir / "dataset.csv",
                   "--splits", run_dir / "splits.csv", "--out-dir", out_dir) == 0
        assert [p.name for p in out_dir.iterdir()] == ["eval.txt"]


# Every flag each command takes; a flag not listed for a command is rejected.
COMMAND_FLAGS = {
    "generate": ["--config", "--out-dir", "--n", "--seed"],
    "train": [
        "--config", "--out-dir", "--dataset", "--splits", "--max-epochs", "--batch-size",
        "--patience", "--lr", "--init-seed", "--shuffle-seed",
    ],
    "eval": ["--config", "--out-dir", "--dataset", "--splits", "--model", "--oracle"],
    "sweep": ["--config", "--out-dir", "--model", "--dataset", "--oracle"],
    "phasespace": ["--config", "--out-dir", "--model", "--dataset", "--oracle"],
}

# A value for each setting flag that changes what generate or train writes.
FLAG_VALUES = {
    "--n": 120,
    "--seed": 5,
    "--max-epochs": 1,
    "--batch-size": 32,
    "--patience": 1,
    "--lr": 0.002,
    "--init-seed": 4,
    "--shuffle-seed": 9,
}

OUTPUTS = {"generate": ["dataset.csv", "splits.csv"], "train": ["model.bin", "history.csv"]}


def nested(key, value):
    """The config dict that sets the dotted key `key` to `value`."""
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


def merged(cfg, override):
    """cfg with the nested dict `override` merged into it, in place."""
    for key, value in override.items():
        cfg[key] = merged(cfg.get(key, {}), value) if isinstance(value, dict) else value
    return cfg


class TestFlags:
    def test_readme_flag_table_is_the_flags(self):
        table = {}
        for line in README.read_text(encoding="utf-8").splitlines():
            if line.startswith("| `--"):
                flag, key, takes = (re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:4])
                table[flag[0]] = (key[0], tuple(takes) if takes else tuple(COMMAND_FLAGS))
        assert list(table.items()) == list(_FLAGS.items())

    def test_every_flag_names_a_config_key(self):
        for flag, (key, _) in _FLAGS.items():
            node = default_config()
            for part in key.split("."):
                assert isinstance(node, dict) and part in node, (flag, key)
                node = node[part]

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_each_command_takes_exactly_its_flags(self, command, capsys):
        every_flag = {flag for flags in COMMAND_FLAGS.values() for flag in flags}
        for flag in sorted(every_flag):
            argv = [command, flag] + ([] if flag == "--oracle" else ["1"])
            if flag in COMMAND_FLAGS[command]:
                build_parser().parse_args(argv)
            else:
                with pytest.raises(SystemExit):
                    build_parser().parse_args(argv)
        capsys.readouterr()

    @pytest.mark.parametrize("flag", list(_FLAGS))
    def test_flag_writes_what_its_config_key_writes(self, tmp_path, flag):
        """The flag and its key in --config give the same bytes, and not the
        bytes of a run without either."""
        key, commands = _FLAGS[flag]
        command = "generate" if "generate" in commands else "train"
        written = []
        for way in ("flag", "config", "neither"):
            base = tmp_path / way
            base.mkdir()
            value = str(base / "moved") if flag == "--out-dir" else FLAG_VALUES[flag]
            overrides = merged(
                {"training": {"max_epochs": 8, "learning_rate": 0.02}},  # val loss rises at epoch 2
                nested(key, value) if way == "config" else {},
            )
            cfg = small_config(base, **overrides)
            extra = [flag, value] if way == "flag" else []
            out_dir = Path(value) if way != "neither" and flag == "--out-dir" else base / "run"
            if command == "train":
                assert run("generate", "--config", cfg, "--out-dir", out_dir) == 0
            assert run(command, "--config", cfg, *extra) == 0
            written.append([(out_dir / name).read_bytes() for name in OUTPUTS[command]])
        assert written[0] == written[1]
        if flag != "--out-dir":
            assert written[0] != written[2]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--batch-size", 1, "batch_size must be >= 2, got 1"),
            ("--max-epochs", 0, "max_epochs must be >= 1, got 0"),
            ("--patience", 0, "patience must be >= 1, got 0"),
            ("--lr", -1.0, "learning_rate must be positive and finite, got -1.0"),
        ],
    )
    def test_bad_flag_fails_as_the_config_does(self, tmp_path, capsys, flag, value, message):
        key, _ = _FLAGS[flag]
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(merged(json.loads(cfg.read_text()), nested(key, value))))
        capsys.readouterr()
        errors = []
        for argv in (["--config", cfg, flag, value], ["--config", bad]):
            assert run("train", *argv) == 1
            errors.append(capsys.readouterr().err)
        section, _ = key.split(".")
        assert errors[0] == errors[1] == f"error: {section}.{message}\n"


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

    def test_uncertainty_share_is_the_written_datasets(self, tmp_path, capsys):
        """The share generate prints is that of dataset.csv's rows whose labels give
        sigma_xt*sigma_pt < hbar/2, which these ranges make far from 0."""
        cfg = small_config(tmp_path, sampling={"sigma_x0": [0.5, 0.7], "hbar_log10": [-0.3, 0.0]})
        assert run("generate", "--config", cfg) == 0
        ds = load_dataset(tmp_path / "run" / "dataset.csv")
        _, _, sigma_xt, sigma_pt = ds.targets.T
        share = np.mean(sigma_xt * sigma_pt < ds.inputs[:, 3] / 2)
        assert 0.2 < share < 0.8
        last = capsys.readouterr().out.splitlines()[-1]
        bound = "share of rows below the uncertainty bound (sigma_xt*sigma_pt < hbar/2)"
        assert last == f"{bound}: {share:.6g}"

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

    @pytest.mark.parametrize(
        "bounds, end",
        [([150, 200], "min 150"), ([-400, -300], "min -400"), ([-6, 400], "max 400")],
        ids=["1e200", "0", "inf"],
    )
    def test_hbar_range_beyond_the_closed_form_fails_naming_its_key(
        self, tmp_path, capsys, bounds, end
    ):
        cfg = small_config(tmp_path, dataset={"n_samples": 20}, sampling={"hbar_log10": bounds})
        assert run("generate", "--config", cfg) == 1
        assert capsys.readouterr().err == f"error: sampling.hbar_log10 {end} is outside [-12, 3]\n"
        assert not (tmp_path / "run" / "dataset.csv").exists()

    def test_sampled_mean_beyond_float64_fails_naming_its_keys(self, tmp_path, capsys):
        big = {"x0": [1e308, 1.7e308], "p0": [1e308, 1.7e308]}
        cfg = small_config(tmp_path, dataset={"n_samples": 20}, sampling=big)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("generate", "--config", cfg) == 1
        assert caught == []
        assert capsys.readouterr().err == (
            "error: sampling.x0 min 1e+308 is outside [-1e+06, 1e+06]\n"
        )
        assert not (tmp_path / "run" / "dataset.csv").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [({"sampling": {"x0": [-1e308, 1e308]}},
          "sampling.x0 min -1e+308 is outside [-1e+06, 1e+06]"),
         ({"oscillator": {"t": 1e308, "omega": 10}}, "oscillator.t 1e+308 is outside [0, 1e+06]")],
        ids=["x0-width", "omega-t"],
    )
    def test_config_outside_the_domain_fails_at_load_naming_its_key(
        self, tmp_path, capsys, overrides, message
    ):
        """A range whose width overflows float64 and an omega * t far past 2 pi
        fail before anything is sampled or evaluated."""
        cfg = small_config(tmp_path, dataset={"n_samples": 20}, **overrides)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("generate", "--config", cfg) == 1
        assert caught == []
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run" / "dataset.csv").exists()

    @pytest.mark.parametrize(
        "oscillator, fault",
        [({"m": 1e-300}, "oscillator.m 1e-300"),
         ({"omega": 1e200}, "oscillator.omega 1e+200"),
         ({"m": 1e-160, "omega": 1e-160}, "oscillator.m 1e-160")],
        ids=["m", "omega", "both"],
    )
    def test_oscillator_scale_beyond_float64_fails_naming_its_key(
        self, tmp_path, capsys, oscillator, fault
    ):
        cfg = small_config(tmp_path, dataset={"n_samples": 20}, oscillator=oscillator)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("generate", "--config", cfg) == 1
        assert caught == []
        assert capsys.readouterr().err == f"error: {fault} is outside [1e-06, 1e+06]\n"

    @pytest.mark.parametrize(
        "overrides, message",
        [({"sampling": {"x0": [5, -5]}}, "sampling.x0 must satisfy min <= max, got (5, -5)"),
         ({"phasespace": {"grid_points": 1}}, "phasespace.grid_points 1 is outside [2, inf]"),
         ({"phasespace": {"grid_min": 2.0, "grid_max": -2.0}},
          "phasespace.grid_min must be below grid_max, got [2.0, -2.0]"),
         ({"sweep": {"n_points": 0}}, "sweep.n_points must be >= 1, got 0"),
         ({"phasespace": {"hbar_values": []}}, "phasespace.hbar_values must be nonempty"),
         ({"training": {"batch_size": 1}}, "training.batch_size must be >= 2, got 1"),
         ({"training": {"max_epochs": 0}}, "training.max_epochs must be >= 1, got 0"),
         ({"training": {"patience": 0}}, "training.patience must be >= 1, got 0"),
         ({"training": {"learning_rate": -1}},
          "training.learning_rate must be positive and finite, got -1"),
         ({"network": {"hidden_dims": [0]}},
          "network.hidden_dims and the in and out widths must be >= 1, got (4, 0, 4)"),
         ({"sweep": {"hbar_log10_min": 0.0, "hbar_log10_max": -6.0}},
          "sweep.hbar_log10_min 0.0 to max -6.0 must give 50 ascending hbar values"),
         ({"sweep": {"hbar_log10_min": 0, "hbar_log10_max": -1, "n_points": 1}},
          "sweep.hbar_log10_min 0 to max -1 must give 1 ascending hbar values"),
         ({"dataset": {"seed": -1}}, "dataset.seed must be >= 0, got -1"),
         ({"dataset": {"split_seed": -1}}, "dataset.split_seed must be >= 0, got -1"),
         ({"network": {"init_seed": -1}}, "network.init_seed must be >= 0, got -1"),
         ({"training": {"shuffle_seed": -1}}, "training.shuffle_seed must be >= 0, got -1"),
         ({"dataset": {"n_samples": 5}}, "dataset.n_samples must be >= 10, got 5"),
         ({"dataset": {"n_samples": 0}}, "dataset.n_samples must be >= 10, got 0")],
        ids=["inverted-range", "grid-points", "grid-reversed", "n-points", "no-hbar-values",
             "batch-size", "max-epochs", "patience", "learning-rate", "hidden-dims",
             "sweep-reversed", "sweep-reversed-one-point", "seed", "split-seed", "init-seed", "shuffle-seed", "n-samples-5",
             "n-samples-0"],
    )
    def test_config_check_names_its_json_key(self, tmp_path, capsys, overrides, message):
        """Each check fails at config load, for every command, starting with its key."""
        (section, values), = overrides.items()
        cfg = small_config(tmp_path, **merged({"dataset": {"n_samples": 20}}, overrides))
        for command in ("generate", "train", "eval", "sweep", "phasespace"):
            assert run(command, "--config", cfg) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {section}.{next(iter(values))} ")
            assert err == f"error: {message}\n"
            assert not (tmp_path / "run").exists()

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
        assert (tmp_path / "run" / "model.bin").exists()
        assert "test loss" in capsys.readouterr().out

    def test_retraining_is_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        assert run("train", "--config", cfg) == 0
        first = (tmp_path / "run" / "model.bin").read_bytes()
        assert run("train", "--config", cfg) == 0
        assert (tmp_path / "run" / "model.bin").read_bytes() == first

    def test_missing_dataset_fails(self, tmp_path):
        cfg = small_config(tmp_path)
        assert run("train", "--config", cfg) != 0

    def test_training_split_below_the_batch_size_fails_naming_the_key(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg, "--n", 10) == 0
        capsys.readouterr()
        assert run("train", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err == "error: training split has 8 rows, below training.batch_size 16\n"
        assert not (tmp_path / "run" / "model.bin").exists()


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


class TestModelWidths:
    @pytest.mark.parametrize("fixed, lineno", [("output_dim 4", 4), ("input_dim 4", 2)],
                             ids=["output_dim-3", "input_dim-3"])
    @pytest.mark.parametrize("command", ["eval", "sweep", "phasespace"])
    def test_model_off_the_row_layout_fails_naming_its_file(self, tmp_path, capsys, command, fixed, lineno):
        """A model file whose width line is not the row layout's fails before it
        predicts, naming its file and line, and writes nothing."""
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        path = tmp_path / "odd_model.bin"
        save_model(init_model(ArchitectureSpec(hidden_dims=(8,)), 0), path)
        edited = fixed[:-1] + "3"
        data = path.read_bytes()
        assert f"\n{fixed}\n".encode() in data
        path.write_bytes(data.replace(f"\n{fixed}\n".encode(), f"\n{edited}\n".encode(), 1))
        before = sorted((tmp_path / "run").iterdir())
        capsys.readouterr()
        assert run(command, "--config", cfg, "--model", path) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line {lineno}: expected {fixed!r}, got {edited!r}\n"
        )
        assert sorted((tmp_path / "run").iterdir()) == before


class TestDatasetMetadata:
    @pytest.mark.parametrize(
        "command, old, new, lineno, message",
        [("eval", "# t 5\n", "# t 1e308\n", 3, "t 1e+308 is outside [0, 1e+06]"),
         ("sweep", "# hbar_log10_range -6 0\n", "# hbar_log10_range -400 0\n", 8,
          "hbar_log10 min -400.0 is outside [-12, 3]"),
         ("phasespace", "# t 5\n", "# t 1e308\n", 3, "t 1e+308 is outside [0, 1e+06]")],
        ids=["t", "hbar_log10", "phasespace-t"],
    )
    def test_metadata_outside_the_domain_fails_naming_its_line_and_key(
        self, tmp_path, capsys, command, old, new, lineno, message
    ):
        """The `#` lines pass through the config's domain check, before any row is labelled."""
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        path = tmp_path / "run" / "dataset.csv"
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(command, "--config", cfg, "--oracle") == 1
        assert caught == []
        assert capsys.readouterr().err == f"error: {path}: line {lineno}: {message}\n"
        assert not list(tmp_path.glob("run/phasespace_*"))

    @pytest.mark.parametrize(
        "edits",
        [{10: (0, "2e6")}, {10: (1, "-1e300")}, {10: (2, "1e300")}, {10: (3, "1e-300")},
         {14: (0, "1e300"), 10: (3, "1e300")}],
        ids=["x0", "p0", "sigma_x0", "hbar", "hbar-before-x0"],
    )
    def test_row_outside_the_domain_fails_naming_its_line_column_and_bound(
        self, tmp_path, capsys, edits
    ):
        """A data row's inputs are checked against the file's own sampling ranges,
        which lie in the domain, before the oracle labels them, so an overflowing cell
        fails without a warning.  Of several such cells, the one on the earliest line
        is named, whatever its column."""
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        path = tmp_path / "run" / "dataset.csv"
        lines = path.read_text().splitlines()
        for lineno, (column, value) in edits.items():  # line 10 is the first data row
            cells = lines[lineno - 1].split(",")
            cells[column] = value
            lines[lineno - 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("eval", "--config", cfg, "--oracle") == 1
        assert caught == []
        column, value = edits[10]
        name = ("x0", "p0", "sigma_x0", "hbar")[column]
        bound = {"x0": "[-5, 5]", "p0": "[-5, 5]", "sigma_x0": "[0.5, 2]", "hbar": "[1e-06, 1]"}
        message = f"line 10: {name} {float(value)} is outside {bound[name]}"
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


class TestDatasetPhysics:
    """eval, sweep and phasespace take the oscillator from the dataset's `#` lines, whatever
    the config's oscillator section says: here a t = 3 dataset read under the default t = 5."""

    @pytest.fixture
    def t3_dir(self, tmp_path):
        cfg = tmp_path / "t3.json"
        cfg.write_text(json.dumps({"oscillator": {"t": 3.0}, "out_dir": str(tmp_path / "t3")}))
        assert run("generate", "--config", cfg, "--n", 200) == 0
        return tmp_path / "t3"

    def test_oracle_eval_scores_zero_under_the_default_config(self, t3_dir, capsys):
        capsys.readouterr()
        assert run("eval", "--oracle", "--out-dir", t3_dir) == 0
        assert capsys.readouterr().out.startswith("test MSE 0 over 20 rows\n")
        assert (t3_dir / "eval.txt").read_text().splitlines()[1] == "test_mse 0"

    def test_sweep_reference_is_the_datasets_closed_form(self, t3_dir, capsys):
        capsys.readouterr()
        assert run("sweep", "--oracle", "--out-dir", t3_dir) == 0
        assert "max rel err 0, median rel err 0" in capsys.readouterr().out
        lines = (t3_dir / "sweep.csv").read_text().splitlines()
        columns = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).T
        spec = SweepSpec()
        exact, _ = evolve_batch(OscillatorConfig(t=3.0), spec._state_rows(spec.hbar_values))
        assert np.array_equal(columns[2], exact[:, 2])  # sigma_xt_analytical
        assert np.array_equal(columns[1], exact[:, 2])  # sigma_xt_pred, by the oracle

    def test_phasespace_oracle_draws_the_datasets_closed_form(self, t3_dir, tmp_path):
        assert run("phasespace", "--oracle", "--out-dir", t3_dir) == 0
        for command in (["generate", "--n", 200], ["phasespace", "--oracle"]):  # under t = 3
            assert run(*command, "--config", tmp_path / "t3.json", "--out-dir", tmp_path / "ref") == 0
        names = sorted(p.name for p in (tmp_path / "ref").glob("phasespace_*"))
        assert names == sorted(p.name for p in t3_dir.glob("phasespace_*"))
        assert len(names) == 3
        for name in names:
            assert (t3_dir / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name


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

    @pytest.mark.parametrize("command, output", [("sweep", "sweep.csv"), ("phasespace", "phasespace_*")],
                             ids=["sweep", "phasespace"])
    def test_missing_companion_dataset_fails_naming_it(self, tmp_path, capsys, command, output):
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        missing = tmp_path / "nope.csv"
        assert run(command, "--config", cfg, "--oracle", "--dataset", missing) == 1
        assert str(missing) in capsys.readouterr().err
        assert not list((tmp_path / "run").glob(output))

    @pytest.mark.parametrize("bounds", [{"hbar_log10_max": 400}, {"hbar_log10_max": 200},
                                        {"hbar_log10_min": -320}], ids=["inf", "1e200", "1e-320"])
    def test_hbar_beyond_the_closed_form_fails_naming_its_key(self, tmp_path, capsys, bounds):
        cfg = small_config(tmp_path)
        assert run("generate", "--config", cfg) == 0
        cfg = small_config(tmp_path, sweep=bounds)
        assert run("sweep", "--config", cfg, "--oracle") == 1
        err = capsys.readouterr().err
        (key, value), = bounds.items()
        assert err == f"error: sweep.{key} {value} is outside [-12, 3]\n"
        assert not (tmp_path / "run" / "sweep.csv").exists()

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

    @pytest.mark.parametrize(
        "hbar_values, message",
        [
            ([0.1, 0.1000001], "write phasespace_hbar_0p1.csv twice"),
            ([1.0, 1.0], "write phasespace_hbar_1.csv twice"),
            ([], "hbar_values must be nonempty"),
        ],
        ids=["same-tag", "equal", "empty"],
    )
    def test_each_hbar_names_its_own_file(self, tmp_path, capsys, hbar_values, message):
        cfg = small_config(tmp_path, phasespace={"hbar_values": hbar_values})
        assert run("phasespace", "--config", cfg, "--oracle") == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("run/phasespace_*"))

    @pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "model"])
    def test_hbar_beyond_the_closed_form_fails_naming_its_key(self, tmp_path, capsys, oracle):
        cfg = small_config(tmp_path, phasespace={"hbar_values": [1.0, 1e300]})
        save_model(init_model(ArchitectureSpec(), 0), tmp_path / "model.bin")
        source = ["--oracle"] if oracle else ["--model", tmp_path / "model.bin"]
        assert run("phasespace", "--config", cfg, *source) == 1
        err = capsys.readouterr().err
        assert err == "error: phasespace.hbar_values 1e+300 is outside [1e-12, 1000]\n"
        assert not list(tmp_path.glob("run/phasespace_*"))

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
        save_model(model, tmp_path / "degenerate.bin")
        assert run("phasespace", "--config", cfg, "--model", tmp_path / "degenerate.bin") != 0
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
