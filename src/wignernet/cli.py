"""Command-line pipeline: generate, train, eval, sweep, phasespace.

All settings live in one JSON config whose defaults reproduce the full
pipeline end to end with no flags:

    wignernet generate && wignernet train && wignernet sweep && wignernet phasespace

Any subset of keys may appear in a user config; missing keys keep their
defaults, and each setting flag (_FLAGS) overrides one key, checked as the
file's values are.  Every evaluation command accepts --oracle, which
substitutes the exact closed form for the network and therefore must
produce zero error.  Only generate reads the config's oscillator; eval, sweep and
phasespace take it from the dataset's `#` lines.  With fixed seeds the whole pipeline
is deterministic: re-running produces byte-identical files.
"""

import argparse
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from .data import (
    SamplingRanges,
    _MIN_ROWS,
    _read_header,
    _write_text,
    build_dataset,
    load_dataset,
    load_splits,
    sample_inputs,
    save_dataset,
    save_splits,
    split_indices,
)
from .experiments import (
    PhaseSpaceSpec,
    SweepSpec,
    _phase_space_file,
    convergence_report,
    hbar_sweep,
    oracle_predictor,
    phase_space_grids,
    save_phase_space,
    save_sweep,
)
from .network import ArchitectureSpec, init_model, load_model, save_model
from .oscillator import INPUTS, OscillatorConfig
from .training import TrainConfig, evaluate, save_report, train

DATASET_FILE = "dataset.csv"
SPLITS_FILE = "splits.csv"
MODEL_FILE = "model.bin"
HISTORY_FILE = "history.csv"
SUMMARY_FILE = "summary.txt"
EVAL_FILE = "eval.txt"
SWEEP_FILE = "sweep.csv"

# Each setting flag: the config key it overrides and the commands that take it.
# Its value has the type of that key's default.
_FLAGS = {
    "--out-dir": ("out_dir", ("generate", "train", "eval", "sweep", "phasespace")),
    "--n": ("dataset.n_samples", ("generate",)),
    "--seed": ("dataset.seed", ("generate",)),
    "--max-epochs": ("training.max_epochs", ("train",)),
    "--batch-size": ("training.batch_size", ("train",)),
    "--patience": ("training.patience", ("train",)),
    "--lr": ("training.learning_rate", ("train",)),
    "--init-seed": ("network.init_seed", ("train",)),
    "--shuffle-seed": ("training.shuffle_seed", ("train",)),
}


def default_config() -> dict:
    """The full JSON config at its defaults, RunConfig's keys in field order."""
    cfg = {}
    for f in fields(RunConfig):
        *sections, name = f.metadata["key"].split(".")
        default = _defaults(f.type) if is_dataclass(f.type) else f.default
        reduce(lambda node, section: node.setdefault(section, {}), sections, cfg)[name] = default
    return cfg


def _defaults(owner) -> dict:
    """The keys of config dataclass `owner`'s section, with their defaults as JSON values."""
    return {f.name: _to_json(f.default) for f in fields(owner) if f.init}


def _to_json(value):
    return list(value) if isinstance(value, tuple) else value


def _merge(base: dict, override: dict, path: str = "") -> dict:
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValueError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config key {where!r} must be an object")
            _merge(base[key], value, where)
            continue
        default = base[key]
        listed = isinstance(default, list)
        one, many, ok = _JSON_TYPES[type(default[0] if listed else default)]
        if listed:
            pair = path == "sampling"  # each sampling key is a (min, max) range
            one = f"a list of {'2 ' * pair}{many}"
            fits = isinstance(value, list) and all(map(ok, value)) and (len(value) == 2 or not pair)
        if not (fits if listed else ok(value)):
            raise ValueError(f"config key {where!r} must be {one}, got {value!r}")
        base[key] = value
    return base


# By the type of a key's default (a list's by its elements'), the JSON values it
# takes: named alone and in a list, and the test of one.  Python's bools are ints,
# and no key takes them.
_JSON_TYPES = {
    int: ("an integer", "integers", lambda v: type(v) is int),
    float: ("a finite number", "finite numbers",
            lambda v: type(v) in (int, float) and math.isfinite(v)),
    str: ("a string", "strings", lambda v: type(v) is str),
}


def _key(name: str, default=MISSING, least=None):
    """A RunConfig field that is the JSON section or key `name`."""
    return field(default=default, metadata={"key": name, "least": least})


@dataclass(kw_only=True)
class RunConfig:
    """Typed view of the merged JSON config, and the one declaration of its keys.

    Each field names its JSON key.  A field whose type is a config dataclass is a
    section, and the section's keys are that class's init fields, with their
    defaults.  Every other field is one dotted key, with its default and, for a
    count or a seed, its least value.
    """

    oscillator: OscillatorConfig = _key("oscillator")
    ranges: SamplingRanges = _key("sampling")
    n_samples: int = _key("dataset.n_samples", 10000, least=_MIN_ROWS)
    data_seed: int = _key("dataset.seed", 42, least=0)
    split_seed: int = _key("dataset.split_seed", 7, least=0)
    arch: ArchitectureSpec = _key("network")
    init_seed: int = _key("network.init_seed", 1, least=0)
    train_config: TrainConfig = _key("training")
    sweep_spec: SweepSpec = _key("sweep")
    phasespace_spec: PhaseSpaceSpec = _key("phasespace")
    out_dir: Path = _key("out_dir", "runs/default")

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)

    @classmethod
    def from_dict(cls, cfg: dict) -> "RunConfig":
        attrs = {}
        for f in sorted(fields(cls), key=lambda f: is_dataclass(f.type)):  # keys, then sections
            key, least, owner = f.metadata["key"], f.metadata["least"], f.type
            if not is_dataclass(owner):
                attrs[f.name] = value = reduce(dict.__getitem__, key.split("."), cfg)
                if least is not None and value < least:
                    raise ValueError(f"{key} must be >= {least}, got {value}")
                continue
            try:
                attrs[f.name] = owner(**{k: _from_json(cfg[key][k]) for k in _defaults(owner)})
            except ValueError as exc:  # its message starts with the key
                raise ValueError(f"{key}.{exc}") from None
        return cls(**attrs)


def _from_json(value):
    return tuple(value) if isinstance(value, list) else value


def _load_run_config(args) -> RunConfig:
    """The config: defaults, then the --config file, then the flags given."""
    cfg = default_config()
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                from_file = json.load(fh)
            if not isinstance(from_file, dict):
                raise ValueError(f"config must be a JSON object, got {type(from_file).__name__}")
        except ValueError as exc:  # a JSON syntax error too, which names its line and column
            raise ValueError(f"{args.config}: {exc}") from None
        _merge(cfg, from_file)
    for key, _ in _FLAGS.values():
        override = getattr(args, key, None)
        if override is not None:
            for part in reversed(key.split(".")):
                override = {part: override}
            _merge(cfg, override)
    return RunConfig.from_dict(cfg)


def _resolve_predictor(args, rc: RunConfig):
    """(predict, oscillator, trained ranges) of an evaluating command, the last two from the `#`
    lines of the dataset (--dataset, else out_dir's), read head-only; predict is the closed
    form under that oscillator with --oracle, else the network, whose widths are the row layout's."""
    _, oscillator, _, trained = _read_header(args.dataset or rc.out_dir / DATASET_FILE, head_only=True)
    if args.oracle:
        return oracle_predictor(oscillator), oscillator, trained
    return load_model(args.model or rc.out_dir / MODEL_FILE).forward, oscillator, trained


def _load_data(args, rc: RunConfig):
    """The dataset and its split file, which must cover exactly its rows."""
    ds = load_dataset(args.dataset or rc.out_dir / DATASET_FILE)
    splits = load_splits(args.splits or rc.out_dir / SPLITS_FILE)
    n_split = splits.train.size + splits.validation.size + splits.test.size
    if n_split != ds.n_rows:
        raise ValueError(f"split file has {n_split} rows, dataset has {ds.n_rows}")
    return ds, splits


def cmd_generate(args) -> int:
    rc = _load_run_config(args)
    inputs = sample_inputs(rc.ranges, rc.n_samples, rc.data_seed)
    ds = build_dataset(rc.oscillator, inputs, ranges=rc.ranges, seed=rc.data_seed)
    splits = split_indices(rc.n_samples, rc.split_seed)
    save_dataset(ds, rc.out_dir / DATASET_FILE)
    save_splits(splits, rc.out_dir / SPLITS_FILE)

    clamp_rate = float(np.mean(ds.clamped))
    below = float(np.mean(ds.targets[:, 2] * ds.targets[:, 3] < ds.inputs[:, 3] / 2))  # the labels' widths
    print(f"wrote {rc.out_dir / DATASET_FILE} ({rc.n_samples} rows) and {rc.out_dir / SPLITS_FILE}")
    print(
        f"splits: train {splits.train.size}, val {splits.validation.size}, "
        f"test {splits.test.size}"
    )
    for name, col in zip(INPUTS, ds.inputs.T):
        print(f"  {name}: min {col.min():.6g}, max {col.max():.6g}")
    print(f"negative-variance clamp rate: {clamp_rate:.6g}")
    print(f"share of rows below the uncertainty bound (sigma_xt*sigma_pt < hbar/2): {below:.6g}")
    return 0


def cmd_train(args) -> int:
    rc = _load_run_config(args)
    ds, splits = _load_data(args, rc)
    model, report = train(init_model(rc.arch, rc.init_seed), ds, splits, rc.train_config)
    save_model(model, rc.out_dir / MODEL_FILE)
    save_report(report, rc.out_dir / HISTORY_FILE, rc.out_dir / SUMMARY_FILE)

    print(f"wrote {rc.out_dir / MODEL_FILE} and {rc.out_dir / HISTORY_FILE}")
    print(
        f"stopped at epoch {report.stopped_epoch} (best {report.best_epoch}); "
        f"final train loss {report.final_train_loss:.6g}, "
        f"val loss {report.final_val_loss:.6g}, test loss {report.test_loss:.6g}"
    )
    return 0


def cmd_eval(args) -> int:
    rc = _load_run_config(args)
    ds, splits = _load_data(args, rc)
    total, per_output = evaluate(_resolve_predictor(args, rc)[0], ds, splits.test)

    head = [
        f"test_rows {splits.test.size}",
        ("test_mse", [total]),
        ("per_output_test_mse", per_output),
    ]
    _write_text(rc.out_dir / EVAL_FILE, head)
    print(f"test MSE {total:.6g} over {splits.test.size} rows")
    print("per-output MSE: " + " ".join(f"{v:.6g}" for v in per_output))
    return 0


def cmd_sweep(args) -> int:
    rc = _load_run_config(args)
    predict, oscillator, trained = _resolve_predictor(args, rc)

    result = hbar_sweep(predict, rc.sweep_spec, oscillator)
    save_sweep(result, rc.out_dir / SWEEP_FILE)
    report = convergence_report(predict, rc.sweep_spec, result, trained)

    print(f"wrote {rc.out_dir / SWEEP_FILE} ({result.hbar.size} rows)")
    print(
        f"in trained range [{trained.hbar[0]:g}, {trained.hbar[1]:g}]: "
        f"{report.n_in_range} points, max rel err {report.max_rel_err:.6g}, "
        f"median rel err {report.median_rel_err:.6g}"
    )
    print(f"degenerate predictions: {result.n_degenerate}")
    print(f"localization keeps decreasing below trained range: {report.extrapolation_decreasing}")
    return 0


def cmd_phasespace(args) -> int:
    rc = _load_run_config(args)
    results = phase_space_grids(_resolve_predictor(args, rc)[0], rc.phasespace_spec)

    failures = 0
    for res in results:
        if res.error is not None:
            failures += 1
            print(f"error: {res.error}", file=sys.stderr)
            continue
        path = rc.out_dir / _phase_space_file(res.hbar)
        save_phase_space(res, path)
        print(
            f"wrote {path}: peak {res.peak_value:.6g} at "
            f"({res.prediction[0]:.6g}, {res.prediction[1]:.6g})"
        )
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignernet",
        description="Closed-form Wigner packet evolution and its neural-network emulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = default_config()
    inputs = {  # the flags that name input files or pick the predictor, not settings
        "--dataset": {"help": "dataset CSV path; its # lines give eval, sweep and phasespace "
                              "their physics (oscillator), and sweep its trained hbar range"},
        "--splits": {"help": "split CSV path"},
        "--model": {"help": "model file path"},
        "--oracle": {"action": "store_true", "help": "use the closed form instead of a model"},
    }
    for name, func, summary, takes in (
        ("generate", cmd_generate, "sample inputs, label with the closed form, write CSVs", ()),
        ("train", cmd_train, "train the network on a generated dataset", ("--dataset", "--splits")),
        ("eval", cmd_eval, "test-split MSE of a model (or the oracle)", list(inputs)),
        ("sweep", cmd_sweep, "hbar sweep of predicted vs analytical sigma_x(t)",
         ("--model", "--dataset", "--oracle")),
        ("phasespace", cmd_phasespace, "predicted Wigner grids at the configured hbar values",
         ("--model", "--dataset", "--oracle")),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file; missing keys keep defaults")
        for flag, (key, commands) in _FLAGS.items():
            if name in commands:
                default = reduce(dict.__getitem__, key.split("."), defaults)
                p.add_argument(flag, type=type(default), dest=key, help=f"sets {key}")
        for flag in takes:
            p.add_argument(flag, **inputs[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # every failure maps to a nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
