"""Command-line pipeline: generate, train, eval, sweep, phasespace.

All settings live in one JSON config whose defaults reproduce the full
pipeline end to end with no flags:

    wignernet generate && wignernet train && wignernet sweep && wignernet phasespace

Any subset of keys may appear in a user config; missing keys keep their
defaults, and a handful of common flags override the file.  Every evaluation
command accepts --oracle, which substitutes the exact closed form for the
network and therefore must produce zero error.  With fixed seeds the whole
pipeline is deterministic: re-running produces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    SamplingRanges,
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
    SWEEP_HBAR_LOG10,
    SweepSpec,
    convergence_report,
    hbar_sweep,
    oracle_predictor,
    phase_space_grids,
    save_phase_space,
    save_sweep,
)
from .network import ArchitectureSpec, init_model, load_model, save_model
from .oscillator import OscillatorConfig
from .training import TrainConfig, evaluate, save_report, train

DATASET_FILE = "dataset.csv"
SPLITS_FILE = "splits.csv"
MODEL_FILE = "model.txt"
HISTORY_FILE = "history.csv"
SUMMARY_FILE = "summary.txt"
EVAL_FILE = "eval.txt"
SWEEP_FILE = "sweep.csv"


# The config schema: per JSON section, the dataclass that owns its defaults,
# the map from each JSON key to that dataclass's field, and the keys no
# dataclass field holds, with their defaults.
_SCHEMA = {
    "oscillator": (OscillatorConfig, {"m": "m", "omega": "omega", "t": "t"}, {}),
    "sampling": (
        SamplingRanges,
        {
            "x0": "x0_range",
            "p0": "p0_range",
            "sigma_x0": "sigma_x0_range",
            "hbar_log10": "hbar_log10_range",
        },
        {},
    ),
    "dataset": (None, {}, {"n_samples": 10000, "seed": 42, "split_seed": 7}),
    "network": (
        ArchitectureSpec,
        {"hidden_dims": "hidden_dims", "batchnorm": "batchnorm"},
        {"init_seed": 1},
    ),
    "training": (
        TrainConfig,
        {
            "max_epochs": "max_epochs",
            "batch_size": "batch_size",
            "patience": "early_stop_patience",
            "learning_rate": "learning_rate",
            "shuffle_seed": "shuffle_seed",
            "restore_best": "restore_best",
        },
        {},
    ),
    "sweep": (
        SweepSpec,
        {"x0": "x0", "p0": "p0", "sigma_x0": "sigma_x0"},
        dict(zip(("hbar_log10_min", "hbar_log10_max", "n_points"), SWEEP_HBAR_LOG10)),
    ),
    "phasespace": (
        PhaseSpaceSpec,
        {key: key for key in (
            "x0", "p0", "sigma_x0", "hbar_values", "grid_min", "grid_max", "grid_points"
        )},
        {},
    ),
    "out_dir": "runs/default",
}


def default_config() -> dict:
    """The full JSON config at its defaults, generated from _SCHEMA."""
    cfg = {}
    for key, entry in _SCHEMA.items():
        if isinstance(entry, str):  # out_dir, the one top-level value
            cfg[key] = entry
            continue
        owner, fields, own = entry
        defaults = owner() if owner is not None else None
        cfg[key] = {k: _to_json(getattr(defaults, name)) for k, name in fields.items()} | own
    return cfg


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
        else:
            base[key] = value
    return base


def load_config(path: str | None) -> dict:
    cfg = default_config()
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
        _merge(cfg, user)
    return cfg


@dataclass
class RunConfig:
    """Typed view of the merged JSON config."""

    oscillator: OscillatorConfig
    ranges: SamplingRanges
    n_samples: int
    data_seed: int
    split_seed: int
    arch: ArchitectureSpec
    init_seed: int
    train_config: TrainConfig
    sweep_spec: SweepSpec
    phasespace_spec: PhaseSpaceSpec
    out_dir: Path
    raw: dict = field(repr=False, default_factory=dict)

    @classmethod
    def from_dict(cls, cfg: dict) -> "RunConfig":
        def build(section: str, **extra):
            owner, fields, _ = _SCHEMA[section]
            values = cfg[section]
            return owner(
                **{name: _from_json(values[key]) for key, name in fields.items()}, **extra
            )

        osc = build("oscillator")
        sw = cfg["sweep"]
        hbars = np.logspace(sw["hbar_log10_min"], sw["hbar_log10_max"], sw["n_points"])
        return cls(
            oscillator=osc,
            ranges=build("sampling"),
            n_samples=cfg["dataset"]["n_samples"],
            data_seed=cfg["dataset"]["seed"],
            split_seed=cfg["dataset"]["split_seed"],
            arch=build("network"),
            init_seed=cfg["network"]["init_seed"],
            train_config=build("training"),
            sweep_spec=build("sweep", hbar_values=hbars, cfg=osc),
            phasespace_spec=build("phasespace", cfg=osc),
            out_dir=Path(cfg["out_dir"]),
            raw=cfg,
        )


def _from_json(value):
    return tuple(value) if isinstance(value, list) else value


def _hbar_tag(hbar: float) -> str:
    return f"{hbar:g}".replace(".", "p").replace("-", "m").replace("+", "")


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config)
    if getattr(args, "out_dir", None):
        cfg["out_dir"] = args.out_dir
    rc = RunConfig.from_dict(cfg)
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    return rc


def _resolve_predictor(args, rc: RunConfig):
    """Pick the network or the exact closed form, per --oracle."""
    if args.oracle:
        return oracle_predictor(rc.oscillator)
    return load_model(args.model or rc.out_dir / MODEL_FILE).forward


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
    n = args.n if args.n is not None else rc.n_samples
    seed = args.seed if args.seed is not None else rc.data_seed

    inputs = sample_inputs(rc.ranges, n, seed)
    ds = build_dataset(rc.oscillator, inputs, ranges=rc.ranges, seed=seed)
    splits = split_indices(n, rc.split_seed)
    save_dataset(ds, rc.out_dir / DATASET_FILE)
    save_splits(splits, rc.out_dir / SPLITS_FILE)

    clamp_rate = float(np.mean(ds.clamped))
    print(f"wrote {rc.out_dir / DATASET_FILE} ({n} rows) and {rc.out_dir / SPLITS_FILE}")
    print(
        f"splits: train {splits.train.size}, val {splits.validation.size}, "
        f"test {splits.test.size}"
    )
    for name, col in zip(("x0", "p0", "sigma_x0", "hbar"), ds.inputs.T):
        print(f"  {name}: min {col.min():.6g}, max {col.max():.6g}")
    print(f"negative-variance clamp rate: {clamp_rate:.6g}")
    return 0


def cmd_train(args) -> int:
    rc = _load_run_config(args)
    ds, splits = _load_data(args, rc)

    tc = rc.train_config
    if args.max_epochs is not None:
        tc.max_epochs = args.max_epochs
    if args.batch_size is not None:
        tc.batch_size = args.batch_size
    if args.patience is not None:
        tc.early_stop_patience = args.patience
    if args.lr is not None:
        tc.learning_rate = args.lr
    if args.shuffle_seed is not None:
        tc.shuffle_seed = args.shuffle_seed
    init_seed = args.init_seed if args.init_seed is not None else rc.init_seed

    model = init_model(rc.arch, init_seed)
    model, report = train(model, ds, splits, tc)
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
    total, per_output = evaluate(_resolve_predictor(args, rc), ds, splits.test)

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
    predict = _resolve_predictor(args, rc)

    # Trained range comes from the companion dataset when present.
    dataset_path = Path(args.dataset or rc.out_dir / DATASET_FILE)
    if dataset_path.exists():
        trained_range = load_dataset(dataset_path).ranges.hbar_log10_range
    else:
        trained_range = rc.ranges.hbar_log10_range

    result = hbar_sweep(predict, rc.sweep_spec)
    save_sweep(result, rc.out_dir / SWEEP_FILE)
    report = convergence_report(predict, rc.sweep_spec, result, trained_range)

    print(f"wrote {rc.out_dir / SWEEP_FILE} ({result.hbar.size} rows)")
    print(
        f"in trained range [{report.trained_hbar_min:g}, {report.trained_hbar_max:g}]: "
        f"{report.n_in_range} points, max rel err {report.max_rel_err:.6g}, "
        f"median rel err {report.median_rel_err:.6g}"
    )
    print(f"degenerate predictions: {report.n_degenerate}")
    print(f"localization keeps decreasing below trained range: {report.extrapolation_decreasing}")
    return 0


def cmd_phasespace(args) -> int:
    rc = _load_run_config(args)
    predict = _resolve_predictor(args, rc)
    results = phase_space_grids(predict, rc.phasespace_spec)

    failures = 0
    for res in results:
        if res.error is not None:
            failures += 1
            print(f"error: {res.error}", file=sys.stderr)
            continue
        path = rc.out_dir / f"phasespace_hbar_{_hbar_tag(res.hbar)}.csv"
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

    def common(p):
        p.add_argument("--config", help="JSON config file; missing keys keep defaults")
        p.add_argument("--out-dir", help="output directory (default from config)")

    p = sub.add_parser("generate", help="sample inputs, label with the closed form, write CSVs")
    common(p)
    p.add_argument("--n", type=int, help="number of samples")
    p.add_argument("--seed", type=int, help="sampling seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train the network on a generated dataset")
    common(p)
    p.add_argument("--dataset", help="dataset CSV path")
    p.add_argument("--splits", help="split CSV path")
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--init-seed", type=int)
    p.add_argument("--shuffle-seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="test-split MSE of a model (or the oracle)")
    common(p)
    p.add_argument("--dataset", help="dataset CSV path")
    p.add_argument("--splits", help="split CSV path")
    p.add_argument("--model", help="model file path")
    p.add_argument("--oracle", action="store_true", help="use the closed form instead of a model")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="hbar sweep of predicted vs analytical sigma_x(t)")
    common(p)
    p.add_argument("--model", help="model file path")
    p.add_argument("--dataset", help="companion dataset (supplies the trained hbar range)")
    p.add_argument("--oracle", action="store_true", help="use the closed form instead of a model")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("phasespace", help="predicted Wigner grids at the configured hbar values")
    common(p)
    p.add_argument("--model", help="model file path")
    p.add_argument("--oracle", action="store_true", help="use the closed form instead of a model")
    p.set_defaults(func=cmd_phasespace)

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
