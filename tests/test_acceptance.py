"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 4-7 share a module-scoped fixture that runs the CLI pipeline once
with the stock configuration (10,000 samples, the 4-128-256-256-128-4
batchnorm network, lr 0.0005, batch 64, patience 20, up to 1000 epochs; it
stops at epoch 57).  The fixture takes 17-25 s on a 2-vCPU Xeon, most of the
module's time.  The same run is checked byte for byte against
stock_outputs.json (TestStockOutputs).  Run it with

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gradcheck import grad_check
from rk4 import classical_rk4
from wignernet.cli import main
from wignernet.data import load_dataset, sample_inputs, SamplingRanges, split_indices
from wignernet.experiments import PhaseSpaceSpec, phase_space_grids, oracle_predictor
from wignernet.network import (
    ArchitectureSpec,
    init_model,
    load_model,
    save_model,
)
from wignernet.oscillator import OscillatorConfig, evolve_batch, wigner_grid
from wignernet.data import save_dataset


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full stock-configuration CLI run: generate, train, eval, sweep, phasespace, then
    eval, sweep and phasespace --oracle into oracle/, keeping each command's stdout."""
    base = tmp_path_factory.mktemp("acceptance")
    run_dir = base / "run"
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps({"out_dir": str(run_dir)}))
    stdout = {}

    def cli(name, *argv):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main([*argv, "--config", str(cfg_path)]) == 0
        stdout[name] = out.getvalue().replace(str(base), "<base>")

    start = time.time()
    cli("generate", "generate")
    cli("train", "train")
    train_minutes = (time.time() - start) / 60.0
    for command in ("eval", "sweep", "phasespace"):
        cli(command, command)
    data = ["--dataset", str(run_dir / "dataset.csv"), "--splits", str(run_dir / "splits.csv")]
    for command, inputs in (("eval", data), ("sweep", data[:2]), ("phasespace", data[:2])):
        cli(f"{command} --oracle", command, "--oracle", *inputs, "--out-dir", str(base / "oracle"))
    summary = {}
    for line in (run_dir / "summary.txt").read_text().splitlines():
        key, *values = line.split()
        summary[key] = [float(v) for v in values]
    return SimpleNamespace(
        dir=run_dir, config=cfg_path, minutes=train_minutes, summary=summary, stdout=stdout
    )


def read_sweep(path):
    lines = path.read_text().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


class TestCriterion1:
    def test_oracle_exactness(self):
        """Period return, rotation conservation, coherent invariance, width
        ratio, and the RK4 cross-check, all within 1e-9, in under a second."""
        start = time.time()
        cfg = OscillatorConfig()
        rng = np.random.default_rng(123)
        n = 1000
        x0 = rng.uniform(-5, 5, n)
        p0 = rng.uniform(-5, 5, n)
        sigma = rng.uniform(0.5, 2.0, n)
        hbar = 10.0 ** rng.uniform(-6, 0, n)
        inputs = np.column_stack([x0, p0, sigma, hbar])
        out, _ = evolve_batch(cfg, inputs)

        period, _ = evolve_batch(OscillatorConfig(t=cfg.t + 2.0 * math.pi), inputs)
        period_err = np.max(np.abs(out - period))

        rotation_err = np.max(
            np.abs(out[:, 0] ** 2 + out[:, 1] ** 2 - (x0**2 + p0**2))
            / (x0**2 + p0**2 + 1e-300)
        )

        coherent = np.column_stack([x0, p0, np.sqrt(hbar / 2.0), hbar])
        coherent_out, _ = evolve_batch(cfg, coherent)
        coherent_err = np.max(np.abs(coherent_out[:, 2] / np.sqrt(hbar / 2.0) - 1.0))

        ratio_err = np.max(np.abs(out[:, 3] / out[:, 2] - 1.0))  # m = omega = 1

        # 2,000 steps put RK4 about 1e-11 from the oracle, 100x inside the tolerance, in
        # under 0.1 s, so the wall-time gate has room on a busy host.
        rk4_x, rk4_p = classical_rk4(cfg, x0, p0, 2_000)
        rk4_err = max(np.max(np.abs(rk4_x - out[:, 0])), np.max(np.abs(rk4_p - out[:, 1])))

        elapsed = time.time() - start
        worst = max(period_err, rotation_err, coherent_err, ratio_err, rk4_err)
        check(
            "1",
            worst <= 1e-9 and elapsed < 1.0,
            f"max deviation {worst:.3e} (period {period_err:.1e}, rotation {rotation_err:.1e}, "
            f"coherent {coherent_err:.1e}, ratio {ratio_err:.1e}, rk4 {rk4_err:.1e}) "
            f"in {elapsed:.2f}s",
        )


class TestCriterion2:
    def test_wigner_normalization_and_marginal(self):
        """Minimum-uncertainty grid mass is 1 and the position marginal matches
        the 1-D Gaussian pointwise, both within 1e-6 (n=400, +-8 sigma box)."""
        worst_mass = 0.0
        worst_marginal = 0.0
        for x0, p0, sigma_x, hbar in [(1.0, 0.0, 1.0, 1.0), (0.4, -0.7, 1.3, 0.05), (-2.0, 3.0, 0.6, 0.31)]:
            sigma_p = hbar / (2.0 * sigma_x)
            xs = np.linspace(x0 - 8 * sigma_x, x0 + 8 * sigma_x, 400)
            ps = np.linspace(p0 - 8 * sigma_p, p0 + 8 * sigma_p, 400)
            vals = wigner_grid((x0, p0, sigma_x, sigma_p), hbar, xs, ps)
            mass = np.trapezoid(np.trapezoid(vals, xs, axis=1), ps)
            worst_mass = max(worst_mass, abs(mass - 1.0))
            marginal = vals.sum(axis=0) * (ps[1] - ps[0])
            expected = np.exp(-((xs - x0) ** 2) / (2 * sigma_x**2)) / math.sqrt(
                2 * math.pi * sigma_x**2
            )
            worst_marginal = max(worst_marginal, float(np.max(np.abs(marginal - expected))))
        check(
            "2",
            worst_mass <= 1e-6 and worst_marginal <= 1e-6,
            f"mass deviation {worst_mass:.3e}, marginal deviation {worst_marginal:.3e}",
        )


class TestCriterion3:
    def test_gradient_correctness(self):
        """grad_check <= 1e-5 on ten random 4->8->4 batchnorm models, B=16."""
        worst = 0.0
        spec = ArchitectureSpec(hidden_dims=(8,))
        for seed in range(10):
            model = init_model(spec, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            x = rng.normal(size=(16, 4))
            y = rng.normal(size=(16, 4))
            worst = max(worst, grad_check(model, x, y, epsilon_fd=1e-4))
        check("3", worst <= 1e-5, f"max relative gradient error {worst:.3e} over 10 seeds")


class TestCriterion4:
    def test_training_loss_bound(self, pipeline):
        """Stock-config training reaches final train MSE <= 0.1; the 0.0390
        reference figure is logged for comparison (the exact value depends on
        sampling ranges and seeds, so only the bound is asserted)."""
        final_train = pipeline.summary["final_train_loss"][0]
        stopped = int(pipeline.summary["stopped_epoch"][0])
        check(
            "4",
            final_train <= 0.1,
            f"final train MSE {final_train:.4f} <= 0.1 (reference ~0.0390, "
            f"ratio {final_train / 0.0390:.2f}x), stopped at epoch {stopped}, "
            f"trained in {pipeline.minutes:.1f} min (budget 15 min)",
        )


class TestCriterion5:
    def test_emulator_fidelity(self, pipeline):
        """Held-out test MSE within 3x of the final training MSE; median sweep
        relative error within the trained hbar range <= 10%."""
        final_train = pipeline.summary["final_train_loss"][0]
        test_loss = pipeline.summary["test_loss"][0]
        sweep = read_sweep(pipeline.dir / "sweep.csv")
        trained_range = load_dataset(pipeline.dir / "dataset.csv").ranges.hbar_log10
        in_range = (sweep[:, 0] >= 10.0 ** trained_range[0]) & (
            sweep[:, 0] <= 10.0 ** trained_range[1]
        )
        median_rel = float(np.median(sweep[in_range, 3]))
        check(
            "5",
            test_loss <= 3.0 * final_train and median_rel <= 0.10,
            f"test MSE {test_loss:.4f} vs 3x train {3 * final_train:.4f}; "
            f"median sweep rel err {median_rel:.4f} over {int(in_range.sum())} in-range points",
        )


class TestCriterion6:
    def test_classical_limit_emulation(self, pipeline):
        """Analytical sweep column strictly increasing in hbar; the trained
        model localizes (sigma at hbar=0.01 below hbar=1); oracle grid peak
        scales as 1/(pi hbar) within 1e-9."""
        sweep = read_sweep(pipeline.dir / "sweep.csv")
        analytic_increasing = bool(np.all(np.diff(sweep[:, 2]) > 0))

        model = load_model(pipeline.dir / "model.bin")
        preds = model.forward(np.array([[1.0, 0.0, 1.0, 0.01], [1.0, 0.0, 1.0, 1.0]]))
        localizes = bool(preds[0, 2] < preds[1, 2])

        results = phase_space_grids(oracle_predictor(OscillatorConfig()), PhaseSpaceSpec())
        peaks = {res.hbar: res.peak_value for res in results}
        scale_err = max(
            abs(peaks[0.1] / peaks[1.0] - 10.0) / 10.0,
            abs(peaks[0.01] / peaks[1.0] - 100.0) / 100.0,
        )
        check(
            "6",
            analytic_increasing and localizes and scale_err <= 1e-9,
            f"analytic column increasing: {analytic_increasing}; "
            f"pred sigma {preds[0, 2]:.4f} (hbar=0.01) < {preds[1, 2]:.4f} (hbar=1): {localizes}; "
            f"peak 1/(pi hbar) scaling deviation {scale_err:.2e}",
        )


class TestCriterion7:
    def test_determinism_and_round_trips(self, pipeline, tmp_path):
        """Seeded pipeline outputs are byte-identical across runs and both
        file formats round-trip exactly; everything ran through the CLI."""
        # Stock-config dataset generation is byte-reproducible at full scale.
        rerun_cfg = tmp_path / "config.json"
        rerun_cfg.write_text(json.dumps({"out_dir": str(tmp_path / "regen")}))
        assert main(["generate", "--config", str(rerun_cfg)]) == 0
        regen_identical = (tmp_path / "regen" / "dataset.csv").read_bytes() == (
            pipeline.dir / "dataset.csv"
        ).read_bytes()

        # The train/sweep/phasespace stages are byte-reproducible end to end
        # (exercised at a reduced scale to keep the double run affordable).
        small = {
            "dataset": {"n_samples": 500},
            "training": {"max_epochs": 20, "batch_size": 32, "patience": 20,
                         "learning_rate": 0.005},
        }
        dirs = []
        for name in ("a", "b"):
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps({**small, "out_dir": str(tmp_path / name)}))
            for command in ("generate", "train", "sweep", "phasespace"):
                assert main([command, "--config", str(cfg_path)]) == 0
            dirs.append(tmp_path / name)
        names = sorted(p.name for p in dirs[0].iterdir())
        pipeline_identical = all(
            (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names
        )

        # Save/load round-trips of the full-scale artifacts are value-exact.
        ds = load_dataset(pipeline.dir / "dataset.csv")
        save_dataset(ds, tmp_path / "dataset_roundtrip.csv")
        dataset_roundtrip = (tmp_path / "dataset_roundtrip.csv").read_bytes() == (
            pipeline.dir / "dataset.csv"
        ).read_bytes()
        model = load_model(pipeline.dir / "model.bin")
        save_model(model, tmp_path / "model_roundtrip.bin")
        model_roundtrip = (tmp_path / "model_roundtrip.bin").read_bytes() == (
            pipeline.dir / "model.bin"
        ).read_bytes()

        check(
            "7",
            regen_identical and pipeline_identical and dataset_roundtrip and model_roundtrip,
            f"full-scale dataset regeneration identical: {regen_identical}; "
            f"reduced pipeline byte-identical over {len(names)} files: {pipeline_identical}; "
            f"dataset round-trip: {dataset_roundtrip}; model round-trip: {model_roundtrip}",
        )


STOCK_OUTPUTS = Path(__file__).with_name("stock_outputs.json")


def blas_core() -> str | None:
    """The kernel core that numpy's bundled scipy-openblas picked at run time (set by
    OPENBLAS_CORETYPE where that is given), or None where numpy bundles no such library."""
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def environment() -> dict:
    """What the stock outputs' bits may depend on: the numpy version, its BLAS build
    and the kernel core that BLAS picked on this CPU, and the SIMD extensions numpy
    found on it."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        **{f"blas {key}": blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas core": blas_core(),
        **{f"simd {key}": found for key, found in config["SIMD Extensions"].items()},
    }


def differences(recorded: dict, found: dict) -> list[str]:
    """Each key whose value differs between the two, with both values."""
    return [
        f"{key}: recorded {recorded.get(key)!r}, found {found.get(key)!r}"
        for key in sorted(recorded.keys() | found.keys())
        if recorded.get(key) != found.get(key)
    ]


class TestStockOutputs:
    def test_stock_run_keeps_the_recorded_bytes(self, pipeline):
        """The stock run writes the sha256s, epochs and stdout in stock_outputs.json.
        A PR that changes bits on purpose edits that file.  Where this box's environment
        differs from the recorded one, a warning names each differing field, and a
        differing output is reported as XFAIL with the outputs and fields."""
        manifest = json.loads(STOCK_OUTPUTS.read_text(encoding="utf-8"))
        base = pipeline.dir.parent
        outputs = {
            path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((base / "run").iterdir()) + sorted((base / "oracle").iterdir())
        }
        for key in ("stopped_epoch", "best_epoch"):
            outputs[key] = int(pipeline.summary[key][0])
        changed = differences(manifest["outputs"], outputs)
        changed += differences(manifest["stdout"], pipeline.stdout)
        env = differences(manifest["environment"], environment())
        if env:
            with warnings.catch_warnings():  # listed in pytest's warnings summary, not raised
                warnings.simplefilter("always")
                warnings.warn(f"environment differs from {STOCK_OUTPUTS.name}: " + "; ".join(env))
            if changed:
                pytest.xfail(f"{'; '.join(changed)} (environment differs: {'; '.join(env)})")
        check(
            "manifest",
            not changed,
            f"{len(outputs)} outputs and {len(pipeline.stdout)} stdouts against "
            f"{STOCK_OUTPUTS.name}; differ: {'; '.join(changed) or 'none'}",
        )

    def test_environment_names_a_forced_blas_core(self):
        """OPENBLAS_CORETYPE picks another kernel with the same build; environment()
        records the kernel, so a manifest check under it XFAILs and names it."""
        if blas_core() is None:
            pytest.skip("numpy bundles no scipy-openblas here")
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": os.pathsep.join(sys.path)}
        script = "from test_acceptance import environment; print(environment()['blas core'])"
        found = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                               text=True, check=True)
        assert found.stdout.strip() == "Haswell"

    def test_differences_name_each_output_and_field(self):
        recorded = {"run/a.csv": "1", "run/b.csv": "2", "best_epoch": 37}
        found = {"run/a.csv": "1", "run/b.csv": "3", "best_epoch": 38, "run/c.csv": "4"}
        assert differences(recorded, found) == [
            "best_epoch: recorded 37, found 38",
            "run/b.csv: recorded '2', found '3'",
            "run/c.csv: recorded None, found '4'",
        ]
