"""Emulator-versus-analytic experiments: the hbar sweep of sigma_x(t) and the
phase-space localization grids, plus summary error metrics.

A predictor is any callable mapping an input matrix of oscillator.INPUTS rows,
(x0, p0, sigma_x0, hbar), to a matrix of oscillator.STATE rows, the evolved
parameters (xt, pt, sigma_xt, sigma_pt); both
a trained network and the exact closed form (oracle_predictor) qualify, so
every experiment has a built-in zero-error baseline.

Relative error is always measured against the analytical value.  A predicted
width that is not positive defines no Gaussian: the affected phase-space grid
carries a structured error instead of data, and the affected sweep row gets a
NaN relative error (a missing point) and is excluded from summary metrics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .data import SamplingRanges, _write_text
from .oscillator import INPUTS, STATE, OscillatorConfig, check_domain, evolve_batch, wigner_grid

Predictor = Callable[[np.ndarray], np.ndarray]


@dataclass
class _InitialPacket:
    """The initial state (x0, p0, sigma_x0) an experiment holds fixed."""

    x0: float = 1.0
    p0: float = 0.0
    sigma_x0: float = 1.0

    def __post_init__(self):
        check_domain(*((f.name, f.name, getattr(self, f.name)) for f in fields(_InitialPacket)))

    def _state_rows(self, hbars: np.ndarray) -> np.ndarray:
        """The initial state at each hbar, as predictor input rows."""
        columns = {**vars(self), "hbar": hbars}
        inputs = np.empty((hbars.size, len(INPUTS)))
        for k, name in enumerate(INPUTS):
            inputs[:, k] = columns[name]
        return inputs


@dataclass
class SweepSpec(_InitialPacket):
    """Fixed initial state swept over n_points log-spaced hbar values, from
    10**hbar_log10_min to 10**hbar_log10_max: hbar_values, sorted strictly ascending."""

    hbar_log10_min: float = SamplingRanges.hbar_log10[0]
    hbar_log10_max: float = SamplingRanges.hbar_log10[1]
    n_points: int = 50
    hbar_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lo, hi, n = self.hbar_log10_min, self.hbar_log10_max, self.n_points
        if n < 1:
            raise ValueError(f"n_points must be >= 1, got {n}")
        super().__post_init__()
        check_domain(("hbar_log10_min", "hbar_log10", lo), ("hbar_log10_max", "hbar_log10", hi))
        self.hbar_values = np.logspace(lo, hi, n)
        if lo > hi or np.any(np.diff(self.hbar_values) <= 0):
            raise ValueError(f"hbar_log10_min {lo} to max {hi} must give {n} ascending hbar values")


def _phase_space_file(hbar: float) -> str:
    """The grid file's name at hbar: its %g text with '.' -> 'p' and '-' -> 'm'."""
    tag = f"{hbar:g}".replace(".", "p").replace("-", "m").replace("+", "")
    return f"phasespace_hbar_{tag}.csv"


@dataclass
class PhaseSpaceSpec(_InitialPacket):
    """Fixed initial state evaluated on a square phase-space grid per hbar."""

    hbar_values: tuple[float, ...] = (1.0, 0.1, 0.01)
    grid_min: float = -10.0
    grid_max: float = 10.0
    grid_points: int = 100

    def __post_init__(self):
        if not self.hbar_values:
            raise ValueError("hbar_values must be nonempty")
        super().__post_init__()
        check_domain(
            *(("hbar_values", "hbar", h) for h in self.hbar_values),
            ("grid_min", "grid", self.grid_min),
            ("grid_max", "grid", self.grid_max),
            ("grid_points", "grid_points", self.grid_points),
        )
        names = [_phase_space_file(h) for h in self.hbar_values]  # one file per hbar
        if len(set(names)) < len(names):
            twice = max(names, key=names.count)
            raise ValueError(f"hbar_values {list(self.hbar_values)} write {twice} twice")
        if not self.grid_min < self.grid_max:
            raise ValueError(f"grid_min must be below grid_max, got [{self.grid_min}, {self.grid_max}]")


@dataclass
class SweepResult:
    """Per-hbar predicted and analytical sigma_x(t) (and sigma_p(t)) columns."""

    hbar: np.ndarray
    sigma_xt_pred: np.ndarray
    sigma_xt_analytical: np.ndarray
    rel_err: np.ndarray
    sigma_pt_pred: np.ndarray
    sigma_pt_analytical: np.ndarray

    @property
    def n_degenerate(self) -> int:
        return int(np.sum(~np.isfinite(self.rel_err)))


@dataclass
class PhaseSpaceResult:
    """One reconstructed Wigner grid, or a structured error when degenerate.
    `axis` is both the position and the momentum axis of the square grid."""

    hbar: float
    prediction: np.ndarray | None = None
    values: np.ndarray | None = None
    axis: np.ndarray | None = None
    levels: np.ndarray | None = None
    peak_value: float = float("nan")
    error: str | None = None


@dataclass
class ConvergenceReport:
    """Sweep fidelity inside the trained hbar range plus the extrapolation flag."""

    max_rel_err: float
    median_rel_err: float
    n_in_range: int
    extrapolation_decreasing: bool


def oracle_predictor(cfg: OscillatorConfig) -> Predictor:
    """Exact closed-form stand-in for a trained model."""

    def predict(inputs: np.ndarray) -> np.ndarray:
        targets, _ = evolve_batch(cfg, inputs)
        return targets

    return predict


def hbar_sweep(predict: Predictor, spec: SweepSpec, cfg: OscillatorConfig) -> SweepResult:
    """Predicted vs analytical widths, the latter under cfg, over the spec's hbar list."""
    inputs = spec._state_rows(spec.hbar_values)
    preds = np.asarray(predict(inputs), dtype=np.float64)
    analytical, _ = evolve_batch(cfg, inputs)
    sigma_xt_pred = preds[:, 2]
    sigma_xt_ana = analytical[:, 2]
    rel_err = np.abs(sigma_xt_pred - sigma_xt_ana) / sigma_xt_ana
    rel_err = np.where(sigma_xt_pred > 0, rel_err, np.nan)
    return SweepResult(
        hbar=spec.hbar_values.copy(),
        sigma_xt_pred=sigma_xt_pred,
        sigma_xt_analytical=sigma_xt_ana,
        rel_err=rel_err,
        sigma_pt_pred=preds[:, 3],
        sigma_pt_analytical=analytical[:, 3],
    )


def phase_space_grids(predict: Predictor, spec: PhaseSpaceSpec) -> list[PhaseSpaceResult]:
    """Reconstruct the predicted Wigner function for each hbar on the square grid
    whose `axis`, np.linspace(grid_min, grid_max, grid_points), spans x and p.

    The contour levels are 20 linearly spaced values between the grid minimum
    and maximum.  peak_value is the Gaussian at the predicted center, 1/(pi hbar).
    """
    inputs = spec._state_rows(np.array(spec.hbar_values, dtype=np.float64))
    axis = np.linspace(spec.grid_min, spec.grid_max, spec.grid_points)
    results = []
    for k, hbar in enumerate(spec.hbar_values):  # one-row batches: a larger one may move last bits
        pred = np.asarray(predict(inputs[k : k + 1]), dtype=np.float64)[0]
        try:
            values = wigner_grid(pred, hbar, axis, axis)
        except ValueError:
            if pred[2] > 0 and pred[3] > 0:  # then a center or a width is infinite or NaN
                shown, rule = zip(STATE, pred), "finite"
            else:  # a width that is not positive, NaN included
                shown, rule = zip(STATE[2:], pred[2:]), "positive"
            listed = ", ".join(f"{name}={value:g}" for name, value in shown)
            error = f"degenerate prediction at hbar={hbar:g}: {listed} (must be {rule})"
            results.append(PhaseSpaceResult(hbar=hbar, prediction=pred, error=error))
            continue
        levels = np.linspace(values.min(), values.max(), 20)
        results.append(PhaseSpaceResult(hbar=hbar, prediction=pred, values=values, axis=axis,
                                        levels=levels, peak_value=1.0 / (np.pi * hbar)))
    return results


def convergence_report(
    predict: Predictor,
    spec: SweepSpec,
    sweep: SweepResult,
    trained: SamplingRanges,
) -> ConvergenceReport:
    """Summary metrics of `sweep`, the result of hbar_sweep(predict, spec, cfg),
    against the trained hbar range, trained.hbar.

    In-range rows (trained range is inclusive) contribute max/median relative
    error; degenerate rows are excluded.  The extrapolation flag probes ten
    log-spaced hbar values spanning the two decades below the trained minimum
    and reports whether the predicted sigma_x(t) at the smallest probe is
    strictly below the prediction at the trained minimum, i.e. whether the
    emulated packet keeps localizing beyond the data it was fitted on.
    """
    hbar_min, hbar_max = trained.hbar  # numpy's power, as np.logspace's
    in_range = (sweep.hbar >= hbar_min) & (sweep.hbar <= hbar_max) & np.isfinite(sweep.rel_err)
    if np.any(in_range):
        max_rel = float(np.max(sweep.rel_err[in_range]))
        median_rel = float(np.median(sweep.rel_err[in_range]))
    else:
        max_rel = float("nan")
        median_rel = float("nan")

    lo = trained.hbar_log10[0]
    probes = np.logspace(lo - 2.0, lo, 10)
    probe_preds = np.asarray(predict(spec._state_rows(probes)), dtype=np.float64)[:, 2]
    decreasing = bool(probe_preds[0] < probe_preds[-1])

    return ConvergenceReport(
        max_rel_err=max_rel,
        median_rel_err=median_rel,
        n_in_range=int(np.sum(in_range)),
        extrapolation_decreasing=decreasing,
    )


def save_sweep(result: SweepResult, path: str | os.PathLike) -> None:
    """Plot-ready sweep CSV, one row per hbar, one column per SweepResult field."""
    names = [f.name for f in fields(result)]
    _write_text(path, [",".join(names)], np.column_stack([getattr(result, name) for name in names]))


def save_phase_space(result: PhaseSpaceResult, path: str | os.PathLike) -> None:
    """Plot-ready grid CSV: metadata header block, then the value matrix.

    Row i of the matrix corresponds to momentum axis[i], column j to position
    axis[j]; the x and p bounds are the same.
    """
    if result.error is not None:
        raise ValueError(result.error)
    head = [
        ("# hbar", [result.hbar]),
        *((f"# {name}_pred", [value]) for name, value in zip(STATE, result.prediction)),
        *((f"# {q}_{end}", [result.axis[i]]) for q in "xp" for end, i in (("min", 0), ("max", -1))),
        f"# n {result.values.shape[0]}",
        ("# levels", result.levels),
    ]
    _write_text(path, head, result.values)
