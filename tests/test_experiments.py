"""Tests for the hbar sweep, phase-space grids, and convergence metrics."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from wignernet.data import SamplingRanges
from wignernet.experiments import (
    PhaseSpaceSpec,
    SweepSpec,
    convergence_report,
    hbar_sweep,
    oracle_predictor,
    phase_space_grids,
    save_phase_space,
    save_sweep,
)
from wignernet.oscillator import OscillatorConfig

STOCK = OscillatorConfig()
ORACLE = oracle_predictor(STOCK)


def constant_predictor(row=(0.3, 0.9, 0.85, 0.85)):
    row = np.asarray(row, dtype=np.float64)

    def predict(inputs):
        return np.tile(row, (np.asarray(inputs).shape[0], 1))

    return predict


class TestSpecs:
    def test_sweep_defaults(self):
        spec = SweepSpec()
        assert spec.hbar_values.size == 50
        assert spec.hbar_values[0] == pytest.approx(1e-6)
        assert spec.hbar_values[-1] == pytest.approx(1.0)

    def test_sweep_hbar_bounds_default_to_the_sampled_range(self):
        spec = SweepSpec()
        assert (spec.hbar_log10_min, spec.hbar_log10_max) == SamplingRanges().hbar_log10

    def test_sweep_rejects_unsorted_or_nonpositive(self):
        with pytest.raises(ValueError, match="^n_points must be >= 1, got 0"):
            SweepSpec(n_points=0)
        for bounds in [
            {"hbar_log10_min": 0.0, "hbar_log10_max": -6.0},  # reversed
            {"hbar_log10_min": -2.0, "hbar_log10_max": -2.0, "n_points": 2},  # equal
        ]:
            message = r"^hbar_log10_min \S+ to max \S+ must give \d+ ascending hbar values$"
            with pytest.raises(ValueError, match=message):
                SweepSpec(**bounds)
        # 10**-400 is 0.0: the bound is met before any hbar is computed.
        with pytest.raises(ValueError, match="^" + re.escape("hbar_log10_min -400.0 is outside")):
            SweepSpec(hbar_log10_min=-400.0, n_points=2)
        one = SweepSpec(hbar_log10_min=-2.0, hbar_log10_max=-2.0, n_points=1)
        assert one.hbar_values.tolist() == [0.01]

    def test_sweep_rejects_hbar_beyond_the_closed_form(self):
        for bounds, message in [
            ({"hbar_log10_max": 400.0}, "hbar_log10_max 400.0 is outside [-12, 3]"),
            ({"hbar_log10_max": 160.0}, "hbar_log10_max 160.0 is outside [-12, 3]"),
            ({"hbar_log10_min": -320.0}, "hbar_log10_min -320.0 is outside [-12, 3]"),
            ({"sigma_x0": 1e-200}, "sigma_x0 1e-200 is outside [1e-06, 1e+06]"),
            ({"sigma_x0": -1.0}, "sigma_x0 -1.0 is outside [1e-06, 1e+06]"),
        ]:
            with pytest.raises(ValueError, match="^" + re.escape(message)):
                SweepSpec(**bounds)
        # The top of the domain is accepted: hbar = 1e3.
        assert SweepSpec(hbar_log10_max=3.0).hbar_values[-1] == pytest.approx(1e3)

    def test_phasespace_rejects_hbar_beyond_the_closed_form(self):
        for kwargs, message in [
            ({"hbar_values": (1.0, 1e300)}, "hbar_values 1e+300 is outside [1e-12, 1000]"),
            ({"hbar_values": (1e-320,)}, "hbar_values 1e-320 is outside [1e-12, 1000]"),
            ({"sigma_x0": 0.0}, "sigma_x0 0.0 is outside [1e-06, 1e+06]"),
        ]:
            with pytest.raises(ValueError, match="^" + re.escape(message)):
                PhaseSpaceSpec(**kwargs)
        PhaseSpaceSpec(hbar_values=(1e3,))

    def test_phasespace_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            PhaseSpaceSpec(grid_points=1)
        with pytest.raises(ValueError):
            PhaseSpaceSpec(grid_min=2.0, grid_max=-2.0)
        with pytest.raises(ValueError):
            PhaseSpaceSpec(hbar_values=(1.0, -0.1))


class TestHbarSweep:
    def test_analytical_column_at_unit_hbar(self):
        result = hbar_sweep(ORACLE, SweepSpec(), STOCK)
        assert result.hbar[-1] == pytest.approx(1.0)
        assert result.sigma_xt_analytical[-1] == pytest.approx(0.8475635726972683, abs=1e-12)

    def test_analytical_column_strictly_increasing_in_hbar(self):
        result = hbar_sweep(ORACLE, SweepSpec(), STOCK)
        assert np.all(np.diff(result.sigma_xt_analytical) > 0)

    def test_oracle_self_consistency(self):
        """The closed form standing in for the model gives zero error everywhere."""
        result = hbar_sweep(ORACLE, SweepSpec(), STOCK)
        assert np.all(result.rel_err <= 1e-12)
        assert np.array_equal(result.sigma_xt_pred, result.sigma_xt_analytical)
        assert np.array_equal(result.sigma_pt_pred, result.sigma_pt_analytical)
        assert result.n_degenerate == 0

    def test_paper_oracle_has_no_classical_limit(self):
        """q = 1 - sigma_x_cl^2 / sigma_x^2, the share of the width variance hbar adds to
        the classical ensemble's sigma_x_cl = sigma_x0 |cos(omega t)|, stays above 0.8 over
        six decades of hbar (0.871 to 0.888): the paper's cross term does not vanish as
        hbar -> 0.  Documented behaviour of the paper's dynamics, not a bound on the code."""
        spec = SweepSpec()
        result = hbar_sweep(ORACLE, spec, STOCK)
        classical = spec.sigma_x0 * abs(math.cos(STOCK.omega * STOCK.t))
        q = 1.0 - classical**2 / result.sigma_xt_analytical**2
        assert q.size == 50 and np.all(q > 0.8)

    def test_degenerate_predictions_become_missing_points(self):
        result = hbar_sweep(constant_predictor((0.0, 0.0, -1.0, 1.0)), SweepSpec(), STOCK)
        assert result.n_degenerate == result.hbar.size
        assert np.all(np.isnan(result.rel_err))


class TestPhaseSpaceGrids:
    def test_oracle_grid_peaks_near_evolved_center(self):
        spec = PhaseSpaceSpec(hbar_values=(1.0,))
        res = phase_space_grids(ORACLE, spec)[0]
        assert res.error is None
        # Maximum node is the grid point nearest the evolved center.
        i, j = np.unravel_index(np.argmax(res.values), res.values.shape)
        assert res.axis[j] == pytest.approx(res.prediction[0], abs=10.01 / 99)
        assert res.axis[i] == pytest.approx(res.prediction[1], abs=10.01 / 99)
        # Center value is exactly 1/(pi hbar); the nearest node is within 2%.
        assert res.peak_value == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert res.values[i, j] == pytest.approx(1.0 / math.pi, rel=0.02)
        assert res.values.shape == (100, 100)
        assert res.levels.shape == (20,)
        assert res.levels[0] == pytest.approx(res.values.min())
        assert res.levels[-1] == pytest.approx(res.values.max())

    def test_origin_centered_grid_is_symmetric(self):
        spec = PhaseSpaceSpec(x0=0.0, p0=0.0, hbar_values=(1.0,), grid_points=50)
        res = phase_space_grids(ORACLE, spec)[0]
        assert np.allclose(res.values, res.values[::-1, ::-1], rtol=1e-12)

    def test_peak_scales_as_inverse_pi_hbar(self):
        results = phase_space_grids(ORACLE, PhaseSpaceSpec())
        peaks = {res.hbar: res.peak_value for res in results}
        assert peaks[0.01] == pytest.approx(100.0 * peaks[1.0], rel=1e-9)
        assert peaks[0.1] == pytest.approx(10.0 * peaks[1.0], rel=1e-9)
        for hbar, peak in peaks.items():
            assert peak == pytest.approx(1.0 / (math.pi * hbar), rel=1e-12)

    def test_oracle_grid_mass_is_the_evolved_width_product(self):
        """The stock grids hold the whole Gaussian, so each integrates to
        2 sigma_xt sigma_pt / hbar: above 1 where the evolved packet is wider than
        minimum uncertainty, by more at smaller hbar (paper mode's excess mass)."""
        results = phase_space_grids(ORACLE, PhaseSpaceSpec())
        expected = {1.0: 1.4367, 0.1: 12.508, 0.01: 124.90}
        for res in results:
            mass = np.trapezoid(np.trapezoid(res.values, res.axis, axis=1), res.axis)
            _, _, sigma_xt, sigma_pt = res.prediction
            assert mass == pytest.approx(2.0 * sigma_xt * sigma_pt / res.hbar, rel=1e-12)
            assert mass == pytest.approx(expected[res.hbar], rel=1e-4)

    def test_degenerate_width_reported_per_hbar(self):
        for row in [(0.0, 0.0, -0.5, 0.5), (math.nan,) * 4,  # a NaN width is no width either
                    (math.nan, 0, 1, 1), (math.inf, 0, 1, 1), (0, 0, math.inf, 1)]:
            results = phase_space_grids(constant_predictor(row), PhaseSpaceSpec())
            assert all(res.error is not None for res in results)
            assert all(res.values is None for res in results)
            for res in results:
                assert "degenerate" in res.error


def sweep_report(predict, trained_hbar_log10_range):
    """convergence_report over the stock sweep, as `wignernet sweep` computes it."""
    spec = SweepSpec()
    sweep = hbar_sweep(predict, spec, STOCK)
    trained = SamplingRanges(hbar_log10=trained_hbar_log10_range)
    return convergence_report(predict, spec, sweep, trained)


class TestConvergenceReport:
    def test_perfect_emulator(self):
        report = sweep_report(ORACLE, trained_hbar_log10_range=(-6.0, 0.0))
        assert report.max_rel_err == 0.0
        assert report.median_rel_err == 0.0
        assert report.n_in_range == 50
        assert hbar_sweep(ORACLE, SweepSpec(), STOCK).n_degenerate == 0
        assert report.extrapolation_decreasing

    def test_constant_model_does_not_localize(self):
        report = sweep_report(constant_predictor(), trained_hbar_log10_range=(-6.0, 0.0))
        assert not report.extrapolation_decreasing

    def test_range_restriction(self):
        """Only sweep points inside the trained range feed the error metrics."""
        report = sweep_report(ORACLE, trained_hbar_log10_range=(-3.0, 0.0))
        assert report.n_in_range == sum(SweepSpec().hbar_values >= 1e-3)

    def test_trained_bounds_are_the_sweeps_own_hbar_values(self):
        """A sweep over exactly the trained range lies wholly inside it: at every
        tenth in the domain, 10**lo as np.logspace computes it is in range."""
        for lo in (np.arange(-120, 31) / 10).tolist():
            spec = SweepSpec(hbar_log10_min=lo, hbar_log10_max=lo, n_points=1)
            sweep = hbar_sweep(ORACLE, spec, STOCK)
            report = convergence_report(ORACLE, spec, sweep, SamplingRanges(hbar_log10=(lo, lo)))
            assert report.n_in_range == 1, lo

    def test_degenerate_rows_excluded(self):
        predict = constant_predictor((0.0, 0.0, -1.0, 1.0))
        report = sweep_report(predict, trained_hbar_log10_range=(-6.0, 0.0))
        assert report.n_in_range == 0
        assert math.isnan(report.max_rel_err)
        assert hbar_sweep(predict, SweepSpec(), STOCK).n_degenerate == 50


class TestCsvOutputs:
    def test_sweep_csv_layout(self, tmp_path):
        result = hbar_sweep(ORACLE, SweepSpec(), STOCK)
        path = tmp_path / "sweep.csv"
        save_sweep(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "hbar,sigma_xt_pred,sigma_xt_analytical,rel_err,sigma_pt_pred,sigma_pt_analytical"
        )
        assert len(lines) == 51
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == pytest.approx(1e-6)
        assert len(first) == 6

    def test_phase_space_csv_layout(self, tmp_path):
        res = phase_space_grids(ORACLE, PhaseSpaceSpec(hbar_values=(0.1,), grid_points=40))[0]
        path = tmp_path / "grid.csv"
        save_phase_space(res, path)
        lines = path.read_text().splitlines()
        header = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if not l.startswith("#")]
        assert len(header) == 11
        assert header[0].startswith("# hbar 0.1")
        assert len(rows) == 40
        assert all(len(r.split(",")) == 40 for r in rows)
        # Matrix rows reload to the in-memory grid exactly.
        reloaded = np.array([[float(v) for v in r.split(",")] for r in rows])
        assert np.array_equal(reloaded, res.values)

    def test_saving_degenerate_result_raises(self, tmp_path):
        res = phase_space_grids(constant_predictor((0, 0, -1, 1)), PhaseSpaceSpec())[0]
        message = "degenerate prediction at hbar=1: sigma_xt=-1, sigma_pt=1 (must be positive)"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            save_phase_space(res, tmp_path / "never.csv")
        assert not (tmp_path / "never.csv").exists()
