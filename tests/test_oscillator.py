"""Tests for the closed-form packet evolution, Wigner evaluation, and the RK4 cross-check."""

from __future__ import annotations

import math

import numpy as np
import pytest

from rk4 import classical_rk4
from wignernet.data import SamplingRanges, sample_inputs
from wignernet.oscillator import (
    DOMAIN,
    OscillatorConfig,
    _exact_var_x,
    _paper_cross_term,
    evolve_batch,
    wigner_grid,
)

CFG = OscillatorConfig(m=1.0, omega=1.0, t=5.0)
PROBE = (1.0, 0.0, 1.0, 1.0)  # (x0, p0, sigma_x0, hbar)

# Frozen float64 evaluations of the closed-form expressions at the probe point,
# cross-checked against RK4 integration below.
X_AT_5 = 0.28366218546322625  # cos(5)
P_AT_5 = 0.9589242746631385  # -sin(5)
VAR_AT_5 = 0.7183640097633577  # cos^2(5) + 0.25 sin^2(5) - 0.75 sin(10)
SIGMA_X_AT_5 = 0.8475635726972683  # sqrt of the above


def evolve_one(cfg, x0, p0, sigma_x0, hbar):
    """One state as a one-row batch: its (xt, pt, sigma_xt, sigma_pt) row and clamp flag."""
    targets, clamped = evolve_batch(cfg, np.array([[x0, p0, sigma_x0, hbar]]))
    return targets[0], bool(clamped[0])


def wigner_at(state, hbar, x, p):
    """W of the (xt, pt, sigma_xt, sigma_pt) state row at the one point (x, p)."""
    return wigner_grid(state, hbar, np.array([x]), np.array([p]))[0, 0]


def box_axes(state, n):
    """n-point position and momentum axes over +-8 widths around the state's center."""
    xt, pt, sigma_xt, sigma_pt = state
    return (np.linspace(xt - 8 * sigma_xt, xt + 8 * sigma_xt, n),
            np.linspace(pt - 8 * sigma_pt, pt + 8 * sigma_pt, n))


def random_states(rng, n):
    """(n, 4) matrix of (x0, p0, sigma_x0, hbar) rows over the stock ranges."""
    x0 = rng.uniform(-5, 5, n)
    p0 = rng.uniform(-5, 5, n)
    sigma = rng.uniform(0.5, 2.0, n)
    hbar = 10.0 ** rng.uniform(-6, 0, n)
    return np.column_stack([x0, p0, sigma, hbar])


class TestDomainTypes:
    def test_config_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            OscillatorConfig(m=0.0)

    def test_config_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            OscillatorConfig(omega=-1.0)

    def test_config_rejects_negative_time(self):
        with pytest.raises(ValueError):
            OscillatorConfig(t=-0.1)

    def test_state_rejects_bad_width_and_hbar(self):
        with pytest.raises(ValueError):
            evolve_one(CFG, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            evolve_one(CFG, 0.0, 0.0, 1.0, 0.0)

    def test_wigner_rejects_nonpositive_parameters(self):
        axis = np.linspace(-1.0, 1.0, 3)
        for state, hbar, name in [((0.0, 0.0, 0.0, 1.0), 1.0, "sigma_xt"),
                                  ((0.0, 0.0, 1.0, -1.0), 1.0, "sigma_pt"),
                                  ((0.0, 0.0, 1.0, 1.0), 0.0, "hbar")]:
            with pytest.raises(ValueError, match=f"^{name} must be positive"):
                wigner_grid(state, hbar, axis, axis)

    def test_wigner_center_value_is_inverse_pi_hbar(self):
        for hbar in (1.0, 0.1, 0.01):
            center = wigner_at((0.3, -0.2, 0.7, 1.1), hbar, 0.3, -0.2)
            assert center == pytest.approx(1.0 / (math.pi * hbar), rel=1e-14)


class TestSigmaP0:
    """sigma_p0 = hbar / (2 sigma_x0).  After a quarter period the position
    width is sigma_p0 / (m omega), so with m = omega = 1 the evolved momentum
    width m omega sigma_x(T/4) equals sigma_p0."""

    QUARTER = OscillatorConfig(t=math.pi / 2.0)

    def test_unit_case(self):
        assert evolve_one(self.QUARTER, 0, 0, 1.0, 1.0)[0][3] == pytest.approx(0.5)

    def test_half_width(self):
        assert evolve_one(self.QUARTER, 0, 0, 0.5, 1.0)[0][3] == pytest.approx(1.0)

    def test_linear_in_hbar(self):
        assert evolve_one(self.QUARTER, 0, 0, 1.0, 0.01)[0][3] == pytest.approx(0.005)


class TestEvolveMean:
    def test_identity_at_t_zero(self):
        cfg = OscillatorConfig(t=0.0)
        for state in random_states(np.random.default_rng(0), 20):
            out, _ = evolve_one(cfg, *state)
            assert (out[0], out[1]) == (state[0], state[1])

    def test_probe_point(self):
        (xt, pt, _, _), _ = evolve_one(CFG, *PROBE)
        assert xt == pytest.approx(X_AT_5, abs=1e-12)
        assert pt == pytest.approx(P_AT_5, abs=1e-12)

    def test_full_period_return(self):
        cfg = OscillatorConfig(t=2.0 * math.pi)
        (xt, pt, _, _), _ = evolve_one(cfg, *PROBE)
        assert xt == pytest.approx(1.0, abs=1e-12)
        assert pt == pytest.approx(0.0, abs=1e-12)

    def test_rotation_invariant(self):
        """x(t)^2 + (p(t)/mw)^2 is conserved for random settings."""
        rng = np.random.default_rng(1)
        for _ in range(200):
            cfg = OscillatorConfig(
                m=rng.uniform(0.5, 2.0), omega=rng.uniform(0.5, 2.0), t=rng.uniform(0, 20)
            )
            x0, p0, sigma_x0, hbar = random_states(rng, 1)[0]
            (xt, pt, _, _), _ = evolve_one(cfg, x0, p0, sigma_x0, hbar)
            mw = cfg.m * cfg.omega
            before = x0**2 + (p0 / mw) ** 2
            after = xt**2 + (pt / mw) ** 2
            assert after == pytest.approx(before, rel=1e-9, abs=1e-12)


class TestEvolveWidths:
    def test_probe_point(self):
        (_, _, sigma_xt, sigma_pt), clamped = evolve_one(CFG, *PROBE)
        assert sigma_xt == pytest.approx(SIGMA_X_AT_5, abs=1e-12)
        assert sigma_pt == pytest.approx(SIGMA_X_AT_5, abs=1e-12)
        assert not clamped

    def test_widths_at_t_zero(self):
        cfg = OscillatorConfig(m=1.7, omega=0.8, t=0.0)
        (_, _, sigma_xt, sigma_pt), clamped = evolve_one(cfg, 0.3, -0.4, 1.2, 0.05)
        assert sigma_xt == pytest.approx(1.2, rel=1e-14)
        assert sigma_pt == pytest.approx(1.7 * 0.8 * 1.2, rel=1e-14)
        assert not clamped

    def test_coherent_width_is_invariant(self):
        """sigma_x0 = sqrt(hbar/(2mw)) keeps its width at any time."""
        rng = np.random.default_rng(2)
        for _ in range(100):
            m, w = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            hbar = 10.0 ** rng.uniform(-6, 0)
            cfg = OscillatorConfig(m=m, omega=w, t=rng.uniform(0, 20))
            coherent = math.sqrt(hbar / (2.0 * m * w))
            (_, _, sigma_xt, _), _ = evolve_one(cfg, 0.0, 0.0, coherent, hbar)
            assert sigma_xt == pytest.approx(coherent, rel=1e-9)

    def test_negative_variance_is_clamped_and_flagged(self):
        # At t = pi/4 and sigma_x0 = hbar = 1 the variance formula gives -0.125.
        cfg = OscillatorConfig(t=math.pi / 4.0)
        (_, _, sigma_xt, _), clamped = evolve_one(cfg, 0, 0, 1.0, 1.0)
        assert clamped
        assert sigma_xt == pytest.approx(math.sqrt(0.125), rel=1e-12)
        # At t = 5 over the stock ranges the variance stays positive.
        _, clamped = evolve_batch(CFG, random_states(np.random.default_rng(5), 50))
        assert not clamped.any()

    def test_momentum_width_ratio_is_m_omega(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            cfg = OscillatorConfig(
                m=rng.uniform(0.5, 2.0), omega=rng.uniform(0.5, 2.0), t=rng.uniform(0, 20)
            )
            (_, _, sigma_xt, sigma_pt), _ = evolve_one(cfg, *random_states(rng, 1)[0])
            assert sigma_pt / sigma_xt == pytest.approx(cfg.m * cfg.omega, rel=1e-12)


class TestPaperDeviations:
    """The paper's variance is the exact flow's Sigma_xx plus its cross term, each
    checked on its own."""

    @pytest.mark.parametrize("m, w, t", [(1.0, 1.0, 5.0), (2.5, 0.3, 7.1)])
    def test_exact_term_is_the_integrated_flows(self, m, w, t):
        """Sigma_xx = M00^2 sigma_x0^2 + M01^2 sigma_p0^2, with the transfer matrix M
        integrated by RK4 from (1, 0) and from (0, 1), not taken from the closed form."""
        cfg = OscillatorConfig(m=m, omega=w, t=t)
        (m00, m01), _ = classical_rk4(cfg, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 10_000)
        for sx0, hbar in ((a, b) for a in (0.5, 1.0, 2.0) for b in (1e-6, 0.1, 1.0)):
            sp0 = hbar / (2.0 * sx0)
            integrated = m00**2 * sx0**2 + m01**2 * sp0**2
            assert _exact_var_x(cfg, sx0, sp0) == pytest.approx(integrated, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m, w, t", [(1.0, 1.0, 5.0), (2.5, 0.3, 7.1), (1.0, 1.0, 0.3)])
    def test_cross_term_is_rounding_for_a_coherent_state(self, m, w, t):
        """At sigma_x0 = sqrt(hbar / (2 m omega)) the cross term's bracket is 1 - 1, so
        it is a few roundings of the exact variance, scaled by sin(2 omega t)."""
        cfg = OscillatorConfig(m=m, omega=w, t=t)
        hbar = np.logspace(-6, 0, 25)
        sx0 = np.sqrt(hbar / (2.0 * m * w))
        sp0 = hbar / (2.0 * sx0)
        ratio = np.abs(_paper_cross_term(cfg, sx0, sp0, hbar) / _exact_var_x(cfg, sx0, sp0))
        assert np.all(ratio <= 4.0 * np.finfo(float).eps * abs(math.sin(2.0 * w * t)))

    @pytest.mark.parametrize("m, w, t", [(1.0, 1.0, 5.0), (2.5, 0.3, 7.1), (1.0, 1.0, 0.3)])
    def test_cross_term_does_not_vanish_as_hbar_goes_to_zero(self, m, w, t):
        """As hbar -> 0 the cross term tends to -sigma_x0^2 sin(2 omega t), so the paper's
        variance keeps it where the classical ensemble's has sigma_x0^2 cos^2(omega t) only."""
        cfg = OscillatorConfig(m=m, omega=w, t=t)
        sx0, hbar = np.array([0.5, 1.0, 2.0]), 1e-12
        limit = -(sx0**2) * math.sin(2.0 * w * t)
        cross = _paper_cross_term(cfg, sx0, hbar / (2.0 * sx0), hbar)
        assert np.all(np.abs(cross - limit) <= 1e-15 * np.abs(limit))

    @pytest.mark.parametrize("m, w, t", [(1.0, 1.0, 5.0), (1.0, 1.0, 0.3), (2.5, 0.3, 7.1), (1.0, 1.0, 0.0),
                                         (1e-3, 1e3, 2.0), (1e6, 1e-6, 1e6), (1e-6, 1e6, 3.0)])
    def test_variance_is_linear_in_the_initial_variances(self, m, w, t):
        """With hbar = 2 sigma_x0 sigma_p0 the cross term is sin(2 omega t) (sigma_p0^2 / (m omega)^2
        - sigma_x0^2), so the signed sigma_xt^2 (negative on clamped rows) is
        (c^2 - sin 2wt) sigma_x0^2 + ((s^2 + sin 2wt) / (m w)^2) sigma_p0^2, to 64 ulp of
        the larger term, over log-uniform DOMAIN draws of sigma_x0 and hbar."""
        cfg, n = OscillatorConfig(m=m, omega=w, t=t), 20_000
        rng = np.random.default_rng(20)
        sx0 = 10.0 ** rng.uniform(*np.log10(DOMAIN["sigma_x0"]), n)
        hbar = 10.0 ** rng.uniform(*DOMAIN["hbar_log10"], n)
        targets, clamped = evolve_batch(cfg, np.column_stack([np.zeros((n, 2)), sx0, hbar]))
        signed = np.where(clamped, -1.0, 1.0) * targets[:, 2] ** 2
        c, s, s2 = math.cos(w * t), math.sin(w * t), math.sin(2.0 * w * t)
        terms = np.array([(c * c - s2) * sx0**2, ((s * s + s2) / (m * w) ** 2) * (hbar / (2.0 * sx0)) ** 2])
        assert np.all(np.abs(signed - terms.sum(0)) <= 64 * np.spacing(np.abs(terms).max(0)))

    def test_stock_variance_coefficients_are_positive(self):
        """At the stock t = 5 both coefficients are positive, so no stock row clamps."""
        c, s, s2 = math.cos(5.0), math.sin(5.0), math.sin(10.0)
        assert (round(c * c - s2, 4), round(s * s + s2, 4)) == (0.6245, 0.3755)


class TestHighPrecisionReference:
    def test_stock_rows_match_a_50_digit_evaluation(self):
        """The first 3,000 stock rows against the paper's formula in 50-digit arithmetic:
        widths within 4 ulp, and means within 2 eps of the size of their terms (xt and pt
        cancel, so an ulp of the result is no scale for them)."""
        mpmath = pytest.importorskip("mpmath")
        rows = sample_inputs(SamplingRanges(), 10_000, 42)[:3000]
        got, _ = evolve_batch(CFG, rows)
        mpf = mpmath.mpf
        err, scale = np.empty_like(got), np.empty_like(got)
        with mpmath.workdps(50):
            m, w, t = mpf(CFG.m), mpf(CFG.omega), mpf(CFG.t)
            c, s, s2 = mpmath.cos(w * t), mpmath.sin(w * t), mpmath.sin(2 * w * t)
            for k, row in enumerate(rows.tolist()):
                x0, p0, sx0, hbar = map(mpf, row)
                sp0 = hbar / (2 * sx0)
                var = (sx0**2 * c**2 + sp0**2 * s**2 / (m * w) ** 2
                       + hbar / (2 * m * w) * s2 * (sp0 / (m * w * sx0) - m * w * sx0 / sp0))
                sigma = mpmath.sqrt(abs(var))
                ref = (x0 * c + p0 * s / (m * w), p0 * c - m * w * x0 * s, sigma, m * w * sigma)
                err[k] = [float(abs(mpf(v) - r)) for v, r in zip(got[k].tolist(), ref)]
                scale[k, :2] = [float(abs(x0 * c) + abs(p0 * s / (m * w))),
                                float(abs(p0 * c) + abs(m * w * x0 * s))]
                scale[k, 2:] = np.spacing([float(sigma), float(m * w * sigma)])
        assert np.all(err[:, :2] <= 2.0 * np.finfo(float).eps * scale[:, :2])
        assert np.all(err[:, 2:] <= 4.0 * scale[:, 2:])


class TestEvolve:
    def test_probe_point_composition(self):
        out, _ = evolve_one(CFG, *PROBE)
        assert np.allclose(out, [X_AT_5, P_AT_5, SIGMA_X_AT_5, SIGMA_X_AT_5], atol=1e-12)

    def test_t_zero_returns_initial_parameters(self):
        cfg = OscillatorConfig(m=2.0, omega=0.5, t=0.0)
        out, _ = evolve_one(cfg, 0.7, -1.1, 0.9, 0.2)
        assert np.allclose(out, [0.7, -1.1, 0.9, 2.0 * 0.5 * 0.9], rtol=1e-14)

    def test_origin_is_fixed_point_of_means(self):
        (xt, pt, sigma_xt, _), _ = evolve_one(CFG, 0.0, 0.0, 1.0, 1.0)
        assert xt == 0.0
        assert pt == 0.0
        assert sigma_xt > 0

    def test_periodicity(self):
        """Evolving for t and t + 2 pi / omega gives the same state."""
        rng = np.random.default_rng(4)
        for _ in range(50):
            m, w, t = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0, 10)
            state = random_states(rng, 1)[0]
            a, _ = evolve_one(OscillatorConfig(m=m, omega=w, t=t), *state)
            b, _ = evolve_one(OscillatorConfig(m=m, omega=w, t=t + 2.0 * math.pi / w), *state)
            assert np.allclose(a, b, atol=1e-9)


class TestEvolveBatch:
    def test_reports_offending_row(self):
        inputs = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, -1.0, 1.0]])
        with pytest.raises(ValueError, match="row 1"):
            evolve_batch(CFG, inputs)
        inputs = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="row 1"):
            evolve_batch(CFG, inputs)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="N, 4"):
            evolve_batch(CFG, np.zeros((3, 3)))


class TestWignerValue:
    def test_center_value(self):
        assert wigner_at((0.0, 0.0, 1.0, 1.0), 1.0, 0.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_unit_offset(self):
        expected = math.exp(-0.5) / math.pi
        assert wigner_at((0.0, 0.0, 1.0, 1.0), 1.0, 1.0, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_positive_and_peaked_at_center(self):
        rng = np.random.default_rng(6)
        state = (0.5, -1.0, 0.8, 1.3)
        center = wigner_at(state, 0.3, 0.5, -1.0)
        for _ in range(100):
            x, p = rng.uniform(-5, 5, 2)
            v = wigner_at(state, 0.3, x, p)
            assert v > 0.0
            assert v <= center

    def test_total_mass_equals_two_sigma_product_over_hbar(self):
        """Trapezoid quadrature over +-8 sigma reproduces the closed-form integral."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            state = (*rng.uniform(-1, 1, 2), *rng.uniform(0.5, 2.0, 2))
            hbar = 10.0 ** rng.uniform(-2, 0)
            xs, ps = box_axes(state, 400)
            vals = wigner_grid(state, hbar, xs, ps)
            mass = np.trapezoid(np.trapezoid(vals, xs, axis=1), ps)
            assert mass == pytest.approx(2.0 * state[2] * state[3] / hbar, rel=1e-9)

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.0, 5.0, 40.0])
    def test_evolved_rows_mass_is_two_sigma_product_over_hbar(self, t):
        """So too for evolved rows, which need not be at minimum uncertainty."""
        inputs = random_states(np.random.default_rng(12), 8)
        targets, _ = evolve_batch(OscillatorConfig(t=t), inputs)
        for state, hbar in zip(targets, inputs[:, 3]):
            xs, ps = box_axes(state, 400)
            vals = wigner_grid(state, hbar, xs, ps)
            mass = np.trapezoid(np.trapezoid(vals, xs, axis=1), ps)
            assert mass == pytest.approx(2.0 * state[2] * state[3] / hbar, rel=1e-9)


class TestWignerGrid:
    def test_two_point_grid_matches_pointwise_values(self):
        axis = np.array([0.0, 1.0])
        vals = wigner_grid((0.0, 0.0, 1.0, 1.0), 1.0, axis, axis)
        assert vals.shape == (2, 2)
        for i, p in enumerate(axis):
            for j, x in enumerate(axis):
                assert vals[i, j] == pytest.approx(math.exp(-(x * x + p * p) / 2) / math.pi, rel=1e-14)

    def test_rejects_degenerate_inputs(self):
        """A NaN width or hbar is no Gaussian: `not > 0` rejects it with the rest."""
        axis = np.linspace(-1.0, 1.0, 10)
        for state, hbar in [((0.0, 0.0, math.nan, 1.0), 1.0),
                            ((0.0, 0.0, 1.0, math.nan), 1.0),
                            ((0.0, 0.0, 1.0, 1.0), math.nan)]:
            with pytest.raises(ValueError, match="must be positive, got nan"):
                wigner_grid(state, hbar, axis, axis)

    def test_rejects_non_finite_center_and_width(self):
        """An infinite center or width would give an all-zero grid, a NaN center an all-NaN one."""
        axis = np.linspace(-1.0, 1.0, 10)
        for state, name in [((math.nan, 0.0, 1.0, 1.0), "xt"), ((0.0, -math.inf, 1.0, 1.0), "pt"),
                            ((0.0, 0.0, math.inf, 1.0), "sigma_xt"),
                            ((0.0, 0.0, 1.0, math.inf), "sigma_pt")]:
            with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
                wigner_grid(state, 1.0, axis, axis)

    def test_argmax_is_node_nearest_evolved_center(self):
        """100-point grid over [-10,10]^2 peaks at the node closest to (x(t), p(t))."""
        state, _ = evolve_one(CFG, *PROBE)
        hbar = PROBE[3]
        axis = np.linspace(-10, 10, 100)
        vals = wigner_grid(state, hbar, axis, axis)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        assert j == np.argmin(np.abs(axis - state[0]))
        assert i == np.argmin(np.abs(axis - state[1]))
        # Grid-node peak sits within one cell of the true center, so within 2%.
        assert vals[i, j] == pytest.approx(1.0 / (math.pi * hbar), rel=0.02)

    def test_argmax_nearest_center_random(self):
        rng = np.random.default_rng(8)
        axis = np.linspace(-10, 10, 73)
        for _ in range(25):
            state = (*rng.uniform(-8, 8, 2), *rng.uniform(0.3, 2.0, 2))
            vals = wigner_grid(state, 1.0, axis, axis)
            i, j = np.unravel_index(np.argmax(vals), vals.shape)
            assert j == np.argmin(np.abs(axis - state[0]))
            assert i == np.argmin(np.abs(axis - state[1]))

    def test_centered_grid_is_symmetric(self):
        axis = np.linspace(-3, 3, 21)
        vals = wigner_grid((0.0, 0.0, 0.9, 1.4), 0.5, axis, axis)
        assert np.allclose(vals, vals[::-1, ::-1], rtol=1e-13)

    def test_momentum_marginal_is_position_gaussian(self):
        """Summing over p (times dp) gives the 1-D position density at min uncertainty."""
        x0, p0, sigma_x0, hbar = 0.4, -0.7, 1.1, 0.8
        state = (x0, p0, sigma_x0, hbar / (2.0 * sigma_x0))
        xs, ps = box_axes(state, 500)
        vals = wigner_grid(state, hbar, xs, ps)
        dp = ps[1] - ps[0]
        marginal = vals.sum(axis=0) * dp
        expected = np.exp(-((xs - x0) ** 2) / (2 * sigma_x0**2)) / math.sqrt(2 * math.pi * sigma_x0**2)
        assert np.max(np.abs(marginal - expected)) < 1e-6


class TestClassicalRk4:
    def test_matches_closed_form_at_probe(self):
        xt, pt = classical_rk4(CFG, 1.0, 0.0, 10_000)
        assert xt == pytest.approx(X_AT_5, abs=1e-10)
        assert pt == pytest.approx(P_AT_5, abs=1e-10)

    def test_zero_interval(self):
        cfg = OscillatorConfig(t=0.0)
        assert classical_rk4(cfg, 0.3, -0.2, 100) == (0.3, -0.2)

    def test_fourth_order_convergence(self):
        """Halving the step count grows the error by roughly 2^4."""

        def err(steps):
            xt, pt = classical_rk4(CFG, 1.0, 0.0, steps)
            return math.hypot(xt - X_AT_5, pt - P_AT_5)

        coarse, fine = err(20), err(40)
        assert fine > 1e-12  # still far from rounding level
        assert 10.0 < coarse / fine < 22.0

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            classical_rk4(CFG, 1.0, 0.0, 0)

    def test_buffered_steps_have_the_textbook_bits(self):
        """The stacked, preallocated steps give every bit of the textbook form."""
        cfg = OscillatorConfig(m=2.5, omega=0.7, t=3.3)
        rng = np.random.default_rng(4)
        x, p = rng.uniform(-5, 5, (2, 50))
        got = classical_rk4(cfg, x, p, 300)
        m, c, h = cfg.m, -cfg.m * cfg.omega**2, cfg.t / 300
        for _ in range(300):
            k1x, k1p = p / m, c * x
            k2x, k2p = (p + 0.5 * h * k1p) / m, c * (x + 0.5 * h * k1x)
            k3x, k3p = (p + 0.5 * h * k2p) / m, c * (x + 0.5 * h * k2x)
            k4x, k4p = (p + h * k3p) / m, c * (x + h * k3x)
            x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            p = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        assert np.array_equal(got[0], x) and np.array_equal(got[1], p)

    def test_vectorized_agreement_with_closed_form(self):
        """1,000 random initial conditions integrate to the closed form within 1e-9."""
        rng = np.random.default_rng(9)
        x0 = rng.uniform(-5, 5, 1000)
        p0 = rng.uniform(-5, 5, 1000)
        xt, pt = classical_rk4(CFG, x0, p0, 10_000)
        c, s = math.cos(5.0), math.sin(5.0)
        assert np.max(np.abs(xt - (x0 * c + p0 * s))) < 1e-9
        assert np.max(np.abs(pt - (p0 * c - x0 * s))) < 1e-9
