"""Closed-form phase-space dynamics of Gaussian states in a 1-D harmonic oscillator.

For H = p^2/(2m) + (1/2) m omega^2 x^2 a Gaussian wave packet stays Gaussian.  The
paper takes its Wigner function to stay separable, so the state is four numbers: the
center (x(t), p(t)) and the widths (sigma_x(t), sigma_p(t)), the STATE row that
evolve_batch returns and wigner_grid evaluates on phase space.  INPUTS and STATE name
the columns of evolve_batch's input and output rows, the one statement of the layout.

With c = cos(omega t), s = sin(omega t) and M = [[c, s/(m omega)], [-m omega s, c]],
the center follows the classical rotation (x(t), p(t)) = M (x0, p0), and the exact
covariance the same flow, Sigma(t) = M Sigma_0 M^T with Sigma_0 = diag(sigma_x0^2,
sigma_p0^2) and sigma_p0 = hbar / (2 sigma_x0) (Weedbrook et al., Rev. Mod. Phys.
84, 621 (2012); Littlejohn, Phys. Rep. 138, 193 (1986)).  The paper's widths, exact
only for a coherent state, sigma_x0 = sqrt(hbar / (2 m omega)), deviate from it twice:
(1) sigma_x(t)^2 is Sigma_xx (_exact_var_x) plus a cross term (_paper_cross_term),
and (2) sigma_p(t) = m omega sigma_x(t), not sqrt(Sigma_pp).

With hbar = 2 sigma_x0 sigma_p0 the cross term is sin(2 omega t) (sigma_p0^2 / (m omega)^2 -
sigma_x0^2), so at fixed (m, omega, t) the labels are one linear map of (x0, p0, sigma_x0^2,
sigma_p0^2): (x(t), p(t)) = M (x0, p0), sigma_p(t)^2 = (m omega)^2 sigma_x(t)^2, and the signed
variance is sigma_x(t)^2 = (c^2 - sin 2 omega t) sigma_x0^2 + ((s^2 + sin 2 omega t) / (m omega)^2)
sigma_p0^2.  Only a negative coefficient lets a row clamp; the stock t = 5 gives 0.6245 and 0.3755.

The cross term can make the variance negative; evaluation takes sqrt(|sigma_x(t)^2|)
and flags the sign flip (see evolve_batch) rather than failing.  As hbar -> 0 it tends
to -sigma_x0^2 sin(2 omega t), not 0, so the width tends to
sigma_x0 sqrt(cos^2(omega t) - sin(2 omega t)), 0.790 sigma_x0 at omega t = 5, not the
classical ensemble's sigma_x0 |cos(omega t)|, 0.284 sigma_x0: the paper's dynamics has
no classical limit.  Nor do its widths keep sigma_x(t) sigma_p(t) >= hbar/2: 35 of the
10,000 stock rows break it, the least at 0.9685 hbar/2 (cli generate prints the share).

Everything here is a pure function of its arguments (thread-safe), computed
in 64-bit floating point, with m = omega = 1 style dimensionless units.

DOMAIN bounds every input, and each config and dataset is checked against it
when it is loaded (check_domain).  The table is enough for float64: with hbar
down to 1e-14 (convergence_report probes two decades below the hbar_log10
floor), each term of evolve_batch is at most the product of its factors' extremes:

    omega t, 2 omega t                    <= 2e12 (cos and sin stay finite)
    p0 / (m omega), m omega x0            <= 1e18
    sigma_p0 = hbar / (2 sigma_x0)        in [5e-21, 5e8]
    sigma_x0^2; sigma_p0^2                <= 1e12; in [2.5e-41, 2.5e17]
    sigma_p0^2 / (m omega)^2              <= 2.5e41
    hbar / (2 m omega)                    <= 5e14
    sigma_p0 / (m omega sigma_x0)         <= 5e26
    m omega sigma_x0 / sigma_p0           <= 2e38
    _paper_cross_term                     <= 5e14 * 2e38 = 1e53

No divisor is below 1e-24 ((m omega)^2).  At the 384 corners of the box, with t
in {0, 0.3, 1, 2, 5, 1e6}, the output is finite, warning-free and below 6.4e20.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# The columns of an input row, (x0, p0, sigma_x0, hbar), and of the evolved state row.
INPUTS = ("x0", "p0", "sigma_x0", "hbar")
STATE = ("xt", "pt", "sigma_xt", "sigma_pt")

# The closed interval of each input quantity, by the name check_domain takes;
# "grid" bounds both ends of both axes of a phase-space grid, and
# "grid_points" the number of points along each.
DOMAIN = {
    "m": (1e-6, 1e6),
    "omega": (1e-6, 1e6),
    "t": (0.0, 1e6),
    "x0": (-1e6, 1e6),
    "p0": (-1e6, 1e6),
    "sigma_x0": (1e-6, 1e6),
    "hbar_log10": (-12.0, 3.0),
    "grid": (-1e6, 1e6),
    "grid_points": (2, np.inf),
}
DOMAIN["hbar"] = tuple(10.0**b for b in DOMAIN["hbar_log10"])  # (1e-12, 1e3) exactly


def check_domain(*entries: tuple[str, str, float]) -> None:
    """Raise ValueError unless each (key, quantity, value) lies in DOMAIN[quantity],
    naming the first that does not: `x0 max 1e+308 is outside [-1e+06, 1e+06]`."""
    for key, quantity, value in entries:
        lo, hi = DOMAIN[quantity]
        if not lo <= value <= hi:
            raise ValueError(_outside(key, value, lo, hi))


def _outside(key: str, value: float, lo: float, hi: float) -> str:
    """`{key} {value} is outside [{lo}, {hi}]`, each bound with :g where that reads back as it."""
    lo, hi = (f"{b:g}" if float(f"{b:g}") == b else repr(float(b)) for b in (lo, hi))
    return f"{key} {value} is outside [{lo}, {hi}]"


@dataclass
class OscillatorConfig:
    """Fixed dynamical setting: mass, angular frequency, evolution time."""

    m: float = 1.0
    omega: float = 1.0
    t: float = 5.0

    def __post_init__(self):
        check_domain(*((k, k, v) for k, v in vars(self).items()))


def evolve_batch(cfg: OscillatorConfig, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evolve a matrix of N INPUTS rows, (x0, p0, sigma_x0, hbar); one state is a one-row batch.

    Returns the matrix of N STATE rows, (xt, pt, sigma_xt, sigma_pt), and an (N,)
    boolean vector marking rows whose variance went negative before the absolute
    value.  The means are exact; the widths carry the paper's two deviations, its
    cross term in the variance and sigma_pt = m omega sigma_xt.  Rows violating the
    input invariants raise ValueError naming the offending row's 0-based index.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != len(INPUTS):
        raise ValueError(f"inputs must be an (N, {len(INPUTS)}) matrix, got shape {inputs.shape}")
    if not np.all(np.isfinite(inputs)):
        row = int(np.argwhere(~np.isfinite(inputs).all(axis=1))[0, 0])
        raise ValueError(f"row {row}: non-finite input value")
    x0, p0, sx0, hbar = inputs.T
    for name, column in (("sigma_x0", sx0), ("hbar", hbar)):
        if np.any(column <= 0):
            row = int(np.argmax(column <= 0))
            raise ValueError(f"row {row}: {name} must be positive, got {column[row]}")

    m, w, t = cfg.m, cfg.omega, cfg.t
    c = np.cos(w * t)
    s = np.sin(w * t)
    xt = x0 * c + (p0 / (m * w)) * s
    pt = p0 * c - m * w * x0 * s
    sp0 = hbar / (2.0 * sx0)
    var = _exact_var_x(cfg, sx0, sp0) + _paper_cross_term(cfg, sx0, sp0, hbar)  # deviation 1
    clamped = var < 0.0
    sigma_xt = np.sqrt(np.abs(var))
    targets = np.column_stack([xt, pt, sigma_xt, m * w * sigma_xt])  # deviation 2
    return targets, clamped


def _exact_var_x(cfg: OscillatorConfig, sx0, sp0):
    """Sigma_xx of the exact flow M Sigma_0 M^T: sigma_x0^2 c^2 + sigma_p0^2 s^2 / (m omega)^2."""
    m, w, t = cfg.m, cfg.omega, cfg.t
    return sx0**2 * np.cos(w * t) ** 2 + (sp0**2 / (m**2 * w**2)) * np.sin(w * t) ** 2


def _paper_cross_term(cfg: OscillatorConfig, sx0, sp0, hbar):
    """The paper's term in sigma_x(t)^2 beyond the exact flow, its first deviation;
    0 to rounding for a coherent state, -sigma_x0^2 sin(2 omega t) as hbar -> 0."""
    m, w, t = cfg.m, cfg.omega, cfg.t
    return (hbar / (2.0 * m * w)) * np.sin(2.0 * w * t) * (sp0 / (m * w * sx0) - m * w * sx0 / sp0)


def wigner_grid(state, hbar: float, x_axis: np.ndarray, p_axis: np.ndarray) -> np.ndarray:
    """The Wigner function of the (xt, pt, sigma_xt, sigma_pt) state row at hbar,
    as values[i, j] = W(x_axis[j], p_axis[i]): rows run over momentum, columns
    over position, the usual meshgrid orientation for contour plotting.

    W(x, p) = 1/(pi hbar) exp(-(x - xt)^2 / (2 sigma_xt^2) - (p - pt)^2 / (2 sigma_pt^2))

    The value at the center is 1/(pi hbar); the function integrates to
    2 sigma_xt sigma_pt / hbar, which is 1 exactly at minimum uncertainty.
    Every parameter must be finite, and the widths and hbar positive.
    """
    xt, pt, sigma_xt, sigma_pt = state
    for name, value in (("sigma_xt", sigma_xt), ("sigma_pt", sigma_pt), ("hbar", hbar)):
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")
    for name, value in zip((*STATE, "hbar"), (*state, hbar)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    ex = (np.reshape(x_axis, (1, -1)) - xt) ** 2 / (2.0 * sigma_xt**2)
    ep = (np.reshape(p_axis, (-1, 1)) - pt) ** 2 / (2.0 * sigma_pt**2)
    return np.exp(-ex - ep) / (np.pi * hbar)
