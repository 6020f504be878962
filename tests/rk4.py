"""Fixed-step RK4 integrator of the classical equations of motion, an
independent cross-check of the closed-form mean evolution in the tests."""

from __future__ import annotations

import numpy as np

from wignernet.oscillator import OscillatorConfig


def classical_rk4(cfg: OscillatorConfig, x0, p0, steps: int):
    """Fixed-step RK4 integration of xdot = p/m, pdot = -m omega^2 x over [0, t].

    Independent of the closed-form solution; global error falls off as
    steps^-4.  x0 and p0 may be scalars or equal-length arrays (the whole
    batch is integrated in lockstep).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x = np.asarray(x0, dtype=np.float64).copy()
    p = np.asarray(p0, dtype=np.float64).copy()
    scalar = x.ndim == 0
    m, w2 = cfg.m, cfg.omega**2
    h = cfg.t / steps
    for _ in range(steps):
        k1x = p / m
        k1p = -m * w2 * x
        k2x = (p + 0.5 * h * k1p) / m
        k2p = -m * w2 * (x + 0.5 * h * k1x)
        k3x = (p + 0.5 * h * k2p) / m
        k3p = -m * w2 * (x + 0.5 * h * k2x)
        k4x = (p + h * k3p) / m
        k4p = -m * w2 * (x + h * k3x)
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        p = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    if scalar:
        return float(x), float(p)
    return x, p
