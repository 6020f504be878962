"""Fixed-step RK4 integrator of the classical equations of motion, an
independent cross-check of the closed-form mean evolution in the tests."""

from __future__ import annotations

import numpy as np

from wignernet.oscillator import OscillatorConfig


def classical_rk4(cfg: OscillatorConfig, x0, p0, steps: int):
    """Fixed-step RK4 integration of xdot = p/m, pdot = -m omega^2 x over [0, t].

    Independent of the closed-form solution; global error falls off as
    steps^-4.  x0 and p0 may be scalars or equal-length arrays (the whole
    batch is integrated in lockstep).  The state is one stacked (x, p) array,
    and each step runs the textbook form's operations in its order, into
    buffers allocated once, so the result has the textbook form's bits.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    state = np.array([x0, p0], dtype=np.float64)
    shape = state.shape[1:]
    state = state.reshape(2, -1)
    x, p = state
    m, c = cfg.m, -cfg.m * cfg.omega**2
    h = cfg.t / steps
    k = np.empty((4, *state.shape))  # stage j's (xdot, pdot) in k[j]
    probe = np.empty_like(state)  # the state at which the next stage's slope is taken
    probe_x, probe_p = probe
    doubled, total = np.empty((2, *state.shape)), np.empty_like(state)
    for _ in range(steps):
        np.divide(p, m, out=k[0, 0])
        np.multiply(x, c, out=k[0, 1])
        for stage, step in ((1, 0.5 * h), (2, 0.5 * h), (3, h)):
            np.multiply(k[stage - 1], step, out=probe)
            probe += state
            np.divide(probe_p, m, out=k[stage, 0])
            np.multiply(probe_x, c, out=k[stage, 1])
        np.multiply(k[1:3], 2.0, out=doubled)  # k1 + 2 k2 + 2 k3 + k4, summed left to right
        np.add(k[0], doubled[0], out=total)
        total += doubled[1]
        total += k[3]
        total *= h / 6.0
        state += total
    if not shape:
        return float(x[0]), float(p[0])
    return x.reshape(shape), p.reshape(shape)
