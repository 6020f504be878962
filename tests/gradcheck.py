"""Central-difference check of the analytic gradients of network.backward,
used by the gradient tests."""

from __future__ import annotations

import numpy as np

from wignernet.network import MlpModel, backward, mse_loss


def grad_check(
    model: MlpModel,
    batch: np.ndarray,
    target: np.ndarray,
    epsilon_fd: float = 1e-4,
) -> float:
    """Max relative disagreement between analytic and central-difference gradients.

    Runs one backward pass, then perturbs every entry of the flat parameter
    vector model.params by +/- epsilon_fd with running-statistic updates
    suppressed so repeated forwards see identical state.  Entries where both
    gradients are below 1e-12 (dead ReLU paths) are skipped.  Intended for
    small models: the cost is two forwards per parameter.
    """
    batch = np.asarray(batch, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _, cache = model.forward_train(batch, update_running=False)
    analytic = backward(model, cache, target).copy()

    params = model.params
    worst = 0.0
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + epsilon_fd
        up, _ = model.forward_train(batch, update_running=False)
        params[i] = orig - epsilon_fd
        down, _ = model.forward_train(batch, update_running=False)
        params[i] = orig
        numeric = (mse_loss(up, target) - mse_loss(down, target)) / (2.0 * epsilon_fd)
        if abs(analytic[i]) < 1e-12 and abs(numeric) < 1e-12:
            continue
        rel = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
