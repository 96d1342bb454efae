"""The optimizer's epoch on numpy arrays, kept as a reference for the tests.

``vista.optimize`` runs its epoch on Python floats.  This module is the same
loop written on (L, p) arrays, as the package ran it before: the block built
from the step vectors with ``np.add`` and ``np.subtract``, ADAM as array
ufuncs, each bounded column clamped with ``np.clip`` at the start, in the
block and after each step, the deltas and the window summed by numpy reductions, and the
trace in preallocated arrays.  Only its call of the loss closure follows the
package: the block goes in as columns of Python floats and the losses come
back as a list.  It shares only the config objects, the steps and bounds it is
handed and the stop-rule constants with the package, so a test can require every ``OptRun`` field and
trace column of the two to agree bit for bit.
"""

import functools
import time

import numpy as np

from vista.errors import NumericsError
from vista.optimize import (
    STATUS_BUDGET_EXHAUSTED,
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_MAX_EPOCHS,
    THETA_GUARD,
    OptRun,
)


def clamp(values, bounds):
    """The (R, p) rows ``values``, with each column that has bounds (lo, hi) clamped to them in place."""
    for j, bound in enumerate(bounds):
        if bound:
            values[:, j] = values[:, j].clip(*bound)
    return values


def adam_step(cfg, t, m, v, values, grad):
    """One ADAM update after ``t`` earlier ones; returns (m, v, new_values)."""
    m = cfg.beta1 * m + (1 - cfg.beta1) * grad
    v = cfg.beta2 * v + (1 - cfg.beta2) * grad**2
    m_hat = m / (1 - cfg.beta1 ** (t + 1))
    v_hat = v / (1 - cfg.beta2 ** (t + 1))
    return m, v, values - cfg.lr_at(t) * m_hat / (np.sqrt(v_hat) + cfg.eps)


def gradient_steps(steps):
    """(ups, downs, scales) of the steps (shifts, scales): values + ups[i] and values - downs[i] shift column i."""
    shifts, scales = steps
    own = np.eye(len(shifts), dtype=bool)[:, None, :]
    return np.where(own, shifts, -0.0), np.where(own, shifts, 0.0), np.array(scales)


def estimate_gradient(values, lossfn, steps, bounds, epoch, nu, rows):
    """(losses, gradient) of the (L, p) rows ``values``, from one call of ``lossfn`` on their stacked block."""
    ups, downs, scales = gradient_steps(steps)
    nrows, nparams = values.shape
    block = np.empty((1 + 2 * nparams, nrows, nparams))
    block[0] = values
    np.add(values, ups, out=block[1::2])
    np.subtract(values, downs, out=block[2::2])
    stacked = clamp(block.reshape(-1, nparams), bounds)  # a bounded column's shifts stay in its bounds, as its rows do
    out = np.array(lossfn(stacked.T.tolist(), nu, epoch, rows.tolist()))
    losses = out[:nrows]
    if not np.isfinite(losses).all():
        raise NumericsError(f"non-finite loss at epoch {epoch}")
    shifted = out[nrows:].reshape(nparams, 2, nrows)
    grad = (shifted[:, 0].T - shifted[:, 1].T) * scales
    if not np.isfinite(grad).all():
        raise NumericsError("non-finite loss in gradient evaluation")
    return losses, grad


def run_optimization(params0, lossfn, *, optimizer, schedule, steps, bounds):
    """``vista.optimize.run_optimization`` on arrays; returns one ``OptRun`` per row."""
    values = clamp(np.array(params0, dtype=float), bounds)
    nrows, nparams = values.shape
    max_epochs, tol_conv, window = optimizer.max_epochs, optimizer.tol_conv, optimizer.window
    m, v = np.zeros(values.shape), np.zeros(values.shape)
    rows = np.arange(nrows)
    losses = np.empty((max_epochs, nrows))
    params = np.empty((max_epochs, nrows, nparams))
    grads = np.empty((max_epochs, nrows, nparams))
    deltas = np.empty((max_epochs, nrows))
    shots, lrs = [], []
    runs = {}
    t0 = time.monotonic()

    def finish(k, epochs, status):
        runs[int(rows[k])] = OptRun(status, {
            "epoch": np.arange(epochs),
            "loss": losses[:epochs, k].copy(),
            "params": params[:epochs, k].copy(),
            # the squares of each epoch's gradient added from left to right, with no BLAS dot
            "grad_norm": np.sqrt(functools.reduce(np.add, np.square(grads[:epochs, k]).T)),
            "shots": np.array(shots[:epochs], dtype=int),
            "lr": np.array(lrs[:epochs]),
        })

    for epoch in range(max_epochs):
        nu = schedule.shots_at(epoch, max_epochs)
        loss_here, grad = estimate_gradient(values, lossfn, steps, bounds, epoch, nu, rows)
        m, v, new_values = adam_step(optimizer, epoch, m, v, values, grad)
        new_values = clamp(new_values, bounds)
        losses[epoch], params[epoch], grads[epoch] = loss_here, new_values, grad
        deltas[epoch] = np.add.reduce(np.abs(new_values - values), axis=1) / float(nparams)
        shots.append(0 if nu is None else nu)
        lrs.append(optimizer.lr_at(epoch))
        values = new_values

        diverged = ~(np.maximum.reduce(np.abs(values), axis=1) <= THETA_GUARD)
        converged = np.zeros(len(rows), dtype=bool)
        if tol_conv > 0 and epoch + 1 >= window:
            converged = np.add.accumulate(deltas[epoch + 1 - window : epoch + 1], axis=0)[-1] / window < tol_conv
        out_of_time = time.monotonic() - t0 > optimizer.budget_s
        for k in range(len(rows)):
            if diverged[k]:
                finish(k, epoch + 1, STATUS_DIVERGED)
            elif converged[k]:
                finish(k, epoch + 1, STATUS_CONVERGED)
            elif out_of_time:
                finish(k, epoch + 1, STATUS_BUDGET_EXHAUSTED)
        live = ~(diverged | converged)
        if out_of_time or not live.any():
            break
        rows, values, m, v = rows[live], values[live], m[live], v[live]
        losses, params, grads, deltas = losses[:, live], params[:, live], grads[:, live], deltas[:, live]

    for k in range(len(rows)):
        if int(rows[k]) not in runs:
            finish(k, max_epochs, STATUS_MAX_EPOCHS)
    return [runs[r] for r in range(nrows)]
