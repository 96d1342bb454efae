"""Stochastic optimization of ansatz parameters against the sampled loss, for R replicas at once.

The loop is plain ADAM with an exponentially decaying learning rate and a
per-epoch shot schedule.  The optimizer steps columns, not named parameters:
each run hands it every column's gradient step, a shift and a scale, and its
bounds, which ``vista.protocols`` computes from the run's config.

``run_optimization`` drives R replicas of one run in lockstep: one row per
replica, one column per parameter.  The rows share the loss closure, the
settings and the epoch clock; each keeps its own parameters, ADAM moments,
stream draws and stop status.  A row that converges or diverges leaves the
live set and the others go on.  A single run is the case R = 1.  Each row
comes back as an ``OptRun``: its status and its trace, under the keys that
a run persists.

The epoch runs on Python floats.  The live rows' parameters, ADAM moments
and gradients are columns, one list per parameter with one float per row,
and every row takes the same float operations in the same order, so a row's
trajectory does not depend, to the last bit, on which rows share its batch.
Each operation is the one numpy applies to arrays (``g * g``, not ``g**2``,
which calls ``pow``; ``math.sqrt``, correctly rounded like ``np.sqrt``;
sums from left to right), so the bits are those of an array loop.

An epoch is one loss call: ``estimate_gradient`` stacks the live rows and
their gradient shifts into one block, also columns of Python floats, and
hands it to the loss closure with the epoch and the rows' indices.  The
closure owns its randomness: which shots each block row draws is its rule,
and this module names no stream.  ``adam_step`` then takes each
parameter's live rows through one loop: gradient, ADAM update, clamp, delta
and guard.  numpy enters an epoch only inside a closure that uses it.

A column with bounds (lo, hi) is held in them by ``clip`` at the start, in
the block's shifts and after each step, so a loss closure never sees it
outside.  The settings an epoch reads (``OptimizerConfig``, ``ShotSchedule``)
are defined in ``vista.config``, which this module does not import.
"""

import math
import time
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError

THETA_GUARD = 2 * np.pi  # leaving this range means the run walked off every basin

STATUS_CONVERGED = "converged"
STATUS_MAX_EPOCHS = "max_epochs"
STATUS_DIVERGED = "diverged"
STATUS_BUDGET_EXHAUSTED = "budget_exhausted"


def clip(x, lo, hi):
    """``x`` clamped to [lo, hi], as ``np.clip`` gives it: -0.0 and nan fail both comparisons and stay as they are."""
    return lo if x < lo else hi if x > hi else x


class Adam:
    """ADAM's state over the L rows of a batch, and the constants of its run, read once per run.

    ``steps`` is (shifts, scales): column i is evaluated at x + shifts[i] and
    x - shifts[i], and the difference of its two losses is scaled by
    scales[i].  ``bounds`` holds each column's (lo, hi), or None.  ``m`` and
    ``v`` are the moments, columns like the values: one list per column, one
    float per row, zeros before the first epoch.  ``adam_step`` moves the
    state one epoch and leaves its report: ``values``, the rows after the
    step; ``deltas``, each row's mean absolute change; ``diverged``, whether a
    value left the phase guard; and ``lr``, the epoch's learning rate.
    """

    def __init__(self, optimizer, steps, bounds, nrows):
        b1, b2 = optimizer.beta1, optimizer.beta2
        self.constants = (b1, 1 - b1, b2, 1 - b2, optimizer.eps)
        self.lr_at = optimizer.lr_at
        self.shifts, self.scales = steps
        self.bounds = bounds
        self.m = [[0.0] * nrows for _ in bounds]
        self.v = [[0.0] * nrows for _ in bounds]
        self.values = self.deltas = self.lr = None
        self.diverged = False


def adam_step(adam, epoch, values, out):
    """ADAM's update at ``epoch`` (counted from 0) of the L rows ``values``; returns the gradient, as columns.

    ``out`` is the loss list of the block that ``estimate_gradient`` stacks at
    ``values``: the rows' losses, then each parameter's up and down shifts.
    Each parameter's rows take one pass: the difference of the row's two
    shifted losses times the parameter's scale, a NumericsError unless it is
    finite, the update of m, v and the value, the column's bounds, the change's
    absolute value added to the row's delta, and the phase guard, which a NaN
    fails.  With bias correction the per-step motion is bounded by the
    current learning rate: |delta| <= lr * |m-hat| / (sqrt(v-hat) + eps) <= lr.
    The new columns replace ``adam``'s; a raise leaves them as they were.
    """
    b1, c1, b2, c2, eps = adam.constants
    k1, k2 = 1 - b1 ** (epoch + 1), 1 - b2 ** (epoch + 1)
    lr = adam.lr_at(epoch)
    sqrt, isfinite, low, high = math.sqrt, math.isfinite, -THETA_GUARD, THETA_GUARD
    nparams, nrows = len(values), len(values[0])
    grad, new_values, new_m, new_v = [], [], [], []
    deltas, diverged = [0.0] * nrows, False
    for i, (xj, mj, vj, scale, bound) in enumerate(zip(values, adam.m, adam.v, adam.scales, adam.bounds)):
        up, down = (1 + 2 * i) * nrows, (2 + 2 * i) * nrows  # the offsets of the parameter's shifted losses in out
        # each row's delta sums its columns' changes from left to right, and the last column divides the sum by p
        # (0.0 + |x| is |x|, and dividing by 1.0 changes no float)
        div = float(nparams) if i == nparams - 1 else 1.0
        lo, hi = bound or (None, None)
        gs, xs, ms, vs = [0.0] * nrows, [0.0] * nrows, [0.0] * nrows, [0.0] * nrows
        for k in range(nrows):
            gs[k] = g = (out[up + k] - out[down + k]) * scale
            if not isfinite(g):  # a difference of finite losses is finite, so this covers every shifted loss
                raise NumericsError(f"non-finite loss in gradient evaluation at parameter {i}")
            x = xj[k]
            ms[k] = a = b1 * mj[k] + c1 * g
            vs[k] = b = b2 * vj[k] + c2 * (g * g)
            y = x - lr * (a / k1) / (sqrt(b / k2) + eps)
            xs[k] = y = clip(y, lo, hi) if bound else y
            if not low <= y <= high:
                diverged = True
            deltas[k] = (deltas[k] + abs(y - x)) / div
        grad.append(gs)
        new_values.append(xs)
        new_m.append(ms)
        new_v.append(vs)
    adam.values, adam.m, adam.v, adam.deltas, adam.diverged, adam.lr = new_values, new_m, new_v, deltas, diverged, lr
    return grad


def estimate_gradient(values, lossfn, adam, epoch, nu, rows):
    """One epoch's evaluation: (losses, gradient) of the sampled loss at L rows.

    ``values`` holds the rows as columns, one list of L floats per parameter;
    the losses come back as a list of L floats and the gradient as columns.
    The rows and their 2p shifted copies are stacked into p columns of (1+2p) L
    floats: the rows, then each column's up and down shift by ``adam.shifts``,
    clipped to the column's bounds in ``adam`` if it has them.  One call
    ``lossfn(columns, nu, epoch, rows)`` returns a list of a loss per block
    row; ``rows``, a list of L ints, names the rows to the closure.

    The gradient is ``adam_step``'s, which takes the epoch's ADAM step of the
    state ``adam`` in the same pass.
    """
    nparams, nrows = len(values), len(values[0])
    columns = []
    for j, (col, h, bound) in enumerate(zip(values, adam.shifts, adam.bounds)):
        # column j: the rows, then each parameter i's up and down shift, x + h and x - h where i == j, a copy elsewhere
        block = col * (1 + 2 * nparams)
        up, down = (1 + 2 * j) * nrows, (2 + 2 * j) * nrows
        for k, x in enumerate(col):
            block[up + k] = x + h
            block[down + k] = x - h
        if bound:
            lo, hi = bound
            block[up : down + nrows] = [clip(x, lo, hi) for x in block[up : down + nrows]]
        columns.append(block)
    out = lossfn(columns, nu, epoch, rows)
    losses = out[:nrows]
    if not all(map(math.isfinite, losses)):
        raise NumericsError(f"non-finite loss at epoch {epoch}")
    return losses, adam_step(adam, epoch, values, out)


def _window_sum(recent, k):
    """Row k's deltas over the window, added in order, as a running sum over the window adds them."""
    total = recent[0][k]
    for deltas in recent[1:]:
        total += deltas[k]
    return total


@dataclass
class OptRun:
    """One row's stop status and epoch-indexed trace, under the keys that a run persists.

    The trace holds ``epoch``, ``loss`` (the sampled loss at the pre-update
    vector), ``params`` (the post-update vector of each epoch, one column per
    parameter), ``grad_norm``, ``shots`` and ``lr``.  The final estimate is
    the last row of ``params``.
    """

    status: str
    trace: dict


def run_optimization(params0, lossfn, *, optimizer, schedule, steps, bounds):
    """Drive ADAM on R replicas until each converges or diverges, or the epoch/time budget ends.

    ``params0`` is an (R, p) array of starting rows.  ``steps`` is (shifts,
    scales) and ``bounds`` holds each column's (lo, hi) or None, as ``Adam``
    takes them; a bounded column's starts are clipped to its bounds.  Each
    epoch makes one call ``lossfn(columns, nu, epoch, rows)`` through
    ``estimate_gradient``: it returns a list of the (possibly sampled) loss
    of each row of the block in ``columns``, 1+2p stacked copies of the L
    live rows, whose indices into ``params0`` are the ints ``rows``; nu is
    the epoch's shot count (None in exact mode) and ``epoch`` counts from 0.

    The stop rules come from ``optimizer`` and are applied to each row:
    convergence requires the mean absolute parameter change, averaged over
    the trailing ``window`` epochs, to drop below ``tol_conv`` (0 disables
    the check); parameters beyond the phase guard mark the row diverged
    rather than raising.  ``budget_s`` limits the batch: once the batch has
    run past it, every live row stops after the current epoch as
    ``budget_exhausted``.  Returns one ``OptRun`` per row.
    """
    start = np.array(params0, dtype=float)
    if start.ndim != 2 or start.shape[1] != len(bounds):
        raise DomainError(f"params0 must be an (R, {len(bounds)}) array, one column per bound, got shape {start.shape}")
    max_epochs, tol_conv, window = optimizer.max_epochs, optimizer.tol_conv, optimizer.window
    nrows, nparams = start.shape
    adam = Adam(optimizer, steps, bounds, nrows)
    values = [[clip(x, *bound) for x in col] if bound else col for col, bound in zip(start.T.tolist(), bounds)]
    rows = list(range(nrows))
    # The trace of the live rows: each epoch appends its losses, then its parameter and gradient
    # columns, to ``record``, so it grows with the epochs run, not with max_epochs.  When rows stop,
    # the record moves into ``kept`` as (epochs, 1 + 2p, rows) and the stopped rows' columns leave it.
    record, kept = array("d"), np.empty((0, 1 + 2 * nparams, nrows))
    recent = []  # the live rows' deltas of the last ``window`` epochs
    shots, lrs = [], []
    runs = {}
    t0 = time.monotonic()

    def flush():
        nonlocal kept, record
        kept = np.concatenate([kept, np.frombuffer(record).reshape(-1, 1 + 2 * nparams, len(rows))])
        record = array("d")

    def finish(k, status):
        trace = kept[:, :, k]
        epochs = len(trace)
        runs[rows[k]] = OptRun(status, {
            "epoch": np.arange(epochs),
            "loss": trace[:, 0].copy(),
            "params": trace[:, 1 : 1 + nparams].copy(),
            # each epoch's gradient norm: the squares added from left to right by elementwise ufuncs, which
            # round correctly whatever the SIMD level or the BLAS kernel
            "grad_norm": np.sqrt(sum(g * g for g in trace[:, 1 + nparams :].T)),
            "shots": np.array(shots[:epochs], dtype=int),
            "lr": np.array(lrs[:epochs]),
        })

    exact = schedule.exact
    for epoch in range(max_epochs):
        nu = None if exact else schedule.shots_at(epoch, max_epochs)
        losses, grad = estimate_gradient(values, lossfn, adam, epoch, nu, rows)
        values, deltas = adam.values, adam.deltas

        record.fromlist(losses)
        for column in values:
            record.fromlist(column)
        for column in grad:
            record.fromlist(column)
        recent.append(deltas)
        if len(recent) > window:
            del recent[0]
        shots.append(0 if nu is None else nu)
        lrs.append(adam.lr)

        # a window's sum is at least its last delta, so no row converges while every last delta is too big
        converged = tol_conv > 0 and epoch + 1 >= window and min(deltas) / window < tol_conv
        out_of_time = time.monotonic() - t0 > optimizer.budget_s
        if not (adam.diverged or converged or out_of_time):
            continue
        stops = {}  # the status of each row that stops at this epoch
        if adam.diverged:
            for k, row in enumerate(zip(*values)):
                if not all(abs(x) <= THETA_GUARD for x in row):
                    stops[k] = STATUS_DIVERGED
        if tol_conv > 0 and epoch + 1 >= window:
            for k, last in enumerate(deltas):
                # only a row whose own last delta is small enough can converge
                if k not in stops and last / window < tol_conv and _window_sum(recent, k) / window < tol_conv:
                    stops[k] = STATUS_CONVERGED
        if out_of_time:
            stops = {k: stops.get(k, STATUS_BUDGET_EXHAUSTED) for k in range(len(rows))}
        if not stops:
            continue
        flush()
        for k, status in stops.items():
            finish(k, status)
        if len(stops) == len(rows):
            break
        live = [k for k in range(len(rows)) if k not in stops]
        rows, kept = [rows[k] for k in live], kept[:, :, live]
        values, adam.m, adam.v = ([[column[k] for k in live] for column in cols] for cols in (values, adam.m, adam.v))
        recent = [[d[k] for k in live] for d in recent]
    else:
        flush()
        for k in range(len(rows)):
            finish(k, STATUS_MAX_EPOCHS)
    return [runs[r] for r in range(nrows)]
