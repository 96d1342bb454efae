"""Stochastic optimization of ansatz parameters against the sampled loss, for R replicas at once.

The loop is plain ADAM with an exponentially decaying learning rate and a
per-epoch shot schedule.  Gradients default to central differences with a
step of pi/(8n) for phase-type parameters (an eighth of the loss period) and
0.05 for the disentangling angle; the parameter-shift rule is available for
parameters whose loss is a single harmonic of known frequency.

``run_optimization`` drives R replicas of one run in lockstep over an (R, p)
parameter array: one row per replica, one column per parameter.  The rows
share the loss closure, the settings and the epoch clock; each keeps its own
parameters, ADAM moments, stream draws and stop status.  A row that converges
or diverges leaves the live set and the others go on.  A single run is the
case R = 1.  Every step acts on the rows elementwise, so a row's trajectory
does not depend, to the last bit, on which rows share its batch.

An epoch is one loss call: ``estimate_gradient`` stacks the live rows and
their 2p gradient shifts into one block and hands it to the loss closure
with one stream label per row block, so each gradient shift and each
recorded loss draws fresh shots while remaining a pure function of
(config, master seed).
"""

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericsError
from .rng import STREAM_GRAD, STREAM_LOSS

GRAD_CENTRAL = "central_difference"
GRAD_PARAM_SHIFT = "parameter_shift"
GRAD_METHODS = (GRAD_CENTRAL, GRAD_PARAM_SHIFT)

PHI_CLAMP = np.pi / 2 - 1e-6
THETA_GUARD = 2 * np.pi  # leaving this range means the run walked off every basin

STATUS_CONVERGED = "converged"
STATUS_MAX_EPOCHS = "max_epochs"
STATUS_DIVERGED = "diverged"
STATUS_BUDGET_EXHAUSTED = "budget_exhausted"


def clamp_phi(values, names):
    """The (R, p) rows ``values``, with the column named phi clamped to [0, PHI_CLAMP] in place."""
    if "phi" in names:
        j = names.index("phi")
        values[:, j] = values[:, j].clip(0.0, PHI_CLAMP)
    return values


def check_gradient_method(method):
    if method not in GRAD_METHODS:
        raise DomainError(f"method must be one of {GRAD_METHODS}, got {method!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    """ADAM settings and the stop rules of ``run_optimization``."""

    lr0: float = 0.05
    decay: float = 0.995
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_epochs: int = 400
    tol_conv: float = 1e-5
    window: int = 20
    budget_s: float = 600.0

    def __post_init__(self):
        if self.max_epochs < 1:
            raise DomainError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.window < 1:
            raise DomainError(f"window must be >= 1, got {self.window}")

    def lr_at(self, epoch):
        return self.lr0 * self.decay**epoch


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, shape):
        return cls(np.zeros(shape), np.zeros(shape), 0)


def adam_step(cfg, state, values, grad):
    """One ADAM update; returns (new_state, new_values).

    With bias correction the per-step motion is bounded by the current
    learning rate: |delta| <= lr * |m-hat| / (sqrt(v-hat) + eps) <= lr.
    """
    t = state.t + 1
    m = cfg.beta1 * state.m + (1 - cfg.beta1) * grad
    v = cfg.beta2 * state.v + (1 - cfg.beta2) * grad**2
    m_hat = m / (1 - cfg.beta1**t)
    v_hat = v / (1 - cfg.beta2**t)
    lr = cfg.lr_at(state.t)
    new_values = values - lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return OptimizerState(m, v, t), new_values


@dataclass(frozen=True)
class ShotSchedule:
    """Per-epoch shot count ramp; profile is constant, linear, or geometric."""

    nu_start: int = 10_000
    nu_end: int = 40_000
    profile: str = "geometric"
    exact: bool = False

    def __post_init__(self):
        if self.profile not in ("constant", "linear", "geometric"):
            raise DomainError(f"unknown shot profile {self.profile!r}")
        if not self.exact and (self.nu_start < 1 or self.nu_end < 1):
            raise DomainError("shot counts must be >= 1")
        if not self.exact and self.nu_end < self.nu_start:
            raise DomainError("shot schedule must be non-decreasing (nu_start <= nu_end)")

    def shots_at(self, epoch, max_epochs):
        if self.exact:
            return None
        if self.profile == "constant" or max_epochs <= 1:
            return int(self.nu_start)
        frac = epoch / (max_epochs - 1)
        if self.profile == "linear":
            return int(round(self.nu_start + (self.nu_end - self.nu_start) * frac))
        return int(round(self.nu_start * (self.nu_end / self.nu_start) ** frac))


@dataclass(frozen=True)
class GradientConfig:
    method: str = GRAD_CENTRAL
    h: np.ndarray = field(default_factory=lambda: np.array([0.05]))
    # loss harmonic per parameter (e.g. 2n for the phase); required for parameter_shift
    frequencies: np.ndarray | None = None
    # common random numbers: both shifted evaluations reuse one stream label
    crn: bool = False

    def __post_init__(self):
        check_gradient_method(self.method)
        object.__setattr__(self, "h", np.asarray(self.h, dtype=float))

    @cached_property
    def steps(self):
        """(ups, downs, scales) of the gradient of p parameters.

        values + ups[i] and values - downs[i] shift parameter i of every row by
        its step and leave the others as they are: adding -0.0 and taking
        away +0.0 change no float, the sign of a zero included.  The
        difference of the two losses is scaled by scales[i].
        """
        shifts, scales = [], []
        for i, h in enumerate(self.h):
            use_shift_rule = self.method == GRAD_PARAM_SHIFT
            if use_shift_rule and self.frequencies is None:
                raise DomainError("parameter_shift needs per-parameter loss frequencies")
            if use_shift_rule and self.frequencies[i] > 0:
                w = self.frequencies[i]
                shifts.append(np.pi / (2 * w))
                scales.append(w / 2)
            else:
                shifts.append(h)
                scales.append(1.0 / (2 * h))
        own = np.eye(len(shifts), dtype=bool)[:, None, :]
        return np.where(own, shifts, -0.0), np.where(own, shifts, 0.0), np.array(scales)


def estimate_gradient(values, lossfn, grad_cfg, epoch=0, nu=None, rows=None):
    """One epoch's evaluation: (losses, gradient) of the sampled loss at the rows of the (L, p) array ``values``.

    The rows and their 2p shifted copies are stacked into a ((1+2p) L, p)
    block: the rows, then each parameter's up and down shift.  One call
    ``lossfn(block, nu, labels, rows)`` returns a loss per block row, and
    block k draws from the stream ``labels[k]``: (STREAM_LOSS, epoch), then
    (STREAM_GRAD, epoch, i, side), where ``crn`` gives both sides side 0.
    ``rows`` (default 0..L-1) names the rows to the closure.

    Central differences use (L+ - L-)/(2h).  The parameter-shift rule
    evaluates at +-pi/(2 w) and scales by w/2, which is exact when the loss
    is A + B cos(w p + c) in parameter p; parameters with frequency 0 (no
    single-harmonic form, e.g. the decay-matching angle) fall back to their
    central-difference step.
    """
    ups, downs, scales = grad_cfg.steps
    nrows, nparams = values.shape
    block = np.empty((1 + 2 * nparams, nrows, nparams))
    block[0] = values
    np.add(values, ups, out=block[1::2])  # one parameter shifted in each block
    np.subtract(values, downs, out=block[2::2])
    side = 0 if grad_cfg.crn else 1
    labels = [(STREAM_LOSS, epoch)]
    for i in range(nparams):
        labels += [(STREAM_GRAD, epoch, i, 0), (STREAM_GRAD, epoch, i, side)]
    out = lossfn(block.reshape(-1, nparams), nu, labels, np.arange(nrows) if rows is None else rows)
    losses = out[:nrows]
    if not _finite(losses):
        raise NumericsError(f"non-finite loss at epoch {epoch}")
    shifted = out[nrows:].reshape(nparams, 2, nrows)
    grad = np.empty((nrows, nparams))
    np.subtract(shifted[:, 0].T, shifted[:, 1].T, out=grad)
    grad *= scales
    # a difference of finite losses is finite, so one check covers every shifted loss
    if not _finite(grad):
        i = int(np.argmin(np.isfinite(grad).all(axis=0)))
        raise NumericsError(f"non-finite loss in gradient evaluation at parameter {i}")
    return losses, grad


_TRACE_EPOCHS = 64  # epochs the trace buffers hold at first


def _grown(buf, size):
    """The trace buffer ``buf`` copied into a new one that holds ``size`` epochs."""
    out = np.empty((size,) + buf.shape[1:])
    out[: len(buf)] = buf
    return out


def _finite(x):
    """Whether every entry of the array x is finite (in Python: cheaper than numpy for a few rows)."""
    return all(map(math.isfinite, x.ravel().tolist()))


@dataclass
class OptRun:
    """Epoch-indexed trajectory of one optimization.

    ``params`` holds the post-update parameter vector of each epoch; ``losses``
    the sampled loss at the pre-update vector.  The final estimate is the last
    row of ``params``.
    """

    names: tuple
    epochs: np.ndarray
    losses: np.ndarray
    params: np.ndarray
    grad_norms: np.ndarray
    shots: np.ndarray
    lrs: np.ndarray
    status: str


def run_optimization(params0, lossfn, *, names, optimizer, schedule, gradient):
    """Drive ADAM on R replicas until each converges or diverges, or the epoch/time budget ends.

    ``params0`` is an (R, p) array of starting rows whose columns are named
    by ``names``.  Each epoch makes one call ``lossfn(block, nu, labels,
    rows)`` through ``estimate_gradient``: it returns the (possibly sampled)
    loss of each row of ``block``, 1+2p stacked copies of the L live rows,
    whose indices into ``params0`` are ``rows``; nu is the epoch's shot
    count (None in exact mode) and ``labels[k]`` names the stream of block k.

    The stop rules come from ``optimizer`` and are applied to each row:
    convergence requires the mean absolute parameter change, averaged over
    the trailing ``window`` epochs, to drop below ``tol_conv`` (0 disables
    the check); parameters beyond the phase guard mark the row diverged
    rather than raising.  ``budget_s`` limits the batch: once the batch has
    run past it, every live row stops after the current epoch as
    ``budget_exhausted``.  Returns one ``OptRun`` per row.
    """
    values = np.array(params0, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(names):
        raise DomainError(f"params0 must have one column per name in {names}, got shape {values.shape}")
    values = clamp_phi(values, names)
    max_epochs, tol_conv, window = optimizer.max_epochs, optimizer.tol_conv, optimizer.window
    nrows, nparams = values.shape
    state = OptimizerState.fresh(values.shape)
    rows = np.arange(nrows)
    # the trace of each live row, one column per row; a stopping row takes its column with it.
    # The buffers double when full, so they hold at most twice the epochs run, not max_epochs.
    size = min(max_epochs, _TRACE_EPOCHS)
    losses = np.empty((size, nrows))
    params = np.empty((size, nrows, nparams))
    grads = np.empty((size, nrows, nparams))
    deltas = np.empty((size, nrows))
    shots, lrs = [], []
    runs = {}
    t0 = time.monotonic()

    def finish(k, epochs, status):
        grad = grads[:epochs, k]
        runs[int(rows[k])] = OptRun(
            names=tuple(names),
            epochs=np.arange(epochs),
            losses=losses[:epochs, k].copy(),
            params=params[:epochs, k].copy(),
            # np.linalg.norm of each row, as it computes it: sqrt(g.dot(g)), a BLAS dot per row, whose
            # bits a sum of squares along an axis need not give
            grad_norms=np.sqrt([g.dot(g) for g in grad]),
            shots=np.array(shots[:epochs], dtype=int),
            lrs=np.array(lrs[:epochs]),
            status=status,
        )

    for epoch in range(max_epochs):
        if epoch == len(losses):
            size = min(2 * epoch, max_epochs)
            losses, params, grads, deltas = (_grown(b, size) for b in (losses, params, grads, deltas))
        nu = schedule.shots_at(epoch, max_epochs)
        loss_here, grad = estimate_gradient(values, lossfn, gradient, epoch, nu, rows)
        state, new_values = adam_step(optimizer, state, values, grad)
        new_values = clamp_phi(new_values, names)

        losses[epoch] = loss_here
        params[epoch] = new_values
        grads[epoch] = grad
        deltas[epoch] = np.add.reduce(np.abs(new_values - values), axis=1) / float(nparams)
        shots.append(0 if nu is None else nu)
        lrs.append(optimizer.lr_at(epoch))
        values = new_values

        # cheap checks over all rows first; phi is clamped well inside the guard, so only the
        # other columns can fail it, and nan fails it too
        diverged = not all(map(THETA_GUARD.__ge__, map(abs, values.ravel().tolist())))
        # a window's sum is at least its last delta, so no row converges while every last delta is too big
        converged = tol_conv > 0 and epoch + 1 >= window and min(deltas[epoch].tolist()) / window < tol_conv
        out_of_time = time.monotonic() - t0 > optimizer.budget_s
        if not (diverged or converged or out_of_time):
            continue
        diverged = ~(np.maximum.reduce(np.abs(values), axis=1) <= THETA_GUARD)
        converged = np.zeros(len(rows), dtype=bool)
        if tol_conv > 0 and epoch + 1 >= window:
            # accumulate adds in order, as a running sum over the window does
            converged = np.add.accumulate(deltas[epoch + 1 - window : epoch + 1], axis=0)[-1] / window < tol_conv
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
        rows, values = rows[live], values[live]
        state = OptimizerState(state.m[live], state.v[live], state.t)
        losses, params, grads, deltas = losses[:, live], params[:, live], grads[:, live], deltas[:, live]

    for k in range(len(rows)):
        if int(rows[k]) not in runs:
            finish(k, max_epochs, STATUS_MAX_EPOCHS)
    return [runs[r] for r in range(nrows)]
