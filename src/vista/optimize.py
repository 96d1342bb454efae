"""Stochastic optimization of ansatz parameters against the sampled loss.

The loop is plain ADAM with an exponentially decaying learning rate and a
per-epoch shot schedule.  Gradients default to central differences with a
step of pi/(8n) for phase-type parameters (an eighth of the loss period) and
0.05 for the disentangling angle; the parameter-shift rule is available for
parameters whose loss is a single harmonic of known frequency.

Every loss evaluation receives a distinct stream label, so each gradient
shift and each recorded loss draws fresh shots while remaining a pure
function of (config, master seed).
"""

import time
from collections import deque
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class ParamVector:
    names: tuple
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if len(self.names) != self.values.shape[0]:
            raise DomainError("names and values length differ")

    def clamped(self):
        v = self.values.copy()
        for i, name in enumerate(self.names):
            if name == "phi":
                v[i] = min(max(v[i], 0.0), PHI_CLAMP)
        return ParamVector(self.names, v)


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
    def fresh(cls, nparams):
        return cls(np.zeros(nparams), np.zeros(nparams), 0)


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


def estimate_gradient(values, lossfn, grad_cfg, epoch=0):
    """Gradient of the sampled loss at ``values``.

    ``lossfn(values, label)`` must evaluate the loss with shots drawn from the
    stream named by ``label``; each shifted evaluation gets its own label so
    no draws are shared (unless ``crn``).  Central differences use
    (L+ - L-)/(2h).  The parameter-shift rule evaluates at +-pi/(2 w) and
    scales by w/2, which is exact when the loss is A + B cos(w p + c) in
    parameter p; parameters with frequency 0 (no single-harmonic form, e.g.
    the decay-matching angle) fall back to their central-difference step.
    """
    values = np.asarray(values, dtype=float)
    grad = np.zeros_like(values)
    for i in range(values.shape[0]):
        use_shift_rule = grad_cfg.method == GRAD_PARAM_SHIFT
        if use_shift_rule and grad_cfg.frequencies is None:
            raise DomainError("parameter_shift needs per-parameter loss frequencies")
        if use_shift_rule and grad_cfg.frequencies[i] > 0:
            w = grad_cfg.frequencies[i]
            shift, scale = np.pi / (2 * w), w / 2
        else:
            shift, scale = grad_cfg.h[i], 1.0 / (2 * grad_cfg.h[i])
        up = values.copy()
        up[i] += shift
        down = values.copy()
        down[i] -= shift
        lp = lossfn(up, (STREAM_GRAD, epoch, i, 0))
        lm = lossfn(down, (STREAM_GRAD, epoch, i, 0 if grad_cfg.crn else 1))
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise NumericsError(f"non-finite loss in gradient evaluation at parameter {i}")
        grad[i] = (lp - lm) * scale
    return grad


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


def run_optimization(params0, lossfn, *, optimizer, schedule, gradient):
    """Drive ADAM until convergence, divergence, or the epoch/time budget.

    ``lossfn(values, nu, label)`` evaluates the (possibly sampled) loss; nu is
    None in exact mode.  The stop rules come from ``optimizer``: convergence
    requires the mean absolute parameter change, averaged over the trailing
    ``window`` epochs, to drop below ``tol_conv`` (0 disables the check).
    Parameters beyond the phase guard mark the run diverged rather than
    raising.  Running past ``budget_s`` seconds stops the run after the
    current epoch as ``budget_exhausted``.
    """
    max_epochs, tol_conv, window = optimizer.max_epochs, optimizer.tol_conv, optimizer.window
    p = params0.clamped()
    nparams = p.values.shape[0]
    state = OptimizerState.fresh(nparams)
    deltas = deque(maxlen=window)
    rows = []
    status = STATUS_MAX_EPOCHS
    t0 = time.monotonic()

    for epoch in range(max_epochs):
        nu = schedule.shots_at(epoch, max_epochs)

        def eval_loss(values, label, _nu=nu):
            return lossfn(values, _nu, label)

        loss_here = eval_loss(p.values, (STREAM_LOSS, epoch))
        if not np.isfinite(loss_here):
            raise NumericsError(f"non-finite loss at epoch {epoch}")
        grad = estimate_gradient(p.values, eval_loss, gradient, epoch=epoch)
        state, new_values = adam_step(optimizer, state, p.values, grad)
        new_p = ParamVector(p.names, new_values).clamped()

        rows.append(
            (
                epoch,
                loss_here,
                new_p.values.copy(),
                float(np.linalg.norm(grad)),
                0 if nu is None else nu,
                optimizer.lr_at(epoch),
            )
        )
        # a plain sum over a handful of floats; np.mean costs more than the epoch's ADAM step
        deltas.append(float(np.abs(new_p.values - p.values).sum()) / nparams)
        p = new_p

        theta_like = [v for name, v in zip(p.names, p.values) if name != "phi"]
        if any(not np.isfinite(v) or abs(v) > THETA_GUARD for v in theta_like):
            status = STATUS_DIVERGED
            break
        if tol_conv > 0 and len(deltas) == window and sum(deltas) / window < tol_conv:
            status = STATUS_CONVERGED
            break
        if time.monotonic() - t0 > optimizer.budget_s:
            status = STATUS_BUDGET_EXHAUSTED
            break

    return OptRun(
        names=p.names,
        epochs=np.array([r[0] for r in rows], dtype=int),
        losses=np.array([r[1] for r in rows]),
        params=np.array([r[2] for r in rows]),
        grad_norms=np.array([r[3] for r in rows]),
        shots=np.array([r[4] for r in rows], dtype=int),
        lrs=np.array([r[5] for r in rows]),
        status=status,
    )
