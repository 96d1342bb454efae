"""Fisher-information bounds, scaling fits, and decay-estimate calibration.

The sensitivity quantity is the overlap curvature

    Q_HS = - d^2/dtheta'^2 Tr(rho_theta' sigma),

which for a single family equals Tr[(drho/dtheta)^2] and bounds the quantum
Fisher information from below via Q >= 2 Q_HS (saturated by pure states).
``curvature`` gives it for any probe and ansatz, plain and quasi-normalized,
from their qubits' (p, kappa); the bound curves are the shot-noise bounds
delta-theta >= 1/sqrt(2 nu Q_HS) of five probe/ansatz pairs, and
``qfi_ratio_ampdamp`` is the information kept by quasi-normalization under
amplitude damping.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import integer
from .dynamics import CHANNEL_AMPDAMP, CHANNEL_DEPHASING, CHANNEL_NONE, check_channel, closed_form_overlap, qubit_channel
from .errors import CalibrationError, DomainError


# --- closed-form curvature of a probe/ansatz pair ------------------------------


def curvature(n, probe, ansatz, normalized=False):
    """Q_HS of the overlap of two n-qubit GHZ states whose qubits are probe = (p, kappa) and ansatz.

    Only the corner coherence of ``closed_form_overlap`` depends on the phase,
    so Q_HS = 2 n^2 e^{-n (kappa_probe + kappa_ansatz)}; quasi-normalization
    divides it by the square root of the ansatz purity.
    """
    q = 2 * n**2 * math.exp(-n * (probe[1] + ansatz[1]))
    return q / math.sqrt(closed_form_overlap(n, ansatz, ansatz, 0.0)) if normalized else q


def qfi_ratio_ampdamp(n, gamma):
    """Quasi-normalized over pure-ansatz curvature of the damped probe, exp(-n kappa)/sqrt(purity).

    gamma is a float or an array.  Small-gamma expansion: 1 - n(n+1) gamma^2 / 8 + O(gamma^3).
    """

    def ratio(g):
        qubit = qubit_channel(CHANNEL_AMPDAMP, g)
        return math.exp(-n * qubit[1]) / math.sqrt(closed_form_overlap(n, qubit, qubit, 0.0))

    return np.vectorize(ratio, otypes=[float])(gamma)[()]


# --- shot-noise bound curves -------------------------------------------------

# Each kind: the probe's channel, whether the ansatz decays as the probe does
# (else it is pure), and whether the loss is quasi-normalized.
BOUND_KINDS = {
    "pure_dephasing": (CHANNEL_DEPHASING, False, False),
    "unnorm_dephasing": (CHANNEL_DEPHASING, True, False),
    "qn_dephasing": (CHANNEL_DEPHASING, True, True),
    "pure_ampdamp": (CHANNEL_AMPDAMP, False, False),
    "qn_ampdamp": (CHANNEL_AMPDAMP, True, True),
}


@dataclass(frozen=True)
class BoundCurve:
    kind: str
    ns: np.ndarray
    values: np.ndarray
    gamma: float
    nu: int


def crb_curve(kind, ns, gamma, nu):
    """delta-theta lower bound 1/sqrt(2 nu Q_HS) over a qubit-number grid.

    All kinds reduce to the Heisenberg line 1/(2 n sqrt(nu)) at gamma = 0.
    """
    if kind not in BOUND_KINDS:
        raise DomainError(f"unknown bound kind {kind!r}")
    channel, matched, normalized = BOUND_KINDS[kind]
    check_channel(channel, gamma)
    if not 1 <= nu < math.inf:  # nan fails too
        raise DomainError(f"nu must be finite and >= 1, got {nu}")
    ns = np.array([integer(n, "n grid entry") for n in ns], dtype=int)  # no NaN, fraction or bool
    if ns.size == 0 or np.any(ns < 1):
        raise DomainError("n grid must be non-empty positive integers")
    probe = qubit_channel(channel, gamma)
    ansatz = probe if matched else qubit_channel(CHANNEL_NONE, 0.0)
    vals = np.array([1.0 / math.sqrt(2 * nu * curvature(int(n), probe, ansatz, normalized)) for n in ns])
    return BoundCurve(kind, ns, vals, float(gamma), int(nu))


# --- scaling fit and calibration --------------------------------------------


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    intercept: float
    r_squared: float


def fit_scaling(ns, errors):
    """Least-squares slope of ln(error) against ln(n)."""
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ns.shape != errors.shape or ns.size < 4:
        raise DomainError("need matching grids with at least 4 points")
    if not (np.all((0 < ns) & (ns < np.inf)) and np.all((0 < errors) & (errors < np.inf))):  # nan fails too
        raise DomainError("scaling fit needs finite positive n and errors")
    x, y = np.log(ns), np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 if ss_tot == 0 else 1.0 - np.sum(resid**2) / ss_tot
    return ScalingFit(float(slope), float(intercept), float(r2))


@dataclass(frozen=True)
class CalibrationCurve:
    """Piecewise-linear inverse of a monotone gamma-hat(gamma) sweep."""

    gamma_hat_grid: np.ndarray
    gamma_true_grid: np.ndarray

    def __call__(self, gamma_hat):
        return np.interp(gamma_hat, self.gamma_hat_grid, self.gamma_true_grid)


def gamma_calibration(gamma_true, gamma_hat):
    """Build the correction map from a sweep of (true, estimated) decay pairs.

    The estimates must be strictly increasing with the truth; otherwise the
    inverse is ill-defined and calibration is refused.
    """
    gt = np.asarray(gamma_true, dtype=float)
    gh = np.asarray(gamma_hat, dtype=float)
    if gt.shape != gh.shape or gt.size < 2:
        raise DomainError("need at least two (gamma_true, gamma_hat) pairs")
    if not (np.all(np.isfinite(gt)) and np.all(np.isfinite(gh))):
        raise DomainError("calibration needs finite gamma_true and gamma_hat")
    order = np.argsort(gt)
    gt, gh = gt[order], gh[order]
    if np.any(np.diff(gh) <= 0):
        raise CalibrationError("gamma-hat sweep is not strictly increasing; cannot invert")
    return CalibrationCurve(gh, gt)
