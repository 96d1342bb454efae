"""Fisher-information bounds, scaling fits, and decay-estimate calibration.

The sensitivity quantity is the overlap curvature

    Q_HS = - d^2/dtheta'^2 Tr(rho_theta' sigma),

which for a single family equals Tr[(drho/dtheta)^2] and bounds the quantum
Fisher information from below via Q >= 2 Q_HS (saturated by pure states).
Its closed forms for the GHZ families, plain and quasi-normalized, give the
shot-noise bounds delta-theta >= 1/sqrt(2 nu Q_HS) of the bound curves, and
``qfi_ratio_ampdamp`` is the information kept by quasi-normalization under
amplitude damping.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import CHANNEL_AMPDAMP, closed_form_overlap, qubit_channel
from .errors import CalibrationError, DomainError


# --- closed-form curvatures for the GHZ families -----------------------------


def q_hs_dephasing(n, gamma, gamma_ref=None):
    """Curvature of the dephased-pair overlap; 2 n^2 exp(-2n(gamma+gamma'))."""
    g2 = gamma if gamma_ref is None else gamma_ref
    return 2 * n**2 * np.exp(-2 * n * (gamma + g2))


def q_hs_ampdamp_pure(n, gamma):
    """Curvature of the damped-probe vs pure-ansatz overlap; 2 n^2 exp(-n gamma / 2)."""
    return 2 * n**2 * np.exp(-n * gamma / 2)


def q_hs_qn_dephasing(n, gamma):
    """Quasi-normalized dephasing curvature at matched decay."""
    x = np.exp(-4 * n * gamma)
    return 4 * n**2 * x / np.sqrt(2 * (1 + x))


def _ampdamp_purity(n, gamma):
    # closed-form purity, written for gamma arrays as well as scalars
    qubit = qubit_channel(CHANNEL_AMPDAMP, gamma)
    return closed_form_overlap(n, qubit, qubit, 0.0)


def q_hs_qn_ampdamp(n, gamma):
    """Quasi-normalized amplitude-damping curvature at matched decay."""
    return 2 * n**2 * np.exp(-n * gamma) / np.sqrt(_ampdamp_purity(n, gamma))


def qfi_ratio_ampdamp(n, gamma):
    """Quasi-normalized over pure-ansatz curvature, exp(-n gamma/2)/sqrt(purity).

    Small-gamma expansion: 1 - n(n+1) gamma^2 / 8 + O(gamma^3).
    """
    return np.exp(-n * gamma / 2) / np.sqrt(_ampdamp_purity(n, gamma))


def qfi_ratio_ampdamp_expansion(n, gamma):
    return 1 - n * (n + 1) * gamma**2 / 8


# --- shot-noise bound curves -------------------------------------------------

BOUND_KINDS = (
    "pure_dephasing",
    "unnorm_dephasing",
    "qn_dephasing",
    "pure_ampdamp",
    "qn_ampdamp",
)


@dataclass(frozen=True)
class BoundCurve:
    kind: str
    ns: np.ndarray
    values: np.ndarray
    gamma: float
    nu: int


def _bound_curvature(kind, n, gamma):
    if kind == "pure_dephasing":
        return q_hs_dephasing(n, gamma, 0.0)
    if kind == "unnorm_dephasing":
        return q_hs_dephasing(n, gamma)
    if kind == "qn_dephasing":
        return q_hs_qn_dephasing(n, gamma)
    if kind == "pure_ampdamp":
        return q_hs_ampdamp_pure(n, gamma)
    if kind == "qn_ampdamp":
        return q_hs_qn_ampdamp(n, gamma)
    raise DomainError(f"unknown bound kind {kind!r}")


def crb_curve(kind, ns, gamma, nu):
    """delta-theta lower bound 1/sqrt(2 nu Q_HS) over a qubit-number grid.

    All kinds reduce to the Heisenberg line 1/(2 n sqrt(nu)) at gamma = 0.
    """
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    if nu < 1:
        raise DomainError(f"nu must be >= 1, got {nu}")
    ns = np.asarray(ns, dtype=int)
    if ns.size == 0 or np.any(ns < 1):
        raise DomainError("n grid must be non-empty positive integers")
    vals = np.array([1.0 / np.sqrt(2 * nu * _bound_curvature(kind, int(n), gamma)) for n in ns])
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
    if np.any(ns <= 0) or np.any(errors <= 0):
        raise DomainError("scaling fit needs positive n and errors")
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
    order = np.argsort(gt)
    gt, gh = gt[order], gh[order]
    if np.any(np.diff(gh) <= 0):
        raise CalibrationError("gamma-hat sweep is not strictly increasing; cannot invert")
    return CalibrationCurve(gh, gt)
