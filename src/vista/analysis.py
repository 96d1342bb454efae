"""Fisher-information bounds, scaling fits, and decay-estimate calibration.

Two sensitivity quantities appear throughout:

* the quantum Fisher information from the spectral decomposition,
      Q = 2 sum_{i != j} |<i| drho |j>|^2 / (p_i + p_j),
* the overlap curvature  Q_HS = - d^2/dtheta'^2 Tr(rho_theta' sigma),
  which for a single family equals Tr[(drho/dtheta)^2] and bounds Q from
  below via Q >= 2 Q_HS (saturated by pure states).

Closed-form curvatures for the GHZ families and the derived shot-noise bounds
delta-theta >= 1/sqrt(2 nu Q_HS) are provided for the bound curves.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import CHANNEL_AMPDAMP, closed_form_overlap, qubit_channel
from .errors import CalibrationError, DimensionError, DomainError, NumericsError

EIG_CUTOFF = 1e-12


def qfi_uhlmann(rho, drho, cutoff=EIG_CUTOFF):
    """Spectral-decomposition QFI for the family with tangent drho at rho.

    Eigenvalue pairs with p_i + p_j below the cutoff are skipped; for unitary
    encodings the matching numerators vanish identically, so the cutoff only
    suppresses noise from the null space.
    """
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    if rho.shape != drho.shape:
        raise DimensionError(f"shape mismatch {rho.shape} vs {drho.shape}")
    if abs(np.trace(drho)) > 1e-8:
        raise NumericsError(f"drho trace {np.trace(drho):.3e} not ~0; not a state derivative")
    p, vecs = np.linalg.eigh(rho)
    a = vecs.conj().T @ drho @ vecs  # <i| drho |j>
    total = 0.0
    dim = p.shape[0]
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            denom = p[i] + p[j]
            if denom < cutoff:
                continue
            total += abs(a[i, j]) ** 2 / denom
    return 2 * total


def q_hs(family, theta, h=1e-4, reference=None, normalize=False, rtol=1e-4):
    """Overlap curvature -d^2/dtheta'^2 [Tr(rho_a(theta') sigma) / norm] at theta' = theta.

    ``family`` maps theta -> density matrix.  ``reference`` (default: the same
    family) fixes sigma = reference(theta); with ``normalize`` the overlap is
    divided by sqrt(Tr sigma^2), giving the quasi-normalized curvature.  The
    second central difference is cross-checked against the product of first
    differences Tr[(Delta rho_a / 2h)(Delta rho_b / 2h)] / norm, the same
    limit through an independent stencil; disagreement beyond ``rtol``
    relative raises.
    """
    if h <= 0:
        raise DomainError(f"need h > 0, got {h}")
    ref = family if reference is None else reference
    sigma = np.asarray(ref(theta), dtype=complex)
    norm = np.sqrt(np.einsum("ij,ji->", sigma, sigma).real) if normalize else 1.0

    r_plus = np.asarray(family(theta + h), dtype=complex)
    r_mid = np.asarray(family(theta), dtype=complex)
    r_minus = np.asarray(family(theta - h), dtype=complex)

    def overlap(m):
        return np.einsum("ij,ji->", m, sigma).real / norm

    second_diff = -(overlap(r_plus) - 2 * overlap(r_mid) + overlap(r_minus)) / h**2

    db = (np.asarray(ref(theta + h), dtype=complex) - np.asarray(ref(theta - h), dtype=complex)) / (2 * h)
    da = (r_plus - r_minus) / (2 * h)
    cross = np.einsum("ij,ji->", da, db).real / norm

    scale = max(abs(second_diff), abs(cross), 1e-30)
    if abs(second_diff - cross) > rtol * scale:
        raise NumericsError(
            f"curvature stencils disagree: {second_diff:.6e} vs {cross:.6e} (rtol {rtol})"
        )
    return float(second_diff)


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
