"""Dense reference machinery used only by the tests.

Pauli algebra on full registers, Hilbert-Schmidt traces and density-matrix
checks, the spectral quantum Fisher information with a finite-difference
overlap curvature, the dense first-order Trotter product, one row's Trotter
factor and product-channel overlap from scalars, and the circuit angle
matched to a channel.  The package computes all of these in closed
form or as products of one-qubit channels; the tests use this module as an
independent dense reference for those results.  It follows the conventions
of ``vista.qcore`` (qubit 0 is the most significant index bit).
"""

from dataclasses import dataclass

import numpy as np

from vista.dynamics import qubit_channel
from vista.errors import DimensionError, DomainError, NumericsError
from vista.qcore import OPERATOR_QUBIT_GUARD, bit_weights, check_qubit_count

# default absolute tolerance for dense equality checks
ATOL = 1e-10


@dataclass(frozen=True)
class Bitstring:
    """Computational-basis label; bit 0 is the most significant index bit."""

    n: int
    bits: tuple

    def __post_init__(self):
        if len(self.bits) != self.n or any(b not in (0, 1) for b in self.bits):
            raise DimensionError(f"need {self.n} bits in {{0,1}}, got {self.bits}")

    @classmethod
    def from_index(cls, n, index):
        bits = tuple((index >> (n - 1 - j)) & 1 for j in range(n))
        return cls(n, bits)

    @property
    def index(self):
        out = 0
        for b in self.bits:
            out = (out << 1) | b
        return out

    @property
    def weight(self):
        return sum(self.bits)




def kron(a, b):
    """Tensor product with the operator-size guard applied to the result."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    dim = a.shape[0] * b.shape[0]
    if a.ndim == 2 and dim > 2**OPERATOR_QUBIT_GUARD:
        raise DimensionError(f"kron result dimension {dim} exceeds 2^{OPERATOR_QUBIT_GUARD}")
    return np.kron(a, b)


def collective_operator(n, axis):
    """Sum of single-qubit Paulis, e.g. Z_0 + ... + Z_{n-1} for axis 'Z'."""
    n = check_qubit_count(n, OPERATOR_QUBIT_GUARD, "collective_operator")
    axis = axis.upper()
    if axis == "Z":
        # diagonal: (#zeros - #ones) per basis state
        return np.diag((n - 2 * bit_weights(n)).astype(complex))
    if axis != "X":
        raise DomainError(f"collective axis must be 'Z' or 'X', got {axis!r}")
    dim = 2**n
    op = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    for j in range(n):
        mask = 1 << (n - 1 - j)
        op[idx ^ mask, idx] += 1.0
    return op


def tensor_pauli(n, pauli):
    """n-fold tensor power of a single-qubit Pauli (parity-type operator)."""
    n = check_qubit_count(n, OPERATOR_QUBIT_GUARD, "tensor_pauli")
    op = np.array([[1]], dtype=complex)
    for _ in range(n):
        op = np.kron(op, pauli)
    return op


def apply_all_x(vec):
    """Apply X on every qubit to a dense state vector (bit-reversal free: index complement)."""
    vec = np.asarray(vec)
    return vec[::-1].copy()


def is_hermitian(a, atol=ATOL):
    a = np.asarray(a)
    return bool(np.all(np.abs(a - a.conj().T) <= atol))


def trace_product(a, b, herm_atol=1e-8):
    """Tr(a b) for Hermitian a, b; complains if the imaginary residue is not negligible."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"trace_product needs equal square matrices, got {a.shape} and {b.shape}")
    if not is_hermitian(a, herm_atol) or not is_hermitian(b, herm_atol):
        raise NumericsError("trace_product inputs must be Hermitian")
    val = np.einsum("ij,ji->", a, b)
    if abs(val.imag) > 1e-8:
        raise NumericsError(f"trace product imaginary residue {val.imag:.3e} exceeds 1e-8")
    return float(val.real)


def purity(rho):
    """Tr(rho^2); in [1/dim, 1] for a valid density matrix."""
    return trace_product(rho, rho)


def assert_density_matrix(rho, atol=1e-8):
    """Validate trace one, Hermiticity and near-positivity; returns rho unchanged."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"density matrix must be square, got {rho.shape}")
    tr = np.trace(rho)
    if abs(tr - 1) > atol:
        raise NumericsError(f"trace {tr} not 1 within {atol}")
    if not is_hermitian(rho, atol):
        raise NumericsError("density matrix not Hermitian")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -1e-7:
        raise NumericsError(f"negative eigenvalue {evals.min():.3e}")
    return rho


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


def trotter_evolve(vec, ham, d=64):
    """First-order Trotter evolution of a dense state vector.

    Applies d repetitions of exp(-i theta_z sum Z tau) . exp(-i theta_x sum X tau)
    with tau = t/d (the X half acts first within each step).  With theta_x = 0 a
    single step is already exact, so any d reproduces the closed-form phases.
    """
    psi = np.array(vec, dtype=complex)
    dim = psi.shape[0]
    n = int(np.log2(dim))
    if 2**n != dim or psi.ndim != 1:
        raise DimensionError(f"state dimension {psi.shape} is not a power-of-two vector")
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")

    tau = ham.t / d
    zphase = np.exp(-1j * ham.theta_z * tau * (n - 2 * bit_weights(n)))
    c, s = np.cos(ham.theta_x * tau), np.sin(ham.theta_x * tau)
    for _ in range(d):
        if ham.theta_x != 0:
            for j in range(n):
                lead, rest = 2**j, 2 ** (n - 1 - j)
                v = psi.reshape(lead, 2, rest)
                a0, a1 = v[:, 0, :].copy(), v[:, 1, :].copy()
                v[:, 0, :] = c * a0 - 1j * s * a1
                v[:, 1, :] = c * a1 - 1j * s * a0
        psi *= zphase
    return psi


def trotter_step_power(ham, d):
    """One qubit's 2x2 Trotter factor as one step raised to the d-th power with ``matrix_power``.

    The reference for ``vista.dynamics.trotter_unitary``, which writes the
    d-th power of the step out as one SU(2) rotation instead.
    """
    tau = ham.t / d
    c, s = np.cos(ham.theta_x * tau), np.sin(ham.theta_x * tau)
    zphase = np.exp(-1j * ham.theta_z * tau * np.array([1.0, -1.0]))
    step = zphase[:, None] * np.array([[c, -1j * s], [-1j * s, c]])
    return np.linalg.matrix_power(step, d)


def matched_angle(channel):
    """Circuit angle phi whose decay exactly reproduces the channel at its gamma.

    The matching condition is cos(phi) = e^{-kappa}.
    """
    kappa = qubit_channel(channel.kind, channel.gamma)[1]
    return float(np.arccos(np.exp(-kappa)))
