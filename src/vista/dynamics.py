"""GHZ probe dynamics: closed forms, the circuit ansatz family, a product-channel kernel, and dense oracles.

The probe is an n-qubit GHZ state evolved for unit time under

    d rho/dt = -i theta [H, rho] + dissipator,   H = sum_j Z_j (+ theta_x sum_j X_j),

with either collective dephasing (jump operators sqrt(gamma) Z_j) or per-qubit
amplitude damping (jump operators sqrt(gamma) |0><1|_j).  Both channels leave the
GHZ corner structure analytically solvable:

* dephasing keeps the diagonal and damps the corner coherence to
  (1/2) exp(-2 n (i theta + gamma) t),
* amplitude damping damps the coherence to (1/2) exp(-n gamma t / 2) e^{-2 i n theta t}
  and redistributes the |1...1> population binomially over bitstrings.

The hardware-style ansatz (entangle, rotate by theta-hat, partially disentangle by
angle phi) produces exactly the same families, with the decay rate set by phi; the
matching conditions are cos(phi) = exp(-2 gamma') for dephasing and
cos(phi) = exp(-gamma'/2) for amplitude damping.

Every term of the master equation acts on one qubit, so the evolution is a
product channel E^{(x) n}.  With the transverse term theta_x != 0 there is no
closed form for the corner structure, but E is still one 4x4 superoperator:
the probe is rho = 1/2 sum_ab E(|a><b|)^{(x) n}, the Trotter ansatz is
u^{(x) n}|GHZ> for one 2x2 matrix u, and their overlap is a sum of 16 scalars
raised to the n-th power.  The dense RK4 integrator and the dense Trotter
product are kept as independent oracles for these kernels.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericsError, UnsupportedModelError
from .qcore import (
    OPERATOR_QUBIT_GUARD,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    SIGMA_MINUS,
    bit_weights,
    check_qubit_count,
)

CHANNEL_NONE = "none"
CHANNEL_DEPHASING = "dephasing"
CHANNEL_AMPDAMP = "amplitude_damping"
CHANNELS = (CHANNEL_NONE, CHANNEL_DEPHASING, CHANNEL_AMPDAMP)

FAMILY_PURE = "pure_ghz"
FAMILY_DEPHASED = "dephased_ghz"
FAMILY_AMPDAMP = "ampdamp_ghz"

# keep phi strictly inside [0, pi/2) so cos(phi) > 0 and the decay maps stay invertible
PHI_MAX = np.pi / 2 - 1e-6


@dataclass(frozen=True)
class ChannelSpec:
    kind: str
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in CHANNELS:
            raise DomainError(f"unknown channel kind {self.kind!r}")
        if self.gamma < 0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma}")
        if self.kind == CHANNEL_NONE and self.gamma != 0:
            raise DomainError("channel 'none' requires gamma = 0")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Collective generator theta_z * sum Z_j + theta_x * sum X_j acting for time t."""

    theta_z: float
    theta_x: float = 0.0
    t: float = 1.0

    def __post_init__(self):
        if self.t <= 0:
            raise DomainError(f"evolution time must be positive, got {self.t}")


@dataclass(frozen=True)
class CircuitAngle:
    phi: float

    def __post_init__(self):
        if not 0 <= self.phi < np.pi / 2:
            raise DomainError(f"phi must lie in [0, pi/2), got {self.phi}")


@dataclass(frozen=True)
class ClosedFormState:
    """Analytic n-qubit GHZ-family state.

    ``theta`` is the accumulated phase parameter (theta * t in probe terms) and
    ``decay`` the accumulated decay exponent (gamma * t for probes, or the
    gamma-equivalent of the circuit angle phi for ansatz states).
    """

    n: int
    family: str
    theta: float
    decay: float = 0.0

    def __post_init__(self):
        check_qubit_count(self.n, 64, "ClosedFormState")  # closed forms have no dense guard
        if self.family not in (FAMILY_PURE, FAMILY_DEPHASED, FAMILY_AMPDAMP):
            raise DomainError(f"unknown family {self.family!r}")
        if self.decay < 0:
            raise DomainError(f"decay must be >= 0, got {self.decay}")
        if self.family == FAMILY_PURE and self.decay != 0:
            raise DomainError("pure family carries no decay")

    def coherence(self):
        """The |0...0><1...1| matrix element."""
        n, g = self.n, self.decay
        if self.family == FAMILY_AMPDAMP:
            mag = 0.5 * np.exp(-n * g / 2)
        else:
            mag = 0.5 * np.exp(-2 * n * g)
        return mag * np.exp(-2j * n * self.theta)

    def diagonal(self):
        """Populations over all 2^n basis states (closed form, no dense guard below 15 qubits)."""
        n = self.n
        if n > 14:
            raise DimensionError("diagonal materialization limited to 14 qubits")
        diag = np.zeros(2**n)
        if self.family == FAMILY_AMPDAMP:
            e = np.exp(-self.decay)
            w = bit_weights(n)
            diag += 0.5 * e**w * (1 - e) ** (n - w)
            diag[0] += 0.5
        else:
            diag[0] = diag[-1] = 0.5
        return diag

    def purity(self):
        n, g = self.n, self.decay
        if self.family == FAMILY_PURE:
            return 1.0
        if self.family == FAMILY_DEPHASED:
            return 0.5 * (1 + np.exp(-4 * n * g))
        return ampdamp_purity(n, g)


def ampdamp_purity(n, gamma):
    """Tr(rho^2) of the amplitude-damped GHZ closed form."""
    e = np.exp(-gamma)
    return (
        0.25
        + 0.5 * (1 - e) ** n
        + 0.5 * e**n
        + 0.25 * (e * e + (1 - e) ** 2) ** n
    )


def evolve_closed_form(n, ham, channel):
    """Closed-form GHZ probe state after evolving for ham.t under the given channel."""
    n = int(n)
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    if ham.theta_x != 0:
        raise UnsupportedModelError("closed forms cover the commuting Z generator only")
    theta = ham.theta_z * ham.t
    g = channel.gamma * ham.t
    if channel.kind == CHANNEL_NONE:
        return ClosedFormState(n, FAMILY_PURE, theta)
    if channel.kind == CHANNEL_DEPHASING:
        return ClosedFormState(n, FAMILY_DEPHASED, theta, g)
    return ClosedFormState(n, FAMILY_AMPDAMP, theta, g)


def matched_angle(channel):
    """Circuit angle phi whose decay exactly reproduces the channel at its gamma."""
    if channel.kind == CHANNEL_DEPHASING:
        return CircuitAngle(float(np.arccos(np.exp(-2 * channel.gamma))))
    if channel.kind == CHANNEL_AMPDAMP:
        return CircuitAngle(float(np.arccos(np.exp(-channel.gamma / 2))))
    if channel.kind == CHANNEL_NONE:
        return CircuitAngle(0.0)
    raise UnsupportedModelError(f"no matched angle for channel {channel.kind!r}")


def circuit_decay(kind, phi):
    """Gamma-equivalent of the circuit angle phi: inverse of the matching condition."""
    c = np.cos(phi)
    if c <= 0:
        raise DomainError(f"cos(phi) must be positive for inversion, got phi={phi}")
    if kind == CHANNEL_DEPHASING:
        return float(-0.5 * np.log(c))
    if kind == CHANNEL_AMPDAMP:
        return float(-2.0 * np.log(c))
    raise UnsupportedModelError(f"no decay inversion for channel {kind!r}")


def circuit_ansatz_state(n, theta_hat, phi, kind):
    """State prepared by the ansatz circuit: GHZ family member with phi-controlled decay.

    For dephasing the corner coherence is (1/2) cos(phi)^n e^{-2 i n theta_hat};
    for amplitude damping the mixing weight is alpha = sin^2(phi) and the
    coherence (1/2)(1-alpha)^{n/2} e^{-2 i n theta_hat}.  Both are exactly the
    probe closed forms evaluated at the gamma-equivalent decay of phi.
    """
    angle = phi if isinstance(phi, CircuitAngle) else CircuitAngle(float(phi))
    if kind == CHANNEL_NONE:
        if angle.phi != 0:
            raise DomainError("pure ansatz has no disentangling angle")
        return ClosedFormState(int(n), FAMILY_PURE, float(theta_hat))
    family = {CHANNEL_DEPHASING: FAMILY_DEPHASED, CHANNEL_AMPDAMP: FAMILY_AMPDAMP}.get(kind)
    if family is None:
        raise UnsupportedModelError(f"no ansatz family for channel {kind!r}")
    return ClosedFormState(int(n), family, float(theta_hat), circuit_decay(kind, angle.phi))


def to_dense(state):
    """Materialize a closed-form state as a density matrix (guarded at 10 qubits)."""
    n = check_qubit_count(state.n, OPERATOR_QUBIT_GUARD, "to_dense")
    rho = np.diag(state.diagonal().astype(complex))
    c = state.coherence()
    rho[0, -1] = c
    rho[-1, 0] = np.conj(c)
    return rho


# ---------------------------------------------------------------------------
# product-channel kernel: one qubit's channel and ansatz, any n


def single_qubit_lindbladian(ham, channel):
    """4x4 generator of one qubit's master equation, acting on row-major vec(rho).

    Built from vec(A rho B) = (A kron B^T) vec(rho).  The jump operator is
    sqrt(gamma) Z for dephasing and sqrt(gamma) |0><1| for amplitude damping.
    """
    h = ham.theta_z * PAULI_Z + ham.theta_x * PAULI_X
    gen = -1j * (np.kron(h, PAULI_I) - np.kron(PAULI_I, h.T))
    jump = {CHANNEL_DEPHASING: PAULI_Z, CHANNEL_AMPDAMP: SIGMA_MINUS}.get(channel.kind)
    if jump is not None:
        j = np.sqrt(channel.gamma) * jump
        jj = j.conj().T @ j
        gen += np.kron(j, j.conj()) - 0.5 * (np.kron(jj, PAULI_I) + np.kron(PAULI_I, jj.T))
    return gen


def expm_small(a):
    """exp(a) of a small square matrix by scaling and squaring.

    a is scaled by 2^-s so that its 1-norm is at most 1/2, where 16 Taylor
    terms leave a remainder below 1e-19; the sum is then squared s times.
    """
    s = max(0, int(np.frexp(np.linalg.norm(a, 1))[1]) + 1)
    x = np.asarray(a, dtype=complex) / 2.0**s
    term = out = np.eye(x.shape[0], dtype=complex)
    for k in range(1, 17):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def product_channel_blocks(ham, channel):
    """Blocks M_ab = E(|a><b|) of the one-qubit channel E = exp(t L), indexed [a, b, i, j].

    The GHZ probe evolved under ham and channel is 1/2 sum_ab M_ab^{(x) n}.
    """
    prop = expm_small(ham.t * single_qubit_lindbladian(ham, channel))
    return prop.T.reshape(2, 2, 2, 2)


def trotter_unitary(ham, d=64):
    """One qubit's factor u of ``trotter_evolve``: trotter_evolve(GHZ) = u^{(x) n}|GHZ>.

    u = (exp(-i theta_z tau Z) exp(-i theta_x tau X))^d with tau = t/d.
    """
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    tau = ham.t / d
    c, s = np.cos(ham.theta_x * tau), np.sin(ham.theta_x * tau)
    zphase = np.exp(-1j * ham.theta_z * tau * np.array([1.0, -1.0]))
    step = zphase[:, None] * np.array([[c, -1j * s], [-1j * s, c]])
    return np.linalg.matrix_power(step, d)


def ghz_product_overlap(blocks, u, n):
    """<psi|rho|psi> for rho = 1/2 sum_ab M_ab^{(x) n} and |psi> = u^{(x) n}|GHZ>.

    Equals 1/4 Re sum_abce t_abce^n with t_ab = u^dag M_ab u; the cost does
    not depend on n.
    """
    t = u.conj().T @ blocks @ u
    return 0.25 * float(np.real(np.sum(t**n)))


# ---------------------------------------------------------------------------
# dense numerical integration (oracle path for the closed forms and the
# product-channel kernel)


def _flip_index(n, j):
    """Basis permutation realizing X on qubit j (qubit 0 = most significant bit)."""
    return np.arange(2**n) ^ (1 << (n - 1 - j))


def _make_rhs(n, ham, channel):
    dim = 2**n
    w = bit_weights(n)
    zdiag = (n - 2 * w).astype(float)

    # everything diagonal-in-index acts elementwise on rho[a, b]
    coeff = np.zeros((dim, dim), dtype=complex)
    coeff += -1j * ham.theta_z * (zdiag[:, None] - zdiag[None, :])
    gamma = channel.gamma
    if channel.kind == CHANNEL_DEPHASING and gamma > 0:
        signs = 1 - 2 * ((np.arange(dim)[:, None] >> np.arange(n)[None, ::-1]) & 1)
        zz = signs.astype(float) @ signs.T.astype(float)  # sum_j z_j(a) z_j(b)
        coeff += gamma * (zz - n)
    if channel.kind == CHANNEL_AMPDAMP and gamma > 0:
        coeff += -0.5 * gamma * (w[:, None] + w[None, :])

    flips = [_flip_index(n, j) for j in range(n)] if ham.theta_x != 0 else []
    damp = channel.kind == CHANNEL_AMPDAMP and gamma > 0

    def rhs(rho):
        out = coeff * rho
        for perm in flips:
            out += (-1j * ham.theta_x) * (rho[perm, :] - rho[:, perm])
        if damp:
            for j in range(n):
                lead, rest = 2**j, 2 ** (n - 1 - j)
                r6 = rho.reshape(lead, 2, rest, lead, 2, rest)
                o6 = out.reshape(lead, 2, rest, lead, 2, rest)
                o6[:, 0, :, :, 0, :] += gamma * r6[:, 1, :, :, 1, :]
        return out

    return rhs


def lindblad_rk4_oracle(rho0, ham, channel, steps=2000):
    """Fixed-step RK4 integration of the master equation.

    Parameters
    ----------
    rho0 : (2^n, 2^n) complex array
        Initial density matrix; n is inferred from the dimension (n <= 10).
    ham : HamiltonianSpec
        Collective generator; theta_x != 0 engages the permutation-based X term.
    channel : ChannelSpec
    steps : int
        Number of RK4 steps over [0, ham.t]; at least 100.  2000 holds the
        integration error well under 1e-8 for the parameter ranges exercised
        here, comfortably inside the 1e-6 oracle budget.

    Returns the final density matrix; raises NumericsError when the trace
    drifts by more than 1e-6 (halve the step, i.e. raise ``steps``).
    """
    rho = np.array(rho0, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"rho0 must be square, got {rho.shape}")
    dim = rho.shape[0]
    n = int(np.log2(dim))
    if 2**n != dim:
        raise DimensionError(f"dimension {dim} is not a power of two")
    check_qubit_count(n, OPERATOR_QUBIT_GUARD, "lindblad_rk4_oracle")
    if steps < 100:
        raise DomainError(f"need steps >= 100, got {steps}")

    rhs = _make_rhs(n, ham, channel)
    h = ham.t / steps
    for _ in range(steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    drift = abs(np.trace(rho).real - 1) + abs(np.trace(rho).imag)
    if drift > 1e-6:
        raise NumericsError(
            f"trace drifted by {drift:.3e} after {steps} steps; halve the step size"
        )
    return rho


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
