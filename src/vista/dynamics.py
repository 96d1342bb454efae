"""GHZ probe dynamics: closed forms, the circuit ansatz family, a product-channel kernel, and a dense oracle.

The probe is an n-qubit GHZ state evolved for unit time under

    d rho/dt = -i theta [H, rho] + dissipator,   H = sum_j Z_j (+ theta_x sum_j X_j),

with either collective dephasing (jump operators sqrt(gamma) Z_j) or per-qubit
amplitude damping (jump operators sqrt(gamma) |0><1|_j).  Every term acts on
one qubit, so the evolution is a product channel E^{(x) n}.

With the commuting generator alone, one qubit's channel is fixed by two
numbers at decay g: the excited population p it keeps and the decay kappa of
its coherence, e^{-kappa}.  ``qubit_channel`` holds them for every kind:

* none:              p = 1,        kappa = 0
* dephasing:         p = 1,        kappa = 2 g
* amplitude damping: p = e^{-g},   kappa = g / 2

Every closed form follows from (theta, p, kappa) alone: the corner coherence
(1/2) e^{-n kappa} e^{-2 i n theta}, the binomial populations, the overlap of
any two states, of any kinds (``closed_form_overlap``, built on the
theta-free ``overlap_factors``), and the purity as a state's overlap with
itself.  No state object is kept: the run path passes the three numbers,
and ``closed_form_density`` writes them out as a dense matrix for the RK4
oracle to check.  The closed forms take Python floats and use ``math``:
numpy's SIMD exp and log round differently on different CPUs.

The hardware-style ansatz (entangle, rotate by theta-hat, partially disentangle
by angle phi) produces the same states, with cos(phi) = e^{-kappa}:
``circuit_decay`` turns phi into the decay that ``qubit_channel`` takes.
For a run's probe, ``ansatz_factors`` maps phi to the ansatz's overlap
factors and purity in one call, with the bits of the chain it replaces.

With the transverse term theta_x != 0 there is no closed form for the corner
structure, but E is still one 4x4 superoperator: the probe is
rho = 1/2 sum_ab E(|a><b|)^{(x) n}, the Trotter ansatz is u^{(x) n}|GHZ> for
one 2x2 matrix u, and their overlap is a sum of 16 scalars raised to the n-th
power.  u is the d-th power of one Trotter step, an SU(2) rotation, so
``trotter_unitary`` writes it out as the rotation by d times the step's
angle, and ``ghz_product_overlap`` forms the 16 scalars with one einsum.
Both take a leading row axis, give every row the bits of its scalar
evaluation, and call no BLAS routine.  The dense RK4 integrator is kept as
an independent oracle for these kernels (``vista oracle-check`` runs it).
"""

import math
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

# One qubit's channel by kind: the excited population kept at decay g, the
# rate r of the coherence decay kappa = r g, and the jump operator L of the
# master equation (sqrt(g) L acts on each qubit).  Each r is a power of two,
# so r g is exact and matches 2 g and g / 2 to the last bit.
_QUBIT_CHANNEL = {
    CHANNEL_NONE: (lambda g: 1.0, 0.0, None),
    CHANNEL_DEPHASING: (lambda g: 1.0, 2.0, PAULI_Z),
    CHANNEL_AMPDAMP: (lambda g: math.exp(-g), 0.5, SIGMA_MINUS),
}
CHANNELS = tuple(_QUBIT_CHANNEL)


def check_channel(kind, decay):
    """Raise DomainError unless ``kind`` is a channel and ``decay`` one it can carry: finite, >= 0, and 0 if it has no decay."""
    if kind not in CHANNELS:
        raise DomainError(f"unknown channel kind {kind!r}")
    if not 0 <= decay < np.inf:  # also rejects nan
        raise DomainError(f"decay must be finite and >= 0, got {decay}")
    if _QUBIT_CHANNEL[kind][1] == 0 and decay != 0:
        raise DomainError(f"channel {kind!r} carries no decay, got {decay}")


def qubit_channel(kind, decay):
    """(p, kappa) of one qubit after the channel ``kind`` at ``decay``."""
    population, rate, _ = _QUBIT_CHANNEL[kind]
    return population(decay), rate * decay


def overlap_factors(n, a, b):
    """(populations, amplitude) of closed_form_overlap(n, a, b, dtheta) = populations + amplitude * cos(2n dtheta).

    With q = 1 - p, they are 1/4 (1 + qa^n + qb^n + (pa pb + qa qb)^n) and 1/2 e^{-n (kappa_a + kappa_b)}.
    """
    (pa, ka), (pb, kb) = a, b
    qa, qb = 1 - pa, 1 - pb
    return 0.25 * (1 + qa**n + qb**n + (pa * pb + qa * qb) ** n), 0.5 * math.exp(-n * (ka + kb))


def closed_form_overlap(n, a, b, dtheta):
    """Tr(rho_a rho_b) of two n-qubit GHZ states whose qubits are a = (p_a, kappa_a) and b.

    dtheta is the phase of a minus that of b.  The purity of a state is its
    overlap with itself, closed_form_overlap(n, a, a, 0).
    """
    populations, amplitude = overlap_factors(n, a, b)
    return populations + amplitude * math.cos(2 * n * dtheta)


@dataclass(frozen=True)
class ChannelSpec:
    kind: str
    gamma: float = 0.0

    def __post_init__(self):
        check_channel(self.kind, self.gamma)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Collective generator theta_z * sum Z_j + theta_x * sum X_j acting for time t."""

    theta_z: float
    theta_x: float = 0.0
    t: float = 1.0

    def __post_init__(self):
        if not 0 < self.t < np.inf:  # nan fails too
            raise DomainError(f"evolution time must be positive and finite, got {self.t}")


def circuit_decay(kind, phi):
    """Gamma-equivalent of the circuit angle phi, from cos(phi) = e^{-kappa}."""
    c = math.cos(phi)
    if not c > 0:  # nan fails too
        raise DomainError(f"cos(phi) must be positive for inversion, got phi={phi}")
    rate = _QUBIT_CHANNEL[kind][1] if kind in _QUBIT_CHANNEL else 0.0
    if rate == 0:
        raise UnsupportedModelError(f"no decay inversion for channel {kind!r}")
    return -math.log(c) / rate


def ansatz_factors(n, kind, probe, normalized):
    """The function phi -> (populations, amplitude, purity) of the ansatz at circuit angle phi against ``probe``.

    For the ansatz's qubit = qubit_channel(kind, circuit_decay(kind, phi)), they are the bits of
    ``overlap_factors(n, probe, qubit)`` and of the purity ``closed_form_overlap(n, qubit, qubit, 0.0)``,
    or 1.0 unless ``normalized``: the same expressions, written out once.  The probe's 1 + qa^n is computed
    once, and qb^n once per phi for both.  A channel with no decay to invert is refused here, a bad phi per call.
    """
    pa, ka = probe
    qa = 1 - pa
    lead = 1 + qa**n
    population, rate, _ = _QUBIT_CHANNEL.get(kind, (None, 0.0, None))
    if rate == 0:
        raise UnsupportedModelError(f"no decay inversion for channel {kind!r}")
    cos, log, exp = math.cos, math.log, math.exp

    def at(phi):
        c = cos(phi)  # circuit_decay(kind, phi), its checks and expression
        if not c > 0:  # nan fails too
            raise DomainError(f"cos(phi) must be positive for inversion, got phi={phi}")
        g = -log(c) / rate
        pb, kb = population(g), rate * g  # qubit_channel(kind, g), its row read once per run
        qb = 1 - pb
        qbn = qb**n
        pop, amp = 0.25 * (lead + qbn + (pa * pb + qa * qb) ** n), 0.5 * exp(-n * (ka + kb))
        if not normalized:
            return pop, amp, 1.0
        # the overlap with itself at dtheta = 0, where the cos is exactly 1.0
        return pop, amp, 0.25 * (1 + qbn + qbn + (pb * pb + qb * qb) ** n) + 0.5 * exp(-n * (kb + kb))

    return at


def closed_form_density(n, theta, qubit):
    """Dense density matrix of the n-qubit GHZ state at phase theta whose qubits are qubit = (p, kappa).

    The diagonal holds the binomial populations 1/2 p^w (1 - p)^(n - w), plus
    1/2 on |0...0>, and the corner the coherence 1/2 e^{-n kappa} e^{-2 i n theta}.
    Guarded at 10 qubits, as every dense operator.
    """
    n = check_qubit_count(n, OPERATOR_QUBIT_GUARD, "closed_form_density")
    p, kappa = qubit
    w = bit_weights(n)
    diag = 0.5 * p**w * (1 - p) ** (n - w)
    diag[0] += 0.5
    rho = np.diag(diag.astype(complex))
    c = 0.5 * np.exp(-n * kappa) * np.exp(-2j * n * theta)
    rho[0, -1] = c
    rho[-1, 0] = np.conj(c)
    return rho


# ---------------------------------------------------------------------------
# product-channel kernel: one qubit's channel and ansatz, any n


def single_qubit_lindbladian(ham, channel):
    """4x4 generator of one qubit's master equation, acting on row-major vec(rho).

    Built from vec(A rho B) = (A kron B^T) vec(rho), with the jump operator
    sqrt(gamma) L of the channel's row in the table.
    """
    h = ham.theta_z * PAULI_Z + ham.theta_x * PAULI_X
    gen = -1j * (np.kron(h, PAULI_I) - np.kron(PAULI_I, h.T))
    jump = _QUBIT_CHANNEL[channel.kind][2]
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
    """One qubit's factor u of the first-order Trotter product on n qubits.

    d steps of exp(-i theta_z tau sum Z) exp(-i theta_x tau sum X), tau = t/d,
    map |GHZ> to u^{(x) n}|GHZ> with u = (exp(-i theta_z tau Z) exp(-i theta_x tau X))^d.
    With a = theta_z tau and b = theta_x tau, one step is the SU(2) rotation
    w I - i (x X + y Y + z Z), (w, x, y, z) = (cos b cos a, sin b cos a, sin b sin a, cos b sin a),
    by the angle gamma = atan2(s, w), s = |(x, y, z)|.  u is the rotation by d gamma about
    the same axis, cos(d gamma) I - i sin(d gamma)/s (x X + y Y + z Z), with sin(d gamma)/s = d
    where s = 0.  cos(d gamma) + i sin(d gamma) is the complex power (w + i s)^d, which numpy
    computes one element at a time in the same bits at every SIMD level (its arctan2 does not).

    theta_z and theta_x may be arrays of rows; u then has their shape
    followed by (2, 2), and each row holds the bits of its scalar u.
    """
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    tau = ham.t / d
    a, b = np.multiply(ham.theta_z, tau), np.multiply(ham.theta_x, tau)
    ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    w, x, y, z = cb * ca, sb * ca, sb * sa, cb * sa
    s = np.sqrt(x * x + y * y + z * z)
    rot = np.power(w + 1j * s, d)
    f = np.divide(rot.imag, s, out=np.full(np.shape(s), float(d)), where=s != 0)
    x, y, z = f * x, f * y, f * z
    # [[c - i z, -y - i x], [y - i x, c + i z]], written part by part: a complex * would round per SIMD level
    u = np.empty(np.shape(s) + (2, 2), dtype=complex)
    re, im = u.real, u.imag
    re[..., 0, 0] = re[..., 1, 1] = rot.real
    re[..., 0, 1], re[..., 1, 0] = -y, y
    im[..., 0, 0], im[..., 1, 1] = -z, z
    im[..., 0, 1] = im[..., 1, 0] = -x
    return u


def ghz_product_overlap(blocks, u, n):
    """<psi|rho|psi> for rho = 1/2 sum_ab M_ab^{(x) n} and |psi> = u^{(x) n}|GHZ>.

    Equals 1/4 Re sum_abce t_abce^n with t_ab = u^dag M_ab u; the cost does
    not depend on n.  u may carry leading row axes, as ``trotter_unitary``
    returns it; the result then has one overlap per row.  t is one einsum,
    which sums each entry's four products in the same order on every row
    and calls no BLAS routine; the complex power goes element by element
    (``np.power``: the ``**`` operator sends n = 2 to numpy's complex square,
    whose bits move with the SIMD level); and each row's 16 terms are summed
    along one contiguous axis.  So a row's bits do not depend on the rows
    beside it.
    """
    t = np.power(np.einsum("...ji,...kl,abjk->...ilab", u.conj(), u, blocks), n)
    return 0.25 * np.real(np.sum(t.reshape(t.shape[:-4] + (16,)), axis=-1))


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
    drifts by more than 1e-6, or when an entry's modulus exceeds 1 + 1e-6 or
    is not finite (halve the step, i.e. raise ``steps``).  RK4 keeps the
    trace, so an unstable step blows up with the trace intact; a density
    matrix has no entry of modulus above 1.
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
    if not drift <= 1e-6:  # a nan state drifts by nan
        raise NumericsError(
            f"trace drifted by {drift:.3e} after {steps} steps; halve the step size"
        )
    largest = np.abs(rho).max()
    if not largest <= 1 + 1e-6:  # a non-finite entry fails too
        raise NumericsError(
            f"an entry reached modulus {largest:.3e} after {steps} steps; halve the step size"
        )
    return rho
