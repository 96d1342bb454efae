"""Reference formulas the benchmark checks the program's outputs against.

Every state the program builds is a GHZ state with one single-qubit channel
E applied to each qubit, so it has the form

    rho = 1/2 sum_{a,b in {0,1}} M_ab^{(x) n},   M_ab = E(|a><b|),

and for two such states Tr(rho sigma) = 1/4 sum_{a,b,c,d} Tr(M_ab N_cd)^n.
That one expression covers the pure, dephased and amplitude-damped closed
forms, the circuit ansatz at angle phi, and the two-angle probe and Trotter
ansatz.  It shares no code with the program's per-family formulas.  The
dense oracles at the end (full Liouvillian exponentials, explicit Kraus
maps) exist to test these formulas at small n before they are trusted.

"Blocks" below are arrays of shape (..., 2, 2, 2, 2) indexed [a, b, i, j]:
the 2x2 matrix M_ab for every pair (a, b), batched over leading axes.
"""

import numpy as np

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|, the damping jump
I2 = np.eye(2, dtype=complex)


def ghz_blocks(f, q=1.0):
    """Blocks of a GHZ-family state.

    ``f`` is the per-qubit factor on |0><1| (phase and coherence decay) and
    ``q`` the share of |1><1| that stays in |1> (1 without amplitude damping).
    Both broadcast over leading axes.
    """
    f = np.asarray(f, dtype=complex)
    q = np.asarray(q, dtype=float)
    shape = np.broadcast_shapes(f.shape, q.shape)
    m = np.zeros(shape + (2, 2, 2, 2), dtype=complex)
    m[..., 0, 0, 0, 0] = 1.0
    m[..., 1, 1, 1, 1] = q
    m[..., 1, 1, 0, 0] = 1.0 - q
    m[..., 0, 1, 0, 1] = f
    m[..., 1, 0, 1, 0] = np.conj(f)
    return m


def probe_blocks(theta, gamma, channel):
    """Probe after unit time under theta*sum(Z) with the named channel."""
    phase = np.exp(-2j * np.asarray(theta, dtype=float))
    gamma = np.asarray(gamma, dtype=float)
    if channel == "none":
        return ghz_blocks(phase)
    if channel == "dephasing":
        return ghz_blocks(np.exp(-2 * gamma) * phase)
    if channel == "amplitude_damping":
        return ghz_blocks(np.exp(-gamma / 2) * phase, np.exp(-gamma))
    raise ValueError(f"unknown channel {channel!r}")


def ansatz_blocks(theta_hat, phi, channel):
    """Circuit ansatz: rotate by theta_hat, partially disentangle by angle phi.

    The disentangling step keeps cos(phi) of each qubit's coherence; under
    amplitude damping it also moves sin^2(phi) of |1> to |0>.
    """
    phase = np.exp(-2j * np.asarray(theta_hat, dtype=float))
    c = np.cos(np.asarray(phi, dtype=float))
    if channel == "none":
        return ghz_blocks(phase)
    if channel == "dephasing":
        return ghz_blocks(c * phase)
    if channel == "amplitude_damping":
        return ghz_blocks(c * phase, c * c)
    raise ValueError(f"unknown channel {channel!r}")


def overlap(m, k, n):
    """Tr(rho sigma) for block arrays m, k; m, k and n broadcast over leading axes."""
    t = np.einsum("...abij,...cdji->...abcd", m, k)
    n = np.asarray(n)[..., None, None, None, None]
    return 0.25 * np.real(np.sum(t**n, axis=(-4, -3, -2, -1)))


def purity(m, n):
    return overlap(m, m, n)


# --- two-angle mode ------------------------------------------------------------


def vec(rho):
    return np.asarray(rho, dtype=complex).reshape(-1)


def lindbladian(h, jumps):
    """Superoperator of d rho/dt = -i[h, rho] + sum_J (J rho J^+ - {J^+ J, rho}/2).

    Acts on row-major vec(rho), for which vec(A rho B) = (A kron B^T) vec(rho).
    """
    eye = np.eye(h.shape[0], dtype=complex)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for j in jumps:
        jj = j.conj().T @ j
        sup += np.kron(j, j.conj()) - 0.5 * np.kron(jj, eye) - 0.5 * np.kron(eye, jj.T)
    return sup


def _jumps(gamma, channel):
    if channel == "dephasing":
        return [np.sqrt(gamma) * Z]
    if channel == "amplitude_damping":
        return [np.sqrt(gamma) * LOWER]
    return []


def two_angle_probe_blocks(theta1, theta2, gamma, channel="dephasing", t=1.0):
    """Product-channel probe: M_ab = exp(t L) |a><b| with the 4x4 one-qubit L."""
    from scipy.linalg import expm

    prop = expm(t * lindbladian(theta1 * Z + theta2 * X, _jumps(gamma, channel)))
    m = np.zeros((2, 2, 2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[a, b] = 1.0
            m[a, b] = (prop @ vec(unit)).reshape(2, 2)
    return m


def _rotation(axis, angle):
    """exp(-i angle P) for a Pauli P, batched over angle."""
    angle = np.asarray(angle, dtype=float)[..., None, None]
    return np.cos(angle) * I2 - 1j * np.sin(angle) * axis


def trotter_blocks(theta1, theta2, d, t=1.0):
    """Blocks of u^{(x) n}|GHZ> with u = (exp(-i theta1 tau Z) exp(-i theta2 tau X))^d.

    The X rotation acts first within each step; theta1, theta2 broadcast.
    """
    tau = t / d
    step = _rotation(Z, np.asarray(theta1) * tau) @ _rotation(X, np.asarray(theta2) * tau)
    u = np.linalg.matrix_power(step, d)
    return np.einsum("...ia,...jb->...abij", u, u.conj())


def dense_from_blocks(m, n):
    """Density matrix 1/2 sum_ab M_ab^{(x) n} (small n only)."""
    rho = 0
    for a in range(2):
        for b in range(2):
            term = np.ones((1, 1), dtype=complex)
            for _ in range(n):
                term = np.kron(term, m[a, b])
            rho = rho + term
    return 0.5 * rho


# --- dense oracles (n <= 4) -------------------------------------------------------


def ghz_density(n):
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def on_qubit(op, j, n):
    """op acting on qubit j of n (qubit 0 is the most significant bit)."""
    out = np.ones((1, 1), dtype=complex)
    for k in range(n):
        out = np.kron(out, op if k == j else I2)
    return out


def dense_lindblad_state(n, theta1, theta2, gamma, channel, t=1.0):
    """GHZ probe evolved by exp(t L) of the full n-qubit Liouvillian."""
    from scipy.linalg import expm

    h = sum(theta1 * on_qubit(Z, j, n) + theta2 * on_qubit(X, j, n) for j in range(n))
    jumps = [on_qubit(J, j, n) for j in range(n) for J in _jumps(gamma, channel)]
    rho = expm(t * lindbladian(h, jumps)) @ vec(ghz_density(n))
    return rho.reshape(2**n, 2**n)


def dense_circuit_state(n, theta_hat, phi, channel):
    """GHZ, then exp(-i theta_hat Z) and a Kraus disentangler on every qubit."""
    c, s = np.cos(phi), np.sin(phi)
    if channel == "dephasing":
        kraus = [np.sqrt((1 + c) / 2) * I2, np.sqrt((1 - c) / 2) * Z]
    elif channel == "amplitude_damping":
        kraus = [np.diag([1.0, c]).astype(complex), s * LOWER]
    else:
        kraus = [I2]
    rho = ghz_density(n)
    for j in range(n):
        r = on_qubit(_rotation(Z, theta_hat), j, n)
        rho = r @ rho @ r.conj().T
        ks = [on_qubit(k, j, n) for k in kraus]
        rho = sum(k @ rho @ k.conj().T for k in ks)
    return rho


def self_check(ns=(1, 2, 3)):
    """Largest deviation of the block formulas from the dense oracles.

    Covers every probe channel (with and without the transverse angle), every
    ansatz channel, the overlaps and purities built from them, and the Trotter
    ansatz against a dense product of rotations.
    """
    worst = 0.0
    theta, gamma, phi, theta_hat = 0.17, 0.09, 0.6, 0.11
    for n in ns:
        for channel in ("none", "dephasing", "amplitude_damping"):
            g = 0.0 if channel == "none" else gamma
            probe = probe_blocks(theta, g, channel)
            dense_probe = dense_lindblad_state(n, theta, 0.0, g, channel)
            worst = max(worst, np.max(np.abs(dense_from_blocks(probe, n) - dense_probe)))
            ans = ansatz_blocks(theta_hat, phi if channel != "none" else 0.0, channel)
            dense_ans = dense_circuit_state(n, theta_hat, phi if channel != "none" else 0.0, channel)
            worst = max(worst, np.max(np.abs(dense_from_blocks(ans, n) - dense_ans)))
            worst = max(worst, abs(overlap(probe, ans, n) - np.trace(dense_probe @ dense_ans).real))
            worst = max(worst, abs(purity(ans, n) - np.trace(dense_ans @ dense_ans).real))
            if channel != "none":
                two = two_angle_probe_blocks(theta, 0.07, g, channel)
                dense_two = dense_lindblad_state(n, theta, 0.07, g, channel)
                worst = max(worst, np.max(np.abs(dense_from_blocks(two, n) - dense_two)))
        psi = np.zeros(2**n, dtype=complex)
        psi[0] = psi[-1] = 1 / np.sqrt(2)
        step = np.eye(2**n, dtype=complex)
        for j in range(n):
            step = on_qubit(_rotation(Z, 0.05 / 4) @ _rotation(X, 0.08 / 4), j, n) @ step
        psi = np.linalg.matrix_power(step, 4) @ psi
        dense_ans = np.outer(psi, psi.conj())
        worst = max(worst, np.max(np.abs(dense_from_blocks(trotter_blocks(0.05, 0.08, 4), n) - dense_ans)))
    return float(worst)
