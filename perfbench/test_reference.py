"""The benchmark's reference formulas against dense matrices at n <= 4.

Run with ``python3 -m pytest perfbench/test_reference.py``.  The benchmark
trusts reference.py and the expected losses in checks.py only because these
pass; none of them calls the program.
"""

import numpy as np
import pytest
from scipy.linalg import expm

import checks
import reference as ref

TOL = 1e-12
CHANNELS = ("none", "dephasing", "amplitude_damping")


def _dense_trace(a, b):
    return float(np.trace(a @ b).real)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("theta, gamma", [(0.0, 0.0), (0.23, 0.11), (-0.7, 0.4)])
def test_probe_blocks_match_dense_lindblad(n, channel, theta, gamma):
    gamma = 0.0 if channel == "none" else gamma
    dense = ref.dense_lindblad_state(n, theta, 0.0, gamma, channel)
    assert np.max(np.abs(ref.dense_from_blocks(ref.probe_blocks(theta, gamma, channel), n) - dense)) < TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("theta_hat, phi", [(0.05, 0.0), (0.31, 0.4), (-0.2, 1.3)])
def test_ansatz_blocks_match_dense_circuit(n, channel, theta_hat, phi):
    phi = 0.0 if channel == "none" else phi
    dense = ref.dense_circuit_state(n, theta_hat, phi, channel)
    assert np.max(np.abs(ref.dense_from_blocks(ref.ansatz_blocks(theta_hat, phi, channel), n) - dense)) < TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("probe_channel, ansatz_channel", [
    ("none", "none"), ("dephasing", "none"), ("dephasing", "dephasing"),
    ("amplitude_damping", "amplitude_damping"), ("amplitude_damping", "none"), ("dephasing", "amplitude_damping"),
])
def test_overlap_and_purity_match_dense_traces(n, probe_channel, ansatz_channel):
    theta, gamma, theta_hat, phi = 0.17, 0.09, 0.12, 0.5
    g = 0.0 if probe_channel == "none" else gamma
    p = 0.0 if ansatz_channel == "none" else phi
    rho = ref.dense_lindblad_state(n, theta, 0.0, g, probe_channel)
    sigma = ref.dense_circuit_state(n, theta_hat, p, ansatz_channel)
    probe, ans = ref.probe_blocks(theta, g, probe_channel), ref.ansatz_blocks(theta_hat, p, ansatz_channel)
    assert abs(ref.overlap(probe, ans, n) - _dense_trace(rho, sigma)) < TOL
    assert abs(ref.purity(ans, n) - _dense_trace(sigma, sigma)) < TOL


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("mode, channel", [
    ("vista_pure", "dephasing"), ("vista_noisy_dephasing", "dephasing"), ("vista_noisy_ampdamp", "amplitude_damping"),
])
def test_check_losses_match_dense(n, mode, channel):
    """The expected loss the checks use: 1 - Tr(rho sigma), divided by sqrt(purity) under quasi-normalisation."""
    theta, gamma, theta_hat, phi = 0.21, 0.07, 0.19, 0.45
    norm = "plain" if mode == "vista_pure" else "quasi_normalized"
    cfg = {"mode": mode, "n": n, "theta_true": theta, "gamma_true": gamma, "channel": channel, "normalization": norm}
    raw, scale = checks.expected_raw_and_scale(cfg, [[theta_hat, phi]])
    rho = ref.dense_lindblad_state(n, theta, 0.0, gamma, channel)
    sigma = ref.dense_circuit_state(n, theta_hat, 0.0 if mode == "vista_pure" else phi, "none" if mode == "vista_pure" else channel)
    want = 1 - _dense_trace(rho, sigma) / np.sqrt(_dense_trace(sigma, sigma))
    assert abs((1 - raw[0] / scale[0]) - want) < TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("channel", ["dephasing", "amplitude_damping"])
@pytest.mark.parametrize("theta1, theta2, gamma", [(0.05, 0.05, 0.02), (0.3, -0.2, 0.15)])
def test_two_angle_probe_matches_dense_lindblad(n, channel, theta1, theta2, gamma):
    dense = ref.dense_lindblad_state(n, theta1, theta2, gamma, channel)
    blocks = ref.two_angle_probe_blocks(theta1, theta2, gamma, channel)
    assert np.max(np.abs(ref.dense_from_blocks(blocks, n) - dense)) < TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 4, 16])
def test_trotter_blocks_match_dense_product_of_rotations(n, d):
    theta1, theta2 = 0.05, 0.08
    z_all = sum(ref.on_qubit(ref.Z, j, n) for j in range(n))
    x_all = sum(ref.on_qubit(ref.X, j, n) for j in range(n))
    step = expm(-1j * theta1 / d * z_all) @ expm(-1j * theta2 / d * x_all)
    ghz = np.zeros(2**n, dtype=complex)
    ghz[0] = ghz[-1] = 1 / np.sqrt(2)
    psi = np.linalg.matrix_power(step, d) @ ghz
    dense = np.outer(psi, psi.conj())
    assert np.max(np.abs(ref.dense_from_blocks(ref.trotter_blocks(theta1, theta2, d), n) - dense)) < TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_check_two_angle_overlap_matches_dense(n):
    cfg = {"mode": "vista_multiparam", "n": n, "theta_true": 0.05, "theta2_true": 0.07, "gamma_true": 0.02,
           "multiparam": {"trotter_steps": 4}}
    raw, _ = checks.expected_raw_and_scale(cfg, [[0.06, 0.05]])
    rho = ref.dense_lindblad_state(n, 0.05, 0.07, 0.02, "dephasing")
    sigma = ref.dense_from_blocks(ref.trotter_blocks(0.06, 0.05, 4), n)
    assert abs(raw[0] - _dense_trace(rho, sigma)) < TOL


def test_overlap_broadcasts_over_rows_and_qubit_counts():
    probe = ref.probe_blocks(0.1, 0.03, "dephasing")
    thetas = np.array([0.0, 0.05, 0.2])
    ns = np.array([2, 5, 9])
    batched = ref.overlap(probe, ref.ansatz_blocks(thetas, 0.0, "none"), ns)
    single = [ref.overlap(probe, ref.ansatz_blocks(t, 0.0, "none"), n) for t, n in zip(thetas, ns)]
    assert np.max(np.abs(batched - single)) < TOL


def test_self_check_passes():
    assert ref.self_check() < TOL
