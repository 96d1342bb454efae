"""Probe evolution: closed forms vs the dense integrator, the circuit ansatz
matching conditions, the Trotter path for the non-commuting generator, and the
product-channel kernel against both."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from vista.errors import DimensionError, DomainError, NumericsError, UnsupportedModelError
from vista.dynamics import (
    CHANNEL_AMPDAMP,
    CHANNEL_DEPHASING,
    CHANNEL_NONE,
    CHANNELS,
    ChannelSpec,
    HamiltonianSpec,
    ansatz_factors,
    check_channel,
    circuit_decay,
    closed_form_density,
    closed_form_overlap,
    expm_small,
    ghz_product_overlap,
    lindblad_rk4_oracle,
    overlap_factors,
    product_channel_blocks,
    qubit_channel,
    single_qubit_lindbladian,
    trotter_unitary,
)
from vista.optimize import PHI_CLAMP
from vista.qcore import ghz_density, ghz_vector

from dense import (
    collective_operator,
    matched_angle,
    purity,
    trotter_evolve,
    trotter_step_power,
)


def _state(n, kind, theta, decay=0.0):
    """Dense GHZ state at phase theta whose qubits went through the channel ``kind`` at ``decay``."""
    return closed_form_density(n, theta, qubit_channel(kind, decay))


def _ansatz(n, theta_hat, phi, kind):
    """Dense circuit ansatz: phi sets the decay through cos(phi) = e^{-kappa}."""
    return _state(n, kind, theta_hat, circuit_decay(kind, phi))


class TestClosedForm:
    def test_dephasing_coherence_magnitude(self):
        corner = _state(1, CHANNEL_DEPHASING, 0.0, 0.2)[0, -1]
        assert abs(corner) == pytest.approx(0.5 * np.exp(-0.4), abs=1e-12)
        assert abs(corner) == pytest.approx(0.33516002, abs=1e-8)

    def test_coherence_phase_winding(self):
        # the corner element rotates 2n times faster than the bare angle
        for n, theta in [(1, 0.3), (4, 0.11)]:
            corner = _state(n, CHANNEL_NONE, theta)[0, -1]
            assert corner == pytest.approx(0.5 * np.exp(-2j * n * theta), abs=1e-12)

    def test_ampdamp_diagonal_half_life(self):
        # at gamma = ln 2 every excited qubit decays with probability 1/2, so the
        # binomial part is flat: 1/16 per string plus the extra 1/2 on the ground string
        diag = np.diag(_state(3, CHANNEL_AMPDAMP, 0.0, np.log(2))).real
        assert diag[0] == pytest.approx(0.5625, abs=1e-12)
        np.testing.assert_allclose(diag[1:], 0.0625, atol=1e-12)
        assert diag.sum() == pytest.approx(1.0, abs=1e-12)

    def test_ampdamp_coherence(self):
        expected = 0.5 * np.exp(-3 * 0.4 / 2) * np.exp(-2j * 3 * 0.05)
        assert _state(3, CHANNEL_AMPDAMP, 0.05, 0.4)[0, -1] == pytest.approx(expected, abs=1e-12)

    def test_time_scaling_folds_into_parameters(self):
        # evolving for t = 3 at (0.1, 0.05) reaches the closed form at (0.3, 0.15)
        slow = lindblad_rk4_oracle(
            ghz_density(2), HamiltonianSpec(0.1, t=3.0), ChannelSpec(CHANNEL_DEPHASING, 0.05), steps=600
        )
        assert np.abs(slow - _state(2, CHANNEL_DEPHASING, 0.3, 0.15)).max() < 1e-6

    @pytest.mark.parametrize("kind", [CHANNEL_DEPHASING, CHANNEL_AMPDAMP])
    def test_coherence_monotone_in_decay_and_size(self, kind):
        mags_g = [abs(_state(3, kind, 0.0, g)[0, -1]) for g in (0.0, 0.1, 0.3, 0.8)]
        assert all(a > b for a, b in zip(mags_g, mags_g[1:]))
        mags_n = [abs(_state(n, kind, 0.0, 0.2)[0, -1]) for n in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(mags_n, mags_n[1:]))

    def test_purity_formulas_match_dense(self):
        def closed_purity(n, kind, g):
            q = qubit_channel(kind, g)
            return closed_form_overlap(n, q, q, 0.0)

        deph = closed_purity(4, CHANNEL_DEPHASING, 0.15)
        assert deph == pytest.approx(purity(_state(4, CHANNEL_DEPHASING, 0.21, 0.15)), abs=1e-10)
        amp = closed_purity(5, CHANNEL_AMPDAMP, 0.3)
        assert amp == pytest.approx(purity(_state(5, CHANNEL_AMPDAMP, 0.07, 0.3)), abs=1e-10)
        strong = closed_purity(9, CHANNEL_AMPDAMP, 1.3)
        assert strong == pytest.approx(purity(_state(9, CHANNEL_AMPDAMP, 0.07, 1.3)), rel=0, abs=1e-13)

    def test_pure_purity_is_one(self):
        q = qubit_channel(CHANNEL_NONE, 0.0)
        assert closed_form_overlap(6, q, q, 0.0) == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            check_channel("squeezed", 0.0)
        with pytest.raises(DomainError):
            check_channel(CHANNEL_DEPHASING, -0.2)
        with pytest.raises(DomainError):
            check_channel(CHANNEL_NONE, 0.2)
        with pytest.raises(DimensionError):
            _state(0, CHANNEL_NONE, 0.1)

    def test_diagonal_materialization_guard(self):
        q = qubit_channel(CHANNEL_DEPHASING, 0.1)
        assert 0 < closed_form_overlap(15, q, q, 0.0) < 1  # the closed form itself is fine
        with pytest.raises(DimensionError):
            closed_form_density(15, 0.0, q)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            ChannelSpec("depolarizing")
        with pytest.raises(DomainError):
            ChannelSpec(CHANNEL_DEPHASING, -0.1)
        with pytest.raises(DomainError):
            ChannelSpec(CHANNEL_NONE, 0.1)
        with pytest.raises(DomainError):
            HamiltonianSpec(0.1, t=0.0)
        # nor is an evolution time that is not finite
        for t in (np.nan, np.inf):
            with pytest.raises(DomainError, match="finite"):
                HamiltonianSpec(0.1, t=t)
        # a decay that is not finite is refused by every channel, nan included
        for kind in CHANNELS:
            for gamma in (np.nan, np.inf, -np.inf):
                with pytest.raises(DomainError, match="finite"):
                    ChannelSpec(kind, gamma)


class TestAnsatzMatching:
    @pytest.mark.parametrize(
        "kind,gamma", [(CHANNEL_DEPHASING, 0.3), (CHANNEL_AMPDAMP, 0.25)]
    )
    def test_matched_circuit_reproduces_probe_exactly(self, kind, gamma):
        probe = _state(4, kind, 0.17, gamma)
        ansatz = _ansatz(4, 0.17, matched_angle(ChannelSpec(kind, gamma)), kind)
        np.testing.assert_allclose(ansatz, probe, atol=1e-12)

    def test_dephasing_coherence_is_cos_power(self):
        phi = 0.4
        corner = _ansatz(5, 0.0, phi, CHANNEL_DEPHASING)[0, -1]
        assert abs(corner) == pytest.approx(0.5 * np.cos(phi) ** 5, abs=1e-12)

    def test_ampdamp_mixing_weight(self):
        # alpha = sin^2(phi): binomial populations in cos^2 / sin^2
        phi = np.pi / 6
        diag = np.diag(_ansatz(2, 0.0, phi, CHANNEL_AMPDAMP)).real
        assert diag[0] == pytest.approx(0.5 * 0.25**2 + 0.5, abs=1e-12)  # 0.53125
        assert diag[1] == pytest.approx(0.5 * 0.75 * 0.25, abs=1e-12)
        assert diag[3] == pytest.approx(0.5 * 0.75**2, abs=1e-12)

    def test_zero_angle_is_pure(self):
        for kind in (CHANNEL_DEPHASING, CHANNEL_AMPDAMP):
            assert qubit_channel(kind, circuit_decay(kind, 0.0)) == qubit_channel(CHANNEL_NONE, 0.0)

    def test_pure_kind_rejects_nonzero_angle(self):
        # a pure ansatz has no disentangling angle to invert
        with pytest.raises(UnsupportedModelError):
            circuit_decay(CHANNEL_NONE, 0.1)

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedModelError):
            circuit_decay("depolarizing", 0.1)

    @pytest.mark.parametrize("kind", [CHANNEL_DEPHASING, CHANNEL_AMPDAMP])
    def test_angle_decay_round_trip(self, kind):
        for gamma in (0.01, 0.1, 0.5, 1.0):
            phi = matched_angle(ChannelSpec(kind, gamma))
            assert circuit_decay(kind, phi) == pytest.approx(gamma, abs=1e-12)
        for phi in (0.05, 0.3, 1.0, 1.4):
            g = circuit_decay(kind, phi)
            assert matched_angle(ChannelSpec(kind, g)) == pytest.approx(phi, abs=1e-12)

    def test_matched_angle_none_is_zero(self):
        assert matched_angle(ChannelSpec(CHANNEL_NONE)) == 0.0

    def test_decay_inversion_domain(self):
        with pytest.raises(DomainError):
            circuit_decay(CHANNEL_DEPHASING, 2.0)  # cos < 0
        with pytest.raises(UnsupportedModelError):
            circuit_decay(CHANNEL_NONE, 0.1)

    @pytest.mark.parametrize("kind", [CHANNEL_DEPHASING, CHANNEL_AMPDAMP])
    def test_decay_inversion_refuses_a_nan_angle(self, kind):
        # cos(nan) is nan, which no comparison with 0 lets through
        with pytest.raises(DomainError, match="positive"):
            circuit_decay(kind, float("nan"))


class TestAnsatzFactors:
    # 1e-300: cos rounds to 1.0, so the decay is -0.0
    PHIS = (-0.0, 0.0, 1e-300, 1e-3, PHI_CLAMP)

    @pytest.mark.parametrize("normalized", [False, True], ids=["plain", "quasi_normalized"])
    @pytest.mark.parametrize("n", [1, 2, 10, 24])
    @pytest.mark.parametrize("kind", [CHANNEL_DEPHASING, CHANNEL_AMPDAMP])
    def test_matches_the_closed_forms_to_the_bit(self, kind, n, normalized):
        for gamma in (0.0, 0.04):
            probe = qubit_channel(kind, gamma)
            at = ansatz_factors(n, kind, probe, normalized)
            for phi in self.PHIS:
                q = qubit_channel(kind, circuit_decay(kind, phi))
                pop, amp, purity = at(phi)
                assert (pop, amp) == overlap_factors(n, probe, q)
                assert purity == (closed_form_overlap(n, q, q, 0.0) if normalized else 1.0)

    def test_tiny_angle_decays_by_negative_zero(self):
        assert str(circuit_decay(CHANNEL_DEPHASING, 1e-300)) == "-0.0"

    @pytest.mark.parametrize("kind", [CHANNEL_DEPHASING, CHANNEL_AMPDAMP])
    def test_refuses_a_nan_angle(self, kind):
        at = ansatz_factors(4, kind, qubit_channel(kind, 0.04), True)
        with pytest.raises(DomainError, match="positive"):
            at(float("nan"))


class TestDense:
    def test_strong_damping_keeps_tiny_coherence(self):
        # populations pin to the ground state while the corner element, which
        # decays at half the rate exponent, stays resolvable
        rho = _state(1, CHANNEL_AMPDAMP, 0.0, 30.0)
        np.testing.assert_allclose(np.diag(rho).real, [1.0, 0.0], atol=1e-10)
        assert rho[0, 1] == pytest.approx(0.5 * np.exp(-15.0), rel=1e-12)

    def test_guard(self):
        with pytest.raises(DimensionError):
            _state(11, CHANNEL_DEPHASING, 0.0, 0.1)


class TestRk4Oracle:
    def test_stationary_without_generator(self):
        rho0 = ghz_density(3)
        rho = lindblad_rk4_oracle(rho0, HamiltonianSpec(0.0), ChannelSpec(CHANNEL_NONE), steps=100)
        np.testing.assert_allclose(rho, rho0, atol=1e-12)

    @pytest.mark.parametrize(
        "kind,gamma", [(CHANNEL_DEPHASING, 0.15), (CHANNEL_AMPDAMP, 0.15)]
    )
    def test_matches_closed_form(self, kind, gamma):
        ham = HamiltonianSpec(0.23)
        channel = ChannelSpec(kind, gamma)
        dense = lindblad_rk4_oracle(ghz_density(3), ham, channel, steps=500)
        closed = _state(3, kind, 0.23, gamma)
        assert np.abs(dense - closed).max() < 1e-6

    def test_single_qubit_damping_entries(self):
        # |+> driven by theta Z with amplitude damping: exactly solvable entries
        gamma, theta = 0.37, 0.4
        plus = np.full((2, 2), 0.5, dtype=complex)
        rho = lindblad_rk4_oracle(plus, HamiltonianSpec(theta), ChannelSpec(CHANNEL_AMPDAMP, gamma), steps=500)
        assert rho[1, 1].real == pytest.approx(0.5 * np.exp(-gamma), abs=1e-10)
        assert rho[0, 0].real == pytest.approx(1 - 0.5 * np.exp(-gamma), abs=1e-10)
        assert rho[0, 1] == pytest.approx(0.5 * np.exp(-gamma / 2) * np.exp(-2j * theta), abs=1e-10)

    def test_transverse_term_matches_exact_unitary(self):
        n = 2
        ham = HamiltonianSpec(theta_z=0.3, theta_x=0.2)
        h = 0.3 * collective_operator(n, "Z") + 0.2 * collective_operator(n, "X")
        u = expm(-1j * h)
        exact = u @ ghz_density(n) @ u.conj().T
        rho = lindblad_rk4_oracle(ghz_density(n), ham, ChannelSpec(CHANNEL_NONE), steps=400)
        assert np.abs(rho - exact).max() < 1e-9

    def test_transverse_with_damping_step_consistency(self):
        # no closed form here; the integrator must agree with itself across steps
        ham = HamiltonianSpec(theta_z=0.3, theta_x=0.2)
        channel = ChannelSpec(CHANNEL_AMPDAMP, 0.15)
        coarse = lindblad_rk4_oracle(ghz_density(2), ham, channel, steps=400)
        fine = lindblad_rk4_oracle(ghz_density(2), ham, channel, steps=4000)
        assert np.abs(coarse - fine).max() < 1e-9

    def test_step_floor(self):
        with pytest.raises(DomainError):
            lindblad_rk4_oracle(ghz_density(2), HamiltonianSpec(0.1), ChannelSpec(CHANNEL_NONE), steps=50)

    def test_trace_drift_detection(self):
        # absurd rate with a coarse grid: the integrator must refuse the result
        with pytest.raises(NumericsError, match="halve the step"):
            lindblad_rk4_oracle(
                ghz_density(1), HamiltonianSpec(0.1), ChannelSpec(CHANNEL_AMPDAMP, 500.0), steps=100
            )

    def test_nan_state_is_refused(self):
        # a nan state drifts by nan, which no bound on the drift can accept
        with pytest.raises(NumericsError, match="halve the step"):
            lindblad_rk4_oracle(ghz_density(2), HamiltonianSpec(np.nan), ChannelSpec(CHANNEL_NONE), steps=100)

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            lindblad_rk4_oracle(np.ones((2, 3)), HamiltonianSpec(0.1), ChannelSpec(CHANNEL_NONE))
        with pytest.raises(DimensionError):
            lindblad_rk4_oracle(np.eye(3) / 3, HamiltonianSpec(0.1), ChannelSpec(CHANNEL_NONE))


class TestTrotter:
    def test_commuting_generator_exact_in_one_step(self):
        psi = trotter_evolve(ghz_vector(2), HamiltonianSpec(0.4), d=1)
        exact = expm(-1j * 0.4 * collective_operator(2, "Z")) @ ghz_vector(2)
        np.testing.assert_allclose(psi, exact, atol=1e-12)

    def test_transverse_only_exact(self):
        psi = trotter_evolve(ghz_vector(2), HamiltonianSpec(0.0, 0.7), d=3)
        exact = expm(-1j * 0.7 * collective_operator(2, "X")) @ ghz_vector(2)
        np.testing.assert_allclose(psi, exact, atol=1e-12)

    def test_mixed_generator_accuracy_and_order(self):
        ham = HamiltonianSpec(0.3, 0.2)
        h = 0.3 * collective_operator(2, "Z") + 0.2 * collective_operator(2, "X")
        exact = expm(-1j * h) @ ghz_vector(2)

        def deficit(d):
            psi = trotter_evolve(ghz_vector(2), ham, d=d)
            return 1 - abs(np.vdot(exact, psi)) ** 2

        d64 = deficit(64)
        assert d64 < 1e-4  # fidelity >= 1 - 1e-4 at the default resolution
        # fidelity deficit is quadratic in the step, so doubling d quarters it
        assert deficit(128) <= 0.3 * d64

    def test_norm_preserved(self, rng):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        out = trotter_evolve(v, HamiltonianSpec(0.5, 0.3), d=16)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            trotter_evolve(ghz_vector(2), HamiltonianSpec(0.1), d=0)
        with pytest.raises(DimensionError):
            trotter_evolve(np.ones(3), HamiltonianSpec(0.1))


def _dense_from_blocks(blocks, n):
    rho = 0
    for a in range(2):
        for b in range(2):
            term = np.ones((1, 1), dtype=complex)
            for _ in range(n):
                term = np.kron(term, blocks[a, b])
            rho = rho + term
    return 0.5 * rho


class TestProductChannel:
    @settings(max_examples=60, deadline=None)
    @given(
        theta_z=st.floats(min_value=-3.0, max_value=3.0),
        theta_x=st.floats(min_value=-3.0, max_value=3.0),
        gamma=st.floats(min_value=0.0, max_value=2.0),
        kind=st.sampled_from([CHANNEL_DEPHASING, CHANNEL_AMPDAMP]),
        t=st.floats(min_value=0.05, max_value=4.0),
    )
    # gamma = 0: L is normal with the eigenvalue 0 repeated
    @example(theta_z=0.3, theta_x=0.2, gamma=0.0, kind=CHANNEL_DEPHASING, t=1.0)
    @example(theta_z=0.0, theta_x=0.0, gamma=0.0, kind=CHANNEL_DEPHASING, t=1.0)
    def test_exponential_matches_scipy(self, theta_z, theta_x, gamma, kind, t):
        gen = t * single_qubit_lindbladian(HamiltonianSpec(theta_z, theta_x), ChannelSpec(kind, gamma))
        np.testing.assert_allclose(expm_small(gen), expm(gen), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("kind", [CHANNEL_NONE, CHANNEL_DEPHASING, CHANNEL_AMPDAMP])
    def test_blocks_match_rk4_probe(self, kind):
        ham = HamiltonianSpec(theta_z=0.3, theta_x=0.2)
        channel = ChannelSpec(kind, 0.0 if kind == CHANNEL_NONE else 0.15)
        dense = lindblad_rk4_oracle(ghz_density(3), ham, channel, steps=1000)
        assert np.abs(_dense_from_blocks(product_channel_blocks(ham, channel), 3) - dense).max() < 1e-12

    def test_trotter_factor_matches_dense_trotter(self):
        ham = HamiltonianSpec(0.3, -0.2)
        u = trotter_unitary(ham, d=5)
        ghz_rho = _dense_from_blocks(np.einsum("ia,jb->abij", u, u.conj()), 3)
        psi = trotter_evolve(ghz_vector(3), ham, d=5)
        np.testing.assert_allclose(ghz_rho, np.outer(psi, psi.conj()), atol=1e-14)
        with pytest.raises(DomainError):
            trotter_unitary(ham, d=0)

    def test_trotter_factor_matches_the_step_raised_to_the_power(self):
        # the closed rotation against one step multiplied out d times, over random angles and depths; the
        # reference's d <= 80 unitary 2x2 products round to about 4 d eps (7e-14), hence 1e-13
        rng = np.random.default_rng(5)
        zeros = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 1.3), (-0.0, -1.3), (0.7, 0.0), (-0.7, -0.0)]
        negative_w = 0
        for trial in range(400):
            d = 1 if trial % 4 == 0 else int(rng.integers(1, 81))
            values = np.concatenate([zeros, rng.uniform(-2.0, 2.0, size=(12, 2))])
            u = trotter_unitary(HamiltonianSpec(values[:, 0], values[:, 1]), d)
            for k, (a, b) in enumerate(values.tolist()):
                np.testing.assert_allclose(u[k], trotter_step_power(HamiltonianSpec(a, b), d), rtol=0, atol=1e-13)
            # w = cos(theta_z tau) cos(theta_x tau) < 0 takes the rotation past a quarter turn in one step
            negative_w += int(np.sum(np.cos(values[:, 0] / d) * np.cos(values[:, 1] / d) < 0))
        assert negative_w >= 100
        # no rotation: exactly the identity, up to the signs of its zeros
        assert np.array_equal(trotter_unitary(HamiltonianSpec(0.0, 0.0), 80), np.eye(2))

    @pytest.mark.parametrize("kind", CHANNELS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_overlap_matches_dense_overlap(self, kind, n):
        # <psi|rho|psi> of the dense probe and the dense Trotter state, for angles that do not commute
        rng = np.random.default_rng(20 + n)
        for _ in range(6):
            channel = ChannelSpec(kind, 0.0 if kind == CHANNEL_NONE else float(rng.uniform(0.05, 0.5)))
            blocks = product_channel_blocks(HamiltonianSpec(*rng.uniform(-1.5, 1.5, 2)), channel)
            ansatz, d = HamiltonianSpec(*rng.uniform(-1.5, 1.5, 2)), int(rng.integers(1, 20))
            psi = trotter_evolve(ghz_vector(n), ansatz, d=d)
            dense = np.vdot(psi, _dense_from_blocks(blocks, n) @ psi).real
            assert ghz_product_overlap(blocks, trotter_step_power(ansatz, d), n) == pytest.approx(dense, abs=1e-13)
            assert ghz_product_overlap(blocks, trotter_unitary(ansatz, d), n) == pytest.approx(dense, abs=1e-13)

    def test_stacked_kernel_matches_rows_to_the_bit(self):
        # every row of a stacked evaluation holds the bits of its scalar one, over n, depth and channel
        rng = np.random.default_rng(12)
        rows = 0
        for trial in range(240):
            kind = CHANNELS[trial % len(CHANNELS)]
            gamma = 0.0 if kind == CHANNEL_NONE else float(rng.uniform(0.0, 0.5))
            blocks = product_channel_blocks(HamiltonianSpec(*rng.uniform(-1.5, 1.5, 2)), ChannelSpec(kind, gamma))
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 80))
            values = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 45)), 2))
            values[0, trial % 2] = (0.0, -0.0)[trial % 4 // 2]  # signed zeros reach the rotation and the products
            u = trotter_unitary(HamiltonianSpec(values[:, 0], values[:, 1]), d)
            overlaps = ghz_product_overlap(blocks, u, n)
            assert u.shape == (len(values), 2, 2) and overlaps.shape == (len(values),)
            for k, (a, b) in enumerate(values.tolist()):
                row = trotter_unitary(HamiltonianSpec(a, b), d)
                assert row.shape == (2, 2) and u[k].tobytes() == row.tobytes()
                assert overlaps[k] == ghz_product_overlap(blocks, row, n)
            rows += len(values)
        assert rows >= 5000
        # a scalar spec is a stack of no rows
        u = trotter_unitary(HamiltonianSpec(0.3, -0.2), 7)
        assert u.tobytes() == trotter_unitary(HamiltonianSpec(np.array([0.3]), np.array([-0.2])), 7)[0].tobytes()
        assert ghz_product_overlap(blocks, u, 5) == ghz_product_overlap(blocks, u[None], 5)[0]

    @pytest.mark.parametrize("kind", CHANNELS)
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=64),
        gamma=st.floats(min_value=0.0, max_value=2.0),
        theta=st.floats(min_value=-1.5, max_value=1.5),
        theta_hat=st.floats(min_value=-1.5, max_value=1.5),
    )
    @example(n=64, gamma=0.01, theta=0.3, theta_hat=0.31)
    def test_closed_form_overlap_matches_kernel(self, kind, n, gamma, theta, theta_hat):
        # the commuting edge of the product-channel kernel against a pure ansatz
        channel = ChannelSpec(kind, 0.0 if kind == CHANNEL_NONE else gamma)
        probe, ansatz = qubit_channel(channel.kind, channel.gamma), qubit_channel(CHANNEL_NONE, 0.0)
        blocks = product_channel_blocks(HamiltonianSpec(theta), channel)
        kernel = ghz_product_overlap(blocks, trotter_unitary(HamiltonianSpec(theta_hat), 1), n)
        assert closed_form_overlap(n, probe, ansatz, theta - theta_hat) == pytest.approx(kernel, rel=0, abs=1e-12)
