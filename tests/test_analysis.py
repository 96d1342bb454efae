"""Fisher-information quantities, shot-noise bound curves, scaling fits and
the decay-estimate calibration map."""

import numpy as np
import pytest

from vista.analysis import (
    BOUND_KINDS,
    CalibrationCurve,
    ScalingFit,
    crb_curve,
    curvature,
    fit_scaling,
    gamma_calibration,
    qfi_ratio_ampdamp,
)
from vista.dynamics import (
    CHANNEL_AMPDAMP,
    CHANNEL_DEPHASING,
    CHANNEL_NONE,
    closed_form_density,
    qubit_channel,
)
from vista.errors import CalibrationError, DimensionError, DomainError, NumericsError
from vista.qcore import bit_weights, ghz_density, ghz_vector

from conftest import qfi_ratio_ampdamp_expansion, random_density, random_hermitian
from dense import collective_operator, q_hs, qfi_uhlmann, trace_product


def _rotated_ghz(n, theta):
    phases = np.exp(-1j * theta * (n - 2 * bit_weights(n)))
    v = phases * ghz_vector(n)
    return np.outer(v, v.conj())


def _numeric_tangent(family, theta, h=1e-5):
    return (family(theta + h) - family(theta - h)) / (2 * h)


class TestQfiSpectral:
    def test_entangled_phase_probe_reaches_n_squared_rate(self):
        # collective-Z rotation of the 3-qubit probe: QFI = 4 n^2 = 36
        n = 3
        drho = _numeric_tangent(lambda t: _rotated_ghz(n, t), 0.1)
        assert qfi_uhlmann(_rotated_ghz(n, 0.1), drho) == pytest.approx(36.0, rel=1e-6)

    def test_transverse_rotation_rate_is_linear_in_n(self):
        # collective-X generator on the same probe only gives 4 n (n >= 3)
        n = 5
        h = collective_operator(n, "X")
        rho = ghz_density(n)
        drho = -1j * (h @ rho - rho @ h)
        assert qfi_uhlmann(rho, drho) == pytest.approx(4 * n, rel=1e-8)

    def test_fully_dephased_probe_carries_no_information(self):
        def family(t):
            return closed_form_density(3, t, qubit_channel(CHANNEL_DEPHASING, 10.0))

        drho = _numeric_tangent(family, 0.2)
        assert qfi_uhlmann(family(0.2), drho) == pytest.approx(0.0, abs=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            qfi_uhlmann(np.eye(4) / 4, np.zeros((2, 2)))

    def test_rejects_traceful_tangent(self):
        rho = ghz_density(2)
        with pytest.raises(NumericsError):
            qfi_uhlmann(rho, rho)

    def test_bounds_overlap_curvature_on_random_families(self, rng):
        # spectral information vs 2 * Tr[(drho)^2] for unitary encodings:
        # eigenvalue pairs sum to at most one, so the spectral form dominates
        for _ in range(50):
            dim = int(rng.integers(4, 13))
            rho = random_density(rng, dim)
            h = random_hermitian(rng, dim)
            drho = -1j * (h @ rho - rho @ h)
            q = qfi_uhlmann(rho, drho)
            q_hs_val = trace_product(drho, drho)
            assert q >= 2 * q_hs_val - 1e-6

    def test_pure_state_saturates_curvature_bound(self, rng):
        dim = 8
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        h = random_hermitian(rng, dim)
        drho = -1j * (h @ rho - rho @ h)
        assert qfi_uhlmann(rho, drho) == pytest.approx(2 * trace_product(drho, drho), rel=1e-4)


def _dense_family(n, kind, g):
    return lambda t: closed_form_density(n, t, qubit_channel(kind, g))


class TestOverlapCurvature:
    """``curvature`` of (p, kappa) pairs against the dense two-stencil curvature."""

    def test_matches_dephasing_closed_form(self):
        n, g = 3, 0.1
        qubit = qubit_channel(CHANNEL_DEPHASING, g)
        assert q_hs(_dense_family(n, CHANNEL_DEPHASING, g), 0.05) == pytest.approx(curvature(n, qubit, qubit), rel=1e-6)

    def test_matches_damped_probe_pure_ansatz_form(self):
        n, g = 4, 0.2
        got = q_hs(_dense_family(n, CHANNEL_AMPDAMP, g), 0.0, reference=_dense_family(n, CHANNEL_NONE, 0.0))
        want = curvature(n, qubit_channel(CHANNEL_AMPDAMP, g), qubit_channel(CHANNEL_NONE, 0.0))
        assert got == pytest.approx(want, rel=1e-6)
        assert want == pytest.approx(2 * n**2 * np.exp(-n * g / 2), rel=1e-15)

    def test_matches_quasi_normalized_forms(self):
        n, g = 3, 0.15
        for kind in (CHANNEL_DEPHASING, CHANNEL_AMPDAMP):
            qubit = qubit_channel(kind, g)
            got = q_hs(_dense_family(n, kind, g), 0.0, normalize=True)
            assert got == pytest.approx(curvature(n, qubit, qubit, normalized=True), rel=1e-6)

    def test_matches_dephased_probe_damped_ansatz(self):
        # a mixed pair no bound kind uses: the curvature holds for any two channels
        n, g_probe, g_ansatz = 3, 0.08, 0.3
        probe, ansatz = qubit_channel(CHANNEL_DEPHASING, g_probe), qubit_channel(CHANNEL_AMPDAMP, g_ansatz)
        family, reference = _dense_family(n, CHANNEL_DEPHASING, g_probe), _dense_family(n, CHANNEL_AMPDAMP, g_ansatz)
        for normalized in (False, True):
            got = q_hs(family, 0.1, reference=reference, normalize=normalized)
            assert got == pytest.approx(curvature(n, probe, ansatz, normalized), rel=1e-6)

    def test_invariant_under_fixed_rotation(self, rng):
        n, g = 3, 0.1
        u = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]

        def family(t):
            return u @ closed_form_density(n, t, qubit_channel(CHANNEL_DEPHASING, g)) @ u.conj().T

        qubit = qubit_channel(CHANNEL_DEPHASING, g)
        assert q_hs(family, 0.05) == pytest.approx(curvature(n, qubit, qubit), rel=1e-6)

    def test_detects_non_smooth_family(self):
        # a kink at the evaluation point makes the two stencils disagree
        def family(t):
            return _rotated_ghz(2, abs(t))

        with pytest.raises(NumericsError, match="stencils disagree"):
            q_hs(family, 0.0)

    def test_step_domain(self):
        with pytest.raises(DomainError):
            q_hs(lambda t: _rotated_ghz(2, t), 0.1, h=0.0)


class TestBoundCurves:
    @pytest.mark.parametrize("kind", BOUND_KINDS)
    def test_noiseless_limit_is_heisenberg_line(self, kind):
        ns = np.arange(1, 9)
        curve = crb_curve(kind, ns, 0.0, 1000)
        np.testing.assert_allclose(curve.values, 1 / (2 * ns * np.sqrt(1000)), rtol=1e-12)

    def test_reference_value(self):
        # the pure-ansatz dephasing bound at the scaling-study working point
        curve = crb_curve("pure_dephasing", [10], 0.005, 100000)
        expected = 1 / np.sqrt(2 * 100000 * 2 * 100 * np.exp(-2 * 10 * 0.005))
        assert curve.values[0] == pytest.approx(expected, rel=1e-12)
        assert curve.values[0] == pytest.approx(1.6622e-4, rel=1e-4)

    def test_noise_loosens_every_bound(self):
        for kind in BOUND_KINDS:
            lo = crb_curve(kind, [6], 0.01, 1000).values[0]
            hi = crb_curve(kind, [6], 0.2, 1000).values[0]
            assert hi > lo

    def test_qn_beats_unnormalized_dephasing(self):
        # renormalization recovers part of the contrast: tighter bound
        qn = crb_curve("qn_dephasing", [8], 0.05, 1000).values[0]
        plain = crb_curve("unnorm_dephasing", [8], 0.05, 1000).values[0]
        assert qn < plain

    def test_validation(self):
        for gamma in (-0.1, np.nan, np.inf):
            with pytest.raises(DomainError):
                crb_curve("pure_dephasing", [2], gamma, 1000)
        with pytest.raises(DomainError):
            crb_curve("qn_dephasing", [2, 4], np.nan, 100)
        with pytest.raises(DomainError):
            crb_curve("pure_dephasing", [2], 0.1, 0)
        with pytest.raises(DomainError):
            crb_curve("pure_dephasing", [], 0.1, 1000)
        with pytest.raises(DomainError):
            crb_curve("pure_dephasing", [0, 2], 0.1, 1000)
        with pytest.raises(DomainError):
            crb_curve("squeezed", [2], 0.1, 1000)

    @pytest.mark.parametrize("ns", [[np.nan, 3], [np.inf], [2.7, 3], [True, 2]], ids=["nan", "inf", "fraction", "bool"])
    def test_refuses_an_n_that_is_not_an_integer(self, ns):
        with pytest.raises(DomainError, match="n grid entry must be an integer"):
            crb_curve("pure_dephasing", ns, 0.1, 1000)

    def test_takes_integral_floats_as_n(self):
        assert crb_curve("pure_dephasing", [3.0, np.float64(4.0)], 0.1, 1000).ns.tolist() == [3, 4]

    @pytest.mark.parametrize("nu", [np.nan, np.inf])
    def test_refuses_a_non_finite_shot_count(self, nu):
        with pytest.raises(DomainError, match="nu must be finite"):
            crb_curve("pure_dephasing", [2], 0.1, nu)


class TestDampingRatio:
    def test_no_damping_no_penalty(self):
        assert qfi_ratio_ampdamp(10, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_expansion_value(self):
        assert qfi_ratio_ampdamp_expansion(10, 0.01) == pytest.approx(0.998625, abs=1e-12)

    def test_quadratic_expansion_remainder(self):
        # the neglected term is cubic with coefficient n(n-1)/8, visible both
        # in the small-gamma limit and at the working point gamma = 0.01
        n = 10
        g = 1e-4
        rem = qfi_ratio_ampdamp(n, g) - qfi_ratio_ampdamp_expansion(n, g)
        assert rem / g**3 == pytest.approx(n * (n - 1) / 8, rel=2e-3)
        rem_wp = qfi_ratio_ampdamp(n, 0.01) - qfi_ratio_ampdamp_expansion(n, 0.01)
        assert rem_wp == pytest.approx(1.2450e-5, rel=1e-3)
        assert rem_wp > 0

    def test_monotone_decreasing_in_gamma(self):
        gs = np.linspace(0.0, 0.3, 31)
        vals = qfi_ratio_ampdamp(8, gs)
        assert np.all(np.diff(vals) < 0)

    def test_ratio_stays_in_unit_interval(self):
        gs = np.linspace(0.0, 1.0, 21)
        vals = qfi_ratio_ampdamp(6, gs)
        assert np.all(vals <= 1.0 + 1e-12)
        assert np.all(vals > 0.0)


class TestScalingFit:
    def test_recovers_exact_power_law(self):
        ns = np.array([2, 4, 6, 8, 10])
        errors = 3.0 * ns**-0.9
        fit = fit_scaling(ns, errors)
        assert fit.exponent == pytest.approx(-0.9, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_tolerates_scatter(self, rng):
        ns = np.array([2, 4, 6, 8, 10, 12])
        errors = 0.5 * ns**-1.0 * np.exp(rng.normal(scale=0.05, size=ns.size))
        fit = fit_scaling(ns, errors)
        assert fit.exponent == pytest.approx(-1.0, abs=0.15)
        assert fit.r_squared > 0.9

    def test_validation(self):
        with pytest.raises(DomainError):
            fit_scaling([2, 4, 6], [0.1, 0.05, 0.03])
        with pytest.raises(DomainError):
            fit_scaling([2, 4, 6, 8], [0.1, -0.05, 0.03, 0.01])
        with pytest.raises(DomainError):
            fit_scaling([2, 4, 6, 8], [0.1, 0.05, 0.03])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_non_finite_points(self, bad, capfd):
        # a NaN error gave a NaN exponent, and a NaN n a LinAlgError with LAPACK noise on stderr
        for ns, errors in (([2, 4, 6, 8], [0.1, bad, 0.03, 0.01]), ([2, 4, bad, 8], [0.1, 0.05, 0.03, 0.01])):
            with pytest.raises(DomainError, match="finite positive"):
                fit_scaling(ns, errors)
        assert capfd.readouterr().err == ""


class TestCalibration:
    def test_identity_sweep(self):
        gt = np.array([0.02, 0.04, 0.06, 0.08, 0.1])
        curve = gamma_calibration(gt, gt.copy())
        assert curve(0.05) == pytest.approx(0.05, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_non_finite_pairs(self, bad):
        gt = [0.02, 0.04, 0.06]
        with pytest.raises(DomainError, match="finite"):
            gamma_calibration(gt, [0.02, bad, 0.06])
        with pytest.raises(DomainError, match="finite"):
            gamma_calibration([0.02, bad, 0.06], gt)

    def test_inverts_affine_bias(self):
        gt = np.array([0.02, 0.04, 0.06, 0.08, 0.1])
        curve = gamma_calibration(gt, 0.8 * gt)
        assert curve(0.8 * 0.07) == pytest.approx(0.07, abs=1e-12)

    def test_unsorted_input_accepted(self):
        curve = gamma_calibration([0.1, 0.02, 0.06], [0.09, 0.025, 0.055])
        assert curve(0.055) == pytest.approx(0.06, abs=1e-12)

    def test_clamps_outside_sweep(self):
        curve = gamma_calibration([0.02, 0.1], [0.03, 0.09])
        assert curve(0.0) == pytest.approx(0.02)
        assert curve(0.5) == pytest.approx(0.1)

    def test_refuses_non_monotone_sweep(self):
        with pytest.raises(CalibrationError):
            gamma_calibration([0.02, 0.04, 0.06], [0.03, 0.05, 0.045])

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            gamma_calibration([0.02], [0.03])
