"""Overlap values, quasi-normalization, swap-test shot statistics and the
parity readout used by the non-variational baseline.

Shots are drawn through ``binomial_fraction`` and ``loss`` from
``stream(seed, *label)`` generators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vista.dynamics import (
    CHANNEL_AMPDAMP,
    CHANNEL_DEPHASING,
    CHANNEL_NONE,
    CHANNELS,
    ChannelSpec,
    HamiltonianSpec,
    circuit_decay,
    closed_form_density,
    closed_form_overlap,
    lindblad_rk4_oracle,
    qubit_channel,
)
from vista.config import NORM_PLAIN, NORM_QN
from vista.errors import DomainError
from vista.measurement import binomial_fraction, loss, parity_probability
from vista.qcore import PAULI_X, ghz_density
from vista.rng import stream

from dense import matched_angle, tensor_pauli, trace_product

# A closed-form state is (n, theta, (p, kappa)): the arguments of closed_form_density.


def _deph(n, theta, gamma):
    return n, theta, qubit_channel(CHANNEL_DEPHASING, gamma)


def _amp(n, theta, gamma):
    return n, theta, qubit_channel(CHANNEL_AMPDAMP, gamma)


def _pure(n, theta):
    return n, theta, qubit_channel(CHANNEL_NONE, 0.0)


def _ansatz(n, theta_hat, phi, kind):
    """The circuit ansatz: phi sets the decay through cos(phi) = e^{-kappa}."""
    return n, theta_hat, qubit_channel(kind, circuit_decay(kind, phi))


def _overlap(a, b):
    """Tr(rho_a rho_b) of two states of the same size."""
    (n, ta, qa), (_, tb, qb) = a, b
    return closed_form_overlap(n, qa, qb, ta - tb)


def _purity(state):
    return _overlap(state, state)


def _qn(probe, ansatz):
    """Quasi-normalized overlap: the raw overlap over the square root of the ansatz purity."""
    return _overlap(probe, ansatz) / np.sqrt(_purity(ansatz))


def _t_hat(raw, gen, shots):
    """Swap-test estimate of ``raw`` from ``shots`` pairs drawn from ``gen``."""
    return 2 * binomial_fraction(gen, shots, (1 + raw) / 2) - 1


class TestOverlapClosedForm:
    def test_dephased_pair_value(self):
        # 1 qubit, both decays 0.2, angles equal: (1/2)(1 + e^{-0.8})
        raw = _overlap(_deph(1, 0.3, 0.2), _deph(1, 0.3, 0.2))
        assert raw == pytest.approx(0.5 * (1 + np.exp(-0.8)), abs=1e-12)
        assert raw == pytest.approx(0.72466448, abs=1e-8)

    def test_pure_vs_damped_value(self):
        raw = _overlap(_pure(3, 0.0), _amp(3, 0.0, 0.2))
        assert raw == pytest.approx(0.759101080059102, abs=1e-12)

    def test_identical_pure_states_give_unity(self):
        raw = _overlap(_pure(5, 0.4), _pure(5, 0.4))
        assert raw == pytest.approx(1.0, abs=1e-12)
        assert _purity(_pure(5, 0.4)) == 1.0

    def test_matches_dense_trace_on_grid(self):
        cases = []
        for n in (1, 3):
            for th in (0.0, 0.11, 0.4):
                cases += [
                    (_pure(n, 0.0), _pure(n, th)),
                    (_pure(n, 0.0), _deph(n, th, 0.3)),
                    (_deph(n, 0.1, 0.1), _deph(n, th, 0.3)),
                    (_pure(n, 0.0), _amp(n, th, 0.3)),
                    (_amp(n, 0.1, 0.1), _amp(n, th, 0.3)),
                ]
        for probe, ansatz in cases:
            raw = _overlap(probe, ansatz)
            dense = trace_product(closed_form_density(*probe), closed_form_density(*ansatz))
            assert raw == pytest.approx(dense, abs=1e-10)

    def test_symmetric_in_raw_value(self):
        a, b = _deph(3, 0.05, 0.2), _deph(3, 0.21, 0.07)
        assert _overlap(a, b) == pytest.approx(_overlap(b, a), abs=1e-14)

    def test_dephased_and_damped_states_mix(self):
        for n in (1, 2, 3, 4):
            for (ta, ga), (tb, gb) in [((0.0, 0.1), (0.0, 0.1)), ((0.13, 0.4), (-0.2, 0.05))]:
                for probe, ansatz in [(_deph(n, ta, ga), _amp(n, tb, gb)), (_amp(n, ta, ga), _deph(n, tb, gb))]:
                    dense = trace_product(closed_form_density(*probe), closed_form_density(*ansatz))
                    assert _overlap(probe, ansatz) == pytest.approx(dense, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        kind_a=st.sampled_from(CHANNELS),
        kind_b=st.sampled_from(CHANNELS),
        ga=st.floats(min_value=0.0, max_value=1.0),
        gb=st.floats(min_value=0.0, max_value=1.0),
        ta=st.floats(min_value=-1.5, max_value=1.5),
        tb=st.floats(min_value=-1.5, max_value=1.5),
    )
    def test_cauchy_schwarz_bound(self, n, kind_a, kind_b, ga, gb, ta, tb):
        a = n, ta, qubit_channel(kind_a, 0.0 if kind_a == CHANNEL_NONE else ga)
        b = n, tb, qubit_channel(kind_b, 0.0 if kind_b == CHANNEL_NONE else gb)
        raw = _overlap(a, b)
        cap = np.sqrt(_purity(a) * _purity(b))
        assert -1e-12 <= raw <= cap + 1e-12


class TestQuasiNormalization:
    def test_matched_dephased_value(self):
        # raw and purity coincide for a matched pair, so QN = sqrt(purity)
        n, g = 10, 0.1
        probe, ansatz = _deph(n, 0.0, g), _deph(n, 0.0, g)
        expected = np.sqrt(0.5 * (1 + np.exp(-4 * n * g)))
        assert _qn(probe, ansatz) == pytest.approx(expected, abs=1e-12)
        raw = _overlap(probe, ansatz)
        assert loss(raw, None, purity=_purity(ansatz), mode=NORM_QN) == pytest.approx(1 - expected, abs=1e-12)

    def test_can_exceed_one(self):
        # the renormalized overlap is not capped at 1, so the QN loss goes below 0
        assert loss(1.0, None, purity=0.25, mode=NORM_QN) == -1.0

    def test_purity_domain(self):
        for purity in (0.0, -0.1, 1.2, float("nan")):
            with pytest.raises(DomainError, match="purity"):
                loss(0.5, None, purity=purity, mode=NORM_QN)
        assert loss(0.5, None, purity=1 + 1e-13, mode=NORM_QN) == pytest.approx(0.5)

    def test_angle_scan_peaks_at_true_angle(self):
        # QN overlap against a matched-decay ansatz is maximal exactly at the
        # probe angle on a millirad grid
        n, g = 4, 0.1
        probe = _deph(n, 0.0, g)
        phi = matched_angle(ChannelSpec(CHANNEL_DEPHASING, g))
        thetas = np.round(np.arange(-0.15, 0.1501, 1e-3), 12)
        qn = [_qn(probe, _ansatz(n, t, phi, CHANNEL_DEPHASING)) for t in thetas]
        assert thetas[int(np.argmax(qn))] == pytest.approx(0.0, abs=1e-12)

    def test_decay_scan_peaks_at_true_decay(self):
        # varying the disentangling angle at the true angle: QN is maximal at
        # the decay that matches the channel, which is what makes the noise
        # rate identifiable
        n, g = 4, 0.1
        probe = _deph(n, 0.0, g)
        grid = np.round(np.arange(0.02, 0.2501, 0.005), 12)
        qn = [
            _qn(probe, _ansatz(n, 0.0, matched_angle(ChannelSpec(CHANNEL_DEPHASING, gg)), CHANNEL_DEPHASING))
            for gg in grid
        ]
        assert grid[int(np.argmax(qn))] == pytest.approx(g, abs=1e-12)


class TestSwapTest:
    def test_exact_passthrough(self):
        raw = _overlap(_pure(2, 0.1), _pure(2, 0.3))
        assert loss(raw, None) == 1.0 - raw

    def test_unit_overlap_is_noiseless(self):
        for seed in range(5):
            assert _t_hat(1.0, stream(seed), 1000) == 1.0
            assert loss(1.0, stream(seed), 1000) == 0.0

    def test_negative_unit_overlap_is_noiseless(self):
        for seed in range(5):
            assert _t_hat(-1.0, stream(seed), 1000) == -1.0
            assert loss(-1.0, stream(seed), 1000) == 2.0

    def test_zero_overlap_noise_scale(self):
        # T-hat at raw 0 has variance 1/nu; 1000 independent seeds
        nu = 10000
        vals = np.array([_t_hat(0.0, stream(s, 3), nu) for s in range(1000)])
        assert abs(vals.std() - 0.01) < 0.0015
        assert abs(vals.mean()) < 4 * 0.01 / np.sqrt(1000)

    def test_unbiased_at_intermediate_overlap(self):
        nu, raw = 10000, 0.5
        vals = np.array([_t_hat(raw, stream(s, 7), nu) for s in range(400)])
        sigma = np.sqrt((1 - raw**2) / nu)
        assert abs(vals.mean() - raw) < 4 * sigma / np.sqrt(400)
        # loss draws the same shots
        assert [1.0 - loss(raw, stream(s, 7), nu) for s in range(5)] == pytest.approx(vals[:5].tolist(), abs=1e-15)

    def test_out_of_range_overlap_rejected(self):
        with pytest.raises(DomainError):
            loss(1.1, stream(0), 100)


class TestLoss:
    def test_exact_matched_pure_is_zero(self):
        raw = _overlap(_pure(4, 0.2), _pure(4, 0.2))
        assert loss(raw, None, mode=NORM_PLAIN) == pytest.approx(0.0, abs=1e-12)

    def test_plain_value(self):
        raw = _overlap(_deph(1, 0.3, 0.2), _deph(1, 0.3, 0.2))
        assert loss(raw, None, mode=NORM_PLAIN) == pytest.approx(1 - 0.5 * (1 + np.exp(-0.8)), abs=1e-12)

    def test_qn_floor_at_match(self):
        # plain loss bottoms out at 1 - purity; QN tightens that to 1 - sqrt(purity)
        n, g = 3, 0.1
        ansatz = _deph(n, 0.0, g)
        raw = _overlap(_deph(n, 0.0, g), ansatz)
        pur = 0.5 * (1 + np.exp(-4 * n * g))
        plain = loss(raw, None, purity=_purity(ansatz), mode=NORM_PLAIN)
        qn = loss(raw, None, purity=_purity(ansatz), mode=NORM_QN)
        assert plain == pytest.approx(1 - pur, abs=1e-12)
        assert qn == pytest.approx(1 - np.sqrt(pur), abs=1e-12)
        assert qn < plain

    def test_sampled_loss_deterministic(self):
        raw = _overlap(_deph(2, 0.0, 0.1), _deph(2, 0.05, 0.1))
        a = loss(raw, stream(11), 5000, mode=NORM_PLAIN)
        b = loss(raw, stream(11), 5000, mode=NORM_PLAIN)
        assert a == b

    def test_shot_floor(self):
        # fewer than one shot pair is a domain error, not a division by zero
        for shots in (0, -5):
            with pytest.raises(DomainError, match="shots"):
                loss(0.5, stream(1), shots)
            with pytest.raises(DomainError, match="shots"):
                loss(0.5, stream(1), shots, purity=0.5, mode=NORM_QN)

    def test_unknown_mode(self):
        raw = _overlap(_pure(2, 0.0), _pure(2, 0.0))
        with pytest.raises(DomainError):
            loss(raw, None, mode="renormalized")

    @pytest.mark.parametrize(
        "purity, mode, match",
        [(1.0, "bogus", "mode"), (0.0, NORM_QN, "purity"), (1.5, NORM_QN, "purity"), (float("nan"), NORM_QN, "purity")],
    )
    def test_refused_loss_draws_nothing(self, purity, mode, match):
        # a refused evaluation leaves its generator where it was
        gen = stream(5, 1, 3)
        with pytest.raises(DomainError, match=match):
            loss(0.2, gen, 100, purity, mode)
        fresh = stream(5, 1, 3)
        assert binomial_fraction(gen, 1000, 0.4) == binomial_fraction(fresh, 1000, 0.4)
        assert gen.bit_generator.random_raw(3).tolist() == fresh.bit_generator.random_raw(3).tolist()


class TestParity:
    def test_noiseless_start(self):
        assert parity_probability(2, 0.0, 0.0, 1.0) == pytest.approx(1.0)

    def test_value(self):
        expected = 0.5 * (1 + np.exp(-0.2) * np.cos(0.6))
        assert parity_probability(1, 0.3, 0.1, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_half_period_angle(self):
        # 2 n theta t = pi flips the fringe to its lower envelope
        n, g = 3, 0.05
        p = parity_probability(n, np.pi / (2 * n), g, 1.0)
        assert p == pytest.approx(0.5 * (1 - np.exp(-2 * n * g)), abs=1e-12)

    def test_vectorized_over_time(self):
        t = np.linspace(0.0, 2.0, 7)
        p = parity_probability(2, 0.4, 0.1, t)
        assert p.shape == t.shape
        np.testing.assert_allclose(p, 0.5 * (1 + np.exp(-0.4 * t) * np.cos(1.6 * t)), atol=1e-12)

    @pytest.mark.parametrize("t", [-0.5, -math.inf, math.inf, math.nan, np.array([0.0, math.nan])])
    def test_negative_or_non_finite_time_rejected(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NaN once slipped through as a numpy RuntimeWarning
            with pytest.raises(DomainError, match="time must be finite and >= 0"):
                parity_probability(3, 0.1, 0.1, t)

    def test_sample_exact_and_seeded(self):
        a = binomial_fraction(stream(5), 2500, 0.37)
        b = binomial_fraction(stream(5), 2500, 0.37)
        assert a == b
        assert 0 <= a <= 1

    @pytest.mark.parametrize("channel", [CHANNEL_NONE, CHANNEL_DEPHASING, CHANNEL_AMPDAMP])
    def test_matches_rk4_oracle(self, channel):
        # <X...X> of the evolved GHZ probe, from the dense master equation
        n, theta, t = 3, 0.2, 0.7
        gamma = 0.0 if channel == CHANNEL_NONE else 0.1
        rho = lindblad_rk4_oracle(ghz_density(n), HamiltonianSpec(theta_z=theta, t=t), ChannelSpec(channel, gamma), steps=400)
        oracle = 0.5 * (1 + np.trace(tensor_pauli(n, PAULI_X) @ rho).real)
        assert parity_probability(n, theta, gamma, t, channel) == pytest.approx(oracle, abs=1e-9)


class TestShotSampler:
    """Shot draws: ``binomial_fraction`` on ``stream(seed, *label)`` generators."""

    def test_reproducible(self):
        a, b = stream(42, 1, 2), stream(42, 1, 2)
        assert [binomial_fraction(a, 1000, 0.5) for _ in range(5)] == [
            binomial_fraction(b, 1000, 0.5) for _ in range(5)
        ]

    def test_spawned_streams_differ(self):
        draws = [binomial_fraction(stream(42, k), 100000, 0.5) for k in range(6)]
        assert len(set(draws)) > 1

    def test_shot_floor(self):
        with pytest.raises(DomainError):
            binomial_fraction(stream(0), 0, 0.5)

    @pytest.mark.parametrize("shots", [2.5, 1000.7, 1.5, float("nan"), float("inf"), np.float64(99.5)])
    def test_fractional_shot_counts_are_refused(self, shots):
        # numpy would draw Binomial(2, p) for 2.5 shots and the division by 2.5 would give 0.0, 0.4 or 0.8
        for draw in (lambda gen: binomial_fraction(gen, shots, 0.5), lambda gen: loss(0.0, gen, shots)):
            gen = stream(3)
            with pytest.raises(DomainError, match="whole number of shots"):
                draw(gen)
            assert gen.bit_generator.random_raw(2).tolist() == stream(3).bit_generator.random_raw(2).tolist()

    def test_whole_shot_counts_of_any_number_type_draw_alike(self):
        draws = {binomial_fraction(stream(4), shots, 0.3) for shots in (1000, 1000.0, np.int64(1000), np.float64(1000))}
        assert len(draws) == 1

    def test_probability_dust_tolerated(self):
        gen = stream(0)
        assert binomial_fraction(gen, 100, -1e-10) == 0.0
        assert binomial_fraction(gen, 100, 1 + 1e-10) == 1.0
        assert binomial_fraction(gen, 100, -0.0) == 0.0

    def test_probability_domain(self):
        gen = stream(0)
        with pytest.raises(DomainError):
            binomial_fraction(gen, 100, 1.01)
        with pytest.raises(DomainError):
            binomial_fraction(gen, 100, float("nan"))
