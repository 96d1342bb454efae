"""Overlap values, quasi-normalization, swap-test shot statistics and the
parity readout used by the non-variational baseline."""

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
    ClosedFormState,
    HamiltonianSpec,
    circuit_ansatz_state,
    evolve_closed_form,
    to_dense,
)
from vista.errors import DimensionError, DomainError, UnsupportedModelError
from vista.measurement import (
    LOSS_PLAIN,
    LOSS_QN,
    OverlapValue,
    ShotSampler,
    hs_overlap_closed,
    loss,
    parity_probability,
    parity_sample,
    quasi_normalize,
    swap_test_sample,
)

from vista.rng import stream

from dense import matched_angle, trace_product


def _deph(n, theta, gamma):
    return evolve_closed_form(n, HamiltonianSpec(theta), ChannelSpec(CHANNEL_DEPHASING, gamma))


def _amp(n, theta, gamma):
    return evolve_closed_form(n, HamiltonianSpec(theta), ChannelSpec(CHANNEL_AMPDAMP, gamma))


def _pure(n, theta):
    return evolve_closed_form(n, HamiltonianSpec(theta), ChannelSpec(CHANNEL_NONE))


class TestOverlapClosedForm:
    def test_dephased_pair_value(self):
        # 1 qubit, both decays 0.2, angles equal: (1/2)(1 + e^{-0.8})
        ov = hs_overlap_closed(_deph(1, 0.3, 0.2), _deph(1, 0.3, 0.2))
        assert ov.raw == pytest.approx(0.5 * (1 + np.exp(-0.8)), abs=1e-12)
        assert ov.raw == pytest.approx(0.72466448, abs=1e-8)

    def test_pure_vs_damped_value(self):
        ov = hs_overlap_closed(_pure(3, 0.0), _amp(3, 0.0, 0.2))
        assert ov.raw == pytest.approx(0.759101080059102, abs=1e-12)

    def test_identical_pure_states_give_unity(self):
        ov = hs_overlap_closed(_pure(5, 0.4), _pure(5, 0.4))
        assert ov.raw == pytest.approx(1.0, abs=1e-12)
        assert ov.circuit_purity == 1.0

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
            ov = hs_overlap_closed(probe, ansatz)
            dense = trace_product(to_dense(probe), to_dense(ansatz))
            assert ov.raw == pytest.approx(dense, abs=1e-10)

    def test_symmetric_in_raw_value(self):
        a, b = _deph(3, 0.05, 0.2), _deph(3, 0.21, 0.07)
        assert hs_overlap_closed(a, b).raw == pytest.approx(hs_overlap_closed(b, a).raw, abs=1e-14)

    def test_dephased_and_damped_states_mix(self):
        for n in (1, 2, 3, 4):
            for (ta, ga), (tb, gb) in [((0.0, 0.1), (0.0, 0.1)), ((0.13, 0.4), (-0.2, 0.05))]:
                for probe, ansatz in [(_deph(n, ta, ga), _amp(n, tb, gb)), (_amp(n, ta, ga), _deph(n, tb, gb))]:
                    dense = trace_product(to_dense(probe), to_dense(ansatz))
                    assert hs_overlap_closed(probe, ansatz).raw == pytest.approx(dense, abs=1e-14)

    def test_rejects_size_mismatch(self):
        with pytest.raises(DimensionError):
            hs_overlap_closed(_pure(2, 0.0), _pure(3, 0.0))

    def test_rejects_non_closed_form(self):
        with pytest.raises(UnsupportedModelError):
            hs_overlap_closed(np.eye(4) / 4, _pure(2, 0.0))

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
        a = ClosedFormState(n, kind_a, ta, 0.0 if kind_a == CHANNEL_NONE else ga)
        b = ClosedFormState(n, kind_b, tb, 0.0 if kind_b == CHANNEL_NONE else gb)
        ov = hs_overlap_closed(a, b)
        cap = np.sqrt(a.purity() * b.purity())
        assert -1e-12 <= ov.raw <= cap + 1e-12


class TestQuasiNormalization:
    def test_matched_dephased_value(self):
        # raw and purity coincide for a matched pair, so QN = sqrt(purity)
        n, g = 10, 0.1
        ov = hs_overlap_closed(_deph(n, 0.0, g), _deph(n, 0.0, g))
        expected = np.sqrt(0.5 * (1 + np.exp(-4 * n * g)))
        assert ov.quasi_normalized == pytest.approx(expected, abs=1e-12)
        assert quasi_normalize(ov) == pytest.approx(expected, abs=1e-12)

    def test_can_exceed_one(self):
        # the renormalized overlap is not capped at 1
        ov = OverlapValue(raw=1.0, circuit_purity=0.25, quasi_normalized=2.0)
        assert quasi_normalize(ov) == pytest.approx(2.0)

    def test_purity_domain(self):
        with pytest.raises(DomainError):
            OverlapValue(raw=0.5, circuit_purity=0.0, quasi_normalized=0.0)
        with pytest.raises(DomainError):
            OverlapValue(raw=0.5, circuit_purity=1.2, quasi_normalized=0.5)

    def test_angle_scan_peaks_at_true_angle(self):
        # QN overlap against a matched-decay ansatz is maximal exactly at the
        # probe angle on a millirad grid
        n, g = 4, 0.1
        probe = _deph(n, 0.0, g)
        phi = matched_angle(ChannelSpec(CHANNEL_DEPHASING, g))
        thetas = np.round(np.arange(-0.15, 0.1501, 1e-3), 12)
        qn = [
            hs_overlap_closed(probe, circuit_ansatz_state(n, t, phi, CHANNEL_DEPHASING)).quasi_normalized
            for t in thetas
        ]
        assert thetas[int(np.argmax(qn))] == pytest.approx(0.0, abs=1e-12)

    def test_decay_scan_peaks_at_true_decay(self):
        # varying the disentangling angle at the true angle: QN is maximal at
        # the decay that matches the channel, which is what makes the noise
        # rate identifiable
        n, g = 4, 0.1
        probe = _deph(n, 0.0, g)
        grid = np.round(np.arange(0.02, 0.2501, 0.005), 12)
        qn = [
            hs_overlap_closed(
                probe,
                circuit_ansatz_state(
                    n, 0.0, matched_angle(ChannelSpec(CHANNEL_DEPHASING, gg)), CHANNEL_DEPHASING
                ),
            ).quasi_normalized
            for gg in grid
        ]
        assert grid[int(np.argmax(qn))] == pytest.approx(g, abs=1e-12)


class TestSwapTest:
    def test_exact_passthrough(self):
        ov = hs_overlap_closed(_pure(2, 0.1), _pure(2, 0.3))
        assert swap_test_sample(ov, None) == ov.raw

    def test_unit_overlap_is_noiseless(self):
        ov = OverlapValue(1.0, 1.0, 1.0)
        for seed in range(5):
            assert swap_test_sample(ov, ShotSampler(seed, 1000)) == 1.0

    def test_negative_unit_overlap_is_noiseless(self):
        ov = OverlapValue(-1.0, 1.0, -1.0)
        for seed in range(5):
            assert swap_test_sample(ov, ShotSampler(seed, 1000)) == -1.0

    def test_zero_overlap_noise_scale(self):
        # T-hat at raw 0 has variance 1/nu; 1000 independent seeds
        nu = 10000
        vals = np.array(
            [swap_test_sample(OverlapValue(0.0, 1.0, 0.0), ShotSampler(s, nu, key=(3,))) for s in range(1000)]
        )
        assert abs(vals.std() - 0.01) < 0.0015
        assert abs(vals.mean()) < 4 * 0.01 / np.sqrt(1000)

    def test_unbiased_at_intermediate_overlap(self):
        nu, raw = 10000, 0.5
        vals = np.array(
            [swap_test_sample(OverlapValue(raw, 1.0, raw), ShotSampler(s, nu, key=(7,))) for s in range(400)]
        )
        sigma = np.sqrt((1 - raw**2) / nu)
        assert abs(vals.mean() - raw) < 4 * sigma / np.sqrt(400)

    def test_out_of_range_overlap_rejected(self):
        with pytest.raises(DomainError):
            swap_test_sample(OverlapValue(1.1, 1.0, 1.1), ShotSampler(0, 100))


class TestLoss:
    def test_exact_matched_pure_is_zero(self):
        ov = hs_overlap_closed(_pure(4, 0.2), _pure(4, 0.2))
        assert loss(ov.raw, None, mode=LOSS_PLAIN) == pytest.approx(0.0, abs=1e-12)

    def test_plain_value(self):
        ov = hs_overlap_closed(_deph(1, 0.3, 0.2), _deph(1, 0.3, 0.2))
        assert loss(ov.raw, None, mode=LOSS_PLAIN) == pytest.approx(1 - 0.5 * (1 + np.exp(-0.8)), abs=1e-12)

    def test_qn_floor_at_match(self):
        # plain loss bottoms out at 1 - purity; QN tightens that to 1 - sqrt(purity)
        n, g = 3, 0.1
        ov = hs_overlap_closed(_deph(n, 0.0, g), _deph(n, 0.0, g))
        pur = 0.5 * (1 + np.exp(-4 * n * g))
        plain = loss(ov.raw, None, purity=ov.circuit_purity, mode=LOSS_PLAIN)
        qn = loss(ov.raw, None, purity=ov.circuit_purity, mode=LOSS_QN)
        assert plain == pytest.approx(1 - pur, abs=1e-12)
        assert qn == pytest.approx(1 - np.sqrt(pur), abs=1e-12)
        assert qn < plain

    def test_sampled_loss_deterministic(self):
        ov = hs_overlap_closed(_deph(2, 0.0, 0.1), _deph(2, 0.05, 0.1))
        a = loss(ov.raw, stream(11), 5000, mode=LOSS_PLAIN)
        b = loss(ov.raw, stream(11), 5000, mode=LOSS_PLAIN)
        assert a == b

    def test_unknown_mode(self):
        ov = hs_overlap_closed(_pure(2, 0.0), _pure(2, 0.0))
        with pytest.raises(DomainError):
            loss(ov.raw, None, mode="renormalized")


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

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            parity_probability(2, 0.1, 0.1, -0.5)

    def test_sample_exact_and_seeded(self):
        assert parity_sample(0.37, None) == 0.37
        a = parity_sample(0.37, ShotSampler(5, 2500))
        b = parity_sample(0.37, ShotSampler(5, 2500))
        assert a == b
        assert 0 <= a <= 1


class TestShotSampler:
    def test_reproducible(self):
        a = ShotSampler(42, 1000, key=(1, 2))
        b = ShotSampler(42, 1000, key=(1, 2))
        assert [a.binomial_fraction(0.5) for _ in range(5)] == [
            b.binomial_fraction(0.5) for _ in range(5)
        ]

    def test_spawn_extends_key(self):
        s = ShotSampler(42, 1000).spawn(1).spawn(2, 3)
        assert s.key == (1, 2, 3)
        assert s.seed == 42

    def test_spawned_streams_differ(self):
        base = ShotSampler(42, 100000)
        draws = [base.spawn(k).binomial_fraction(0.5) for k in range(6)]
        assert len(set(draws)) > 1

    def test_with_shots(self):
        s = ShotSampler(7, 100, key=(4,)).with_shots(2000)
        assert s.shots == 2000 and s.seed == 7 and s.key == (4,)

    def test_shot_floor(self):
        with pytest.raises(DomainError):
            ShotSampler(0, 0)

    def test_probability_dust_tolerated(self):
        s = ShotSampler(0, 100)
        assert s.binomial_fraction(-1e-10) == 0.0
        assert s.binomial_fraction(1 + 1e-10) == 1.0

    def test_probability_domain(self):
        s = ShotSampler(0, 100)
        with pytest.raises(DomainError):
            s.binomial_fraction(1.01)
        with pytest.raises(DomainError):
            s.binomial_fraction(float("nan"))
