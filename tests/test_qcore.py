"""Dense register helpers: entangled-state construction, collective operators,
Hilbert-Schmidt traces and the validity checks they rely on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vista.errors import DimensionError, DomainError, NumericsError
from vista.qcore import (
    OPERATOR_QUBIT_GUARD,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    SIGMA_MINUS,
    VECTOR_QUBIT_GUARD,
    bit_weights,
    ghz_density,
    ghz_vector,
)

from conftest import random_density, random_hermitian, random_state
from dense import (
    ATOL,
    Bitstring,
    apply_all_x,
    assert_density_matrix,
    collective_operator,
    is_hermitian,
    kron,
    purity,
    tensor_pauli,
    trace_product,
)


class TestBitstring:
    def test_msb_first_convention(self):
        # index 4 on three qubits is |100>: qubit 0 carries the top bit
        assert Bitstring.from_index(3, 4).bits == (1, 0, 0)
        assert Bitstring.from_index(3, 1).bits == (0, 0, 1)

    def test_weight(self):
        assert Bitstring(4, (1, 0, 1, 1)).weight == 3
        assert Bitstring(2, (0, 0)).weight == 0

    @given(st.integers(min_value=1, max_value=10), st.data())
    def test_index_round_trip(self, n, data):
        index = data.draw(st.integers(min_value=0, max_value=2**n - 1))
        assert Bitstring.from_index(n, index).index == index

    def test_rejects_bad_bits(self):
        with pytest.raises(DimensionError):
            Bitstring(2, (0, 2))
        with pytest.raises(DimensionError):
            Bitstring(3, (0, 1))

    def test_bit_weights_small(self):
        assert bit_weights(2).tolist() == [0, 1, 1, 2]
        assert bit_weights(1).tolist() == [0, 1]

    def test_bit_weights_matches_popcount(self):
        w = bit_weights(6)
        assert w.tolist() == [bin(i).count("1") for i in range(64)]


class TestGhz:
    def test_single_qubit_is_plus_state(self):
        v = ghz_vector(1)
        np.testing.assert_allclose(v, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_two_qubit_support(self):
        v = ghz_vector(2)
        assert np.flatnonzero(v).tolist() == [0, 3]
        np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=ATOL)

    def test_density_is_pure(self):
        rho = ghz_density(3)
        assert_density_matrix(rho)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_vector_guards(self):
        with pytest.raises(DimensionError):
            ghz_vector(0)
        with pytest.raises(DimensionError):
            ghz_vector(VECTOR_QUBIT_GUARD + 1)

    def test_density_guard(self):
        with pytest.raises(DimensionError):
            ghz_density(OPERATOR_QUBIT_GUARD + 1)

    def test_all_x_leaves_ghz_invariant(self):
        v = ghz_vector(5)
        np.testing.assert_allclose(apply_all_x(v), v)

    def test_all_x_is_involutive(self, rng):
        v = random_state(rng, 16)
        np.testing.assert_allclose(apply_all_x(apply_all_x(v)), v)

    def test_all_x_maps_basis_index_to_complement(self):
        v = np.zeros(8, dtype=complex)
        v[2] = 1.0  # |010> -> |101>
        assert np.flatnonzero(apply_all_x(v)).tolist() == [5]


class TestKron:
    def test_identity_factors(self):
        np.testing.assert_allclose(kron(PAULI_I, PAULI_I), np.eye(4))

    def test_x_tensor_z_entries(self):
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, -1],
                [1, 0, 0, 0],
                [0, -1, 0, 0],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(kron(PAULI_X, PAULI_Z), expected)

    def test_operator_size_guard(self):
        with pytest.raises(DimensionError):
            kron(np.eye(64), np.eye(32))

    def test_vectors_bypass_operator_guard(self):
        a = np.ones(64) / 8.0
        out = kron(a, np.ones(32) / np.sqrt(32))
        assert out.shape == (2048,)

    def test_sigma_minus_is_lowering(self):
        # |1> -> |0>, |0> -> 0
        np.testing.assert_allclose(SIGMA_MINUS @ np.array([0, 1]), [1, 0])
        np.testing.assert_allclose(SIGMA_MINUS @ np.array([1, 0]), [0, 0])


class TestCollectiveOperators:
    def test_z_diagonal_counts_excitations(self):
        n = 3
        op = collective_operator(n, "Z")
        np.testing.assert_allclose(np.diag(op).real, n - 2 * bit_weights(n))
        assert np.count_nonzero(op - np.diag(np.diag(op))) == 0

    def test_z_top_eigenvalue_on_ground_state(self):
        op = collective_operator(3, "Z")
        e0 = np.zeros(8)
        e0[0] = 1.0
        assert (e0 @ op @ e0).real == pytest.approx(3.0)

    def test_x_matches_explicit_sum(self):
        n = 3
        expected = (
            kron(kron(PAULI_X, PAULI_I), PAULI_I)
            + kron(kron(PAULI_I, PAULI_X), PAULI_I)
            + kron(kron(PAULI_I, PAULI_I), PAULI_X)
        )
        np.testing.assert_allclose(collective_operator(n, "X"), expected)

    @pytest.mark.parametrize("axis", ["Z", "X"])
    def test_hermitian(self, axis):
        assert is_hermitian(collective_operator(4, axis))

    def test_rejects_unknown_axis(self):
        with pytest.raises(DomainError):
            collective_operator(3, "Y")

    def test_size_guard(self):
        with pytest.raises(DimensionError):
            collective_operator(OPERATOR_QUBIT_GUARD + 1, "Z")

    def test_x_variance_on_ghz(self):
        # second moment of the collective X on the maximally entangled state:
        # the pair terms survive only when flipping every qubit, so the
        # variance is n for n >= 3 but 4 at n = 2
        for n in (3, 4, 5):
            rho = ghz_density(n)
            h = collective_operator(n, "X")
            mean = trace_product(rho, h)
            second = trace_product(rho, h @ h)
            assert mean == pytest.approx(0.0, abs=1e-12)
            assert second == pytest.approx(n, abs=1e-10)

    def test_x_variance_two_qubits_is_four(self):
        rho = ghz_density(2)
        h = collective_operator(2, "X")
        assert trace_product(rho, h @ h) == pytest.approx(4.0, abs=1e-12)

    def test_z_variance_gives_heisenberg_fisher_scaling(self):
        # var(Z_total) = n^2 on the GHZ state: 4*var is the n^2 information rate
        for n in (2, 3, 6):
            rho = ghz_density(n)
            h = collective_operator(n, "Z")
            var = trace_product(rho, h @ h) - trace_product(rho, h) ** 2
            assert 4 * var == pytest.approx(4 * n**2, rel=1e-12)


class TestTensorPauli:
    def test_parity_operator_diagonal(self):
        op = tensor_pauli(3, PAULI_Z)
        signs = (-1.0) ** bit_weights(3)
        np.testing.assert_allclose(np.diag(op).real, signs)

    def test_all_x_antidiagonal(self):
        op = tensor_pauli(2, PAULI_X)
        np.testing.assert_allclose(op, np.eye(4)[::-1])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_parity_commutation_alternates(self, n):
        # (X Z) = -(Z X) per factor, so X^n and Z^n commute for even n
        # and anticommute for odd n
        xs = tensor_pauli(n, PAULI_X)
        zs = tensor_pauli(n, PAULI_Z)
        if n % 2 == 0:
            np.testing.assert_allclose(xs @ zs - zs @ xs, 0, atol=1e-12)
        else:
            np.testing.assert_allclose(xs @ zs + zs @ xs, 0, atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(DimensionError):
            tensor_pauli(OPERATOR_QUBIT_GUARD + 1, PAULI_Z)


class TestTraceProduct:
    def test_pure_state_purity(self):
        assert purity(ghz_density(4)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_purity(self):
        assert purity(np.eye(8) / 8) == pytest.approx(1 / 8, abs=1e-12)

    def test_rotated_probe_orthogonality(self):
        # collective-Z rotation advances the coherence phase n times faster
        # than the bare angle; a quarter-period offset kills the overlap
        n, dtheta = 4, np.pi / 8

        def rotated(theta):
            phases = np.exp(-1j * theta * (n - 2 * bit_weights(n)))
            v = phases * ghz_vector(n)
            return np.outer(v, v.conj())

        overlap = trace_product(rotated(0.0), rotated(dtheta))
        assert overlap == pytest.approx(np.cos(n * dtheta) ** 2, abs=1e-12)
        assert overlap == pytest.approx(0.0, abs=1e-12)

    def test_symmetric(self, rng):
        a = random_density(rng, 8)
        b = random_density(rng, 8)
        assert trace_product(a, b) == pytest.approx(trace_product(b, a), rel=1e-12)

    def test_rejects_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            trace_product(np.eye(4), np.eye(8))
        with pytest.raises(DimensionError):
            trace_product(np.ones((2, 3)), np.ones((2, 3)))

    def test_rejects_non_hermitian(self, rng):
        bad = random_hermitian(rng, 4)
        bad[0, 1] += 1.0  # break the symmetry on one side only
        with pytest.raises(NumericsError):
            trace_product(bad, np.eye(4))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2**31 - 1))
    def test_purity_bounds(self, dim, seed):
        rho = random_density(np.random.default_rng(seed), dim)
        p = purity(rho)
        assert 1 / dim - 1e-10 <= p <= 1 + 1e-10


class TestDensityValidation:
    def test_accepts_random_density(self, rng):
        rho = random_density(rng, 8)
        assert assert_density_matrix(rho) is not None

    def test_rejects_wrong_trace(self):
        with pytest.raises(NumericsError, match="trace"):
            assert_density_matrix(2 * ghz_density(2))

    def test_rejects_non_hermitian(self):
        rho = ghz_density(2).copy()
        rho[0, 1] += 0.1j
        with pytest.raises(NumericsError, match="Hermitian"):
            assert_density_matrix(rho)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NumericsError, match="eigenvalue"):
            assert_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            assert_density_matrix(np.ones((2, 3)))
