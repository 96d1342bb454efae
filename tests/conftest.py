"""Shared fixtures, random-matrix helpers, and the closed-form expansion that only the tests use."""

import numpy as np
import pytest


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim, rank=None):
    """Random density matrix from a Wishart draw; full rank unless capped."""
    rank = dim if rank is None else rank
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2


def qfi_ratio_ampdamp_expansion(n, gamma):
    """The paper's small-gamma expansion of ``analysis.qfi_ratio_ampdamp``: 1 - n(n+1) gamma^2 / 8."""
    return 1 - n * (n + 1) * gamma**2 / 8


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
