"""Overlap estimation: closed-form Hilbert-Schmidt products and swap-test shot noise.

The comparison primitive between probe and ansatz is Tr(rho sigma).  A swap test
on nu shot pairs reports it through k ~ Binomial(nu, (1+Tr)/2) as
T-hat = 2k/nu - 1, which is unbiased with variance 4p(1-p)/nu.  T-hat is never
clipped; negative excursions are part of the statistics.  Any two closed-form
states, of any channel kinds, have an exact overlap (``closed_form_overlap``).
Quasi-normalization divides by the square root of the ansatz purity, which is
always computed exactly from the closed form, never sampled.

``loss`` scores one evaluation from plain numbers: the exact overlap, the
generator its shots are drawn from (None when exact), the shot count and the
ansatz purity.  The run loop calls it once per row and evaluation, and builds
no state, overlap or sampler object for it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ClosedFormState, closed_form_overlap
from .errors import DimensionError, DomainError, UnsupportedModelError
from .rng import stream


class ShotSampler:
    """Single-owner seeded binomial sampler.

    Cloning with ``spawn`` derives an independent stream from the same master
    seed by extending the label key; identical (seed, key, shots) always
    reproduces identical draws.
    """

    def __init__(self, seed, shots, key=()):
        if shots < 1:
            raise DomainError(f"need shots >= 1, got {shots}")
        self.seed = int(seed)
        self.shots = int(shots)
        self.key = tuple(int(k) for k in key)
        self._gen = stream(self.seed, *self.key)

    def spawn(self, *labels):
        return ShotSampler(self.seed, self.shots, self.key + labels)

    def with_shots(self, shots):
        return ShotSampler(self.seed, shots, self.key)

    def binomial_fraction(self, p):
        return binomial_fraction(self._gen, self.shots, p)


def binomial_fraction(gen, shots, p):
    """k/shots with k ~ Binomial(shots, p) drawn from ``gen``; p is clipped only against float dust."""
    if not -1e-9 <= p <= 1 + 1e-9:  # also rejects nan
        raise DomainError(f"probability {p} outside [0, 1]")
    return gen.binomial(shots, min(max(float(p), 0.0), 1.0)) / shots


@dataclass(frozen=True)
class OverlapValue:
    """Exact overlap bundle: raw Tr(rho sigma), ansatz purity, and the QN value."""

    raw: float
    circuit_purity: float
    quasi_normalized: float

    def __post_init__(self):
        if not 0 < self.circuit_purity <= 1 + 1e-12:
            raise DomainError(f"circuit purity {self.circuit_purity} outside (0, 1]")


def hs_overlap_closed(probe, ansatz):
    """Tr(rho_probe rho_ansatz) for two closed-form states, with the ansatz purity."""
    if not isinstance(probe, ClosedFormState) or not isinstance(ansatz, ClosedFormState):
        raise UnsupportedModelError("hs_overlap_closed needs two closed-form states")
    if probe.n != ansatz.n:
        raise DimensionError(f"qubit counts differ: {probe.n} vs {ansatz.n}")
    raw = closed_form_overlap(probe.n, probe.qubit, ansatz.qubit, probe.theta - ansatz.theta)
    pur = ansatz.purity()
    return OverlapValue(float(raw), float(pur), float(raw / np.sqrt(pur)))


def quasi_normalize(overlap):
    """raw / sqrt(ansatz purity); the denominator is exact by construction."""
    return overlap.raw / np.sqrt(overlap.circuit_purity)


def swap_test_sample(overlap, sampler):
    """Unbiased shot estimate of the raw overlap; exact when sampler is None."""
    if sampler is None:
        return overlap.raw
    p = (1 + overlap.raw) / 2
    return 2 * sampler.binomial_fraction(p) - 1


LOSS_PLAIN = "plain"
LOSS_QN = "quasi_normalized"


def loss(raw, gen, shots=None, purity=1.0, mode=LOSS_PLAIN):
    """1 - T-hat (plain) or 1 - T-hat / sqrt(purity) (quasi-normalized).

    T-hat is the exact overlap ``raw`` when ``gen`` is None, else the swap-test
    estimate from ``shots`` pairs drawn from the generator ``gen``.
    """
    t_hat = raw if gen is None else 2 * binomial_fraction(gen, shots, (1 + raw) / 2) - 1
    if mode == LOSS_PLAIN:
        return 1.0 - t_hat
    if mode == LOSS_QN:
        return 1.0 - t_hat / math.sqrt(purity)
    raise DomainError(f"unknown loss mode {mode!r}")


def parity_probability(n, theta, gamma, t):
    """P(+1) of the all-X stabilizer on a dephased GHZ probe at time t (scalar or array)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("time must be >= 0")
    return 0.5 * (1 + np.exp(-2 * n * gamma * t) * np.cos(2 * n * theta * t))


def parity_sample(p, sampler):
    """Observed +1 fraction from shots; exact probability when sampler is None."""
    if sampler is None:
        return float(p)
    return sampler.binomial_fraction(p)
