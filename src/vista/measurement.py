"""Overlap estimation: swap-test shot noise on an exact overlap, and the loss it scores.

The comparison primitive between probe and ansatz is Tr(rho sigma).  A swap test
on nu shot pairs reports it through k ~ Binomial(nu, (1+Tr)/2) as
T-hat = 2k/nu - 1, which is unbiased with variance 4p(1-p)/nu.  T-hat is never
clipped; negative excursions are part of the statistics.  Any two closed-form
states, of any channel kinds, have an exact overlap
(``dynamics.closed_form_overlap`` of their qubits' (p, kappa) and phases).
Quasi-normalization divides by the square root of the ansatz purity, which is
always computed exactly as the ansatz's overlap with itself, never sampled.

Shots are drawn one way: ``binomial_fraction`` on a numpy generator.  In the
package that is a row's kept generator of an ``rng.Streams``, which the loss
closure of ``protocols`` moves to the row's streams.  ``loss`` scores one
evaluation from plain numbers: the exact overlap, the generator its shots
are drawn from (None when exact), the shot count and the ansatz purity.  The
run loop calls it once per row and evaluation.
"""

import math

import numpy as np

from .config import NORM_PLAIN, NORM_QN
from .dynamics import CHANNEL_DEPHASING, qubit_channel
from .errors import DomainError


def binomial_fraction(gen, shots, p):
    """k/shots with k ~ Binomial(shots, p) drawn from ``gen``; p is clipped only against float dust."""
    if shots < 1 or shots % 1:  # numpy draws Binomial(2, p) for 2.5 shots; nan and inf leave a nan remainder
        raise DomainError(f"need a whole number of shots >= 1, got {shots}")
    if not -1e-9 <= p <= 1 + 1e-9:  # also rejects nan
        raise DomainError(f"probability {p} outside [0, 1]")
    return gen.binomial(shots, 0.0 if p < 0.0 else 1.0 if p > 1.0 else p) / shots


def loss(raw, gen, shots=None, purity=1.0, mode=NORM_PLAIN):
    """1 - T-hat (plain) or 1 - T-hat / sqrt(purity) (quasi-normalized).

    T-hat is the exact overlap ``raw`` when ``gen`` is None, else the swap-test
    estimate 2 * binomial_fraction(gen, shots, (1 + raw) / 2) - 1 from ``shots``
    pairs drawn from the generator ``gen``.  The quasi-normalized loss is not
    capped: it falls below 0 when T-hat exceeds sqrt(purity).
    """
    # refuse the mode and the purity before the shots advance ``gen``
    if mode != NORM_PLAIN:
        if mode != NORM_QN:
            raise DomainError(f"unknown loss mode {mode!r}")
        if not 0 < purity <= 1 + 1e-12:
            raise DomainError(f"ansatz purity {purity} outside (0, 1]")
    t_hat = raw if gen is None else 2 * binomial_fraction(gen, shots, (1 + raw) / 2) - 1
    return 1.0 - t_hat if mode == NORM_PLAIN else 1.0 - t_hat / math.sqrt(purity)


def parity_probability(n, theta, gamma, t, kind=CHANNEL_DEPHASING):
    """P(+1) of the all-X stabilizer on a GHZ probe under the channel ``kind`` at time t (a float or an array).

    Only the corner coherence carries the parity, so the fringe decays as e^{-n kappa t}
    with kappa the channel's coherence decay at ``gamma``.
    """
    kappa = qubit_channel(kind, gamma)[1]

    def at(t):
        if not 0 <= t < math.inf:  # a NaN fails the comparison too
            raise DomainError(f"time must be finite and >= 0, got {t}")
        return 0.5 * (1 + math.exp(-n * kappa * t) * math.cos(2 * n * theta * t))

    return np.vectorize(at, otypes=[float])(t)[()]
