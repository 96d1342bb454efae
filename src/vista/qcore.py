"""Dense building blocks for small qubit registers: one-qubit Paulis, GHZ states, basis weights.

The product-channel kernel, the dense closed-form state
(``dynamics.closed_form_density``) and the dense RK4 oracle build on these.
Conventions used everywhere in the package:

* computational-basis index is read with qubit 0 as the most significant bit,
* states are numpy complex vectors / row-major matrices,
* dense vectors are allowed up to ``VECTOR_QUBIT_GUARD`` qubits and dense
  operators up to ``OPERATOR_QUBIT_GUARD``; anything larger must stay in
  closed form, as a phase and each qubit's (p, kappa).
"""

import numpy as np

from .errors import DimensionError

VECTOR_QUBIT_GUARD = 14
OPERATOR_QUBIT_GUARD = 10

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|


def check_qubit_count(n, guard, what="object"):
    if not 1 <= int(n) <= guard:
        raise DimensionError(f"{what} supports 1..{guard} qubits, got n={n}")
    return int(n)


def bit_weights(n):
    """Hamming weight of every basis index of an n-qubit register."""
    n = check_qubit_count(n, VECTOR_QUBIT_GUARD, "bit_weights")
    idx = np.arange(2**n, dtype=np.uint64)
    w = np.zeros(2**n, dtype=np.int64)
    for j in range(n):
        w += ((idx >> np.uint64(j)) & np.uint64(1)).astype(np.int64)
    return w


def ghz_vector(n):
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    n = check_qubit_count(n, VECTOR_QUBIT_GUARD, "ghz_vector")
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return v


def ghz_density(n):
    n = check_qubit_count(n, OPERATOR_QUBIT_GUARD, "ghz_density")
    v = ghz_vector(n)
    return np.outer(v, v.conj())
