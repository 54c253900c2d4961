"""The former shadow sampler, kept to pin `collect_shadows` bitwise.

It groups shots by basis row, rotates one copy of the state per distinct
row with its own 2x2 products, and samples each shot by searchsorted on
that copy's outcome CDF.
"""

import numpy as np

from qgenbench.seeding import rng_for
from qgenbench.shadows import _BASIS_ROT


def reference_cdf(state, letters):
    """Outcome CDF of `state` measured in basis letters[q] at each qubit q,
    with its last entry set to 1."""
    amps = state.amplitudes.copy()
    for q, letter in enumerate(letters):
        if letter != 2:  # axes (qubits above q, qubit q, qubits below q)
            view = amps.reshape((-1, 2, 2**q), copy=False)
            view[...] = np.matmul(_BASIS_ROT[letter], view)
    cdf = np.cumsum(np.abs(amps) ** 2)
    cdf[-1] = 1.0
    return cdf


def reference_collect(state, num_samples, seed):
    """CDF sampler, one CDF per distinct basis row; returns (bases, outcomes)."""
    rng = rng_for(seed)
    n = state.n
    bases = rng.integers(0, 3, size=(num_samples, n), dtype=np.int8)
    outcomes = np.empty((num_samples, n), dtype=np.int8)
    if num_samples == 0:
        return bases, outcomes
    u = rng.random(num_samples)
    bits = np.empty(num_samples, dtype=np.int64)
    rows, inverse = np.unique(bases, axis=0, return_inverse=True)
    for r, letters in enumerate(rows):
        sel = inverse == r
        bits[sel] = np.searchsorted(reference_cdf(state, letters), u[sel], side="right")
    for q in range(n):
        outcomes[:, q] = 1 - 2 * ((bits >> q) & 1)
    return bases, outcomes
