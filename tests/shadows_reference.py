"""The former shadow sampler, kept to pin `collect_shadows` bitwise.

It rotates one copy of the state per basis combination (or per shot, above
REFERENCE_ENUMERATE_LIMIT combinations) and samples each shot by
searchsorted on that copy's outcome CDF.
"""

import numpy as np

from qgenbench import statevector as sv
from qgenbench.seeding import rng_for
from qgenbench.shadows import _BASIS_ROT

# The two-path sampler below enumerated basis combinations while 3**n was at
# most this, and rotated one state copy per shot above it.
REFERENCE_ENUMERATE_LIMIT = 20000


def reference_cdf(state, letters):
    """Outcome CDF of `state` measured in basis letters[q] at each qubit q,
    with its last entry set to 1."""
    amps = state.amplitudes.copy()
    for q in range(state.n):
        if letters[q] != 2:
            sv.apply_1q_inplace(amps, state.n, q, _BASIS_ROT[letters[q]])
    cdf = np.cumsum(np.abs(amps) ** 2)
    cdf[-1] = 1.0
    return cdf


def reference_collect(state, num_samples, seed):
    """Two-path sampler (per-combination enumeration, per-shot fallback);
    returns (bases, outcomes)."""
    rng = rng_for(seed)
    n = state.n
    bases = rng.integers(0, 3, size=(num_samples, n), dtype=np.int8)
    outcomes = np.empty((num_samples, n), dtype=np.int8)
    if num_samples == 0:
        return bases, outcomes
    u = rng.random(num_samples)
    bits = np.empty(num_samples, dtype=np.int64)
    if 3**n <= REFERENCE_ENUMERATE_LIMIT:
        combo = np.zeros(num_samples, dtype=np.int64)
        for q in range(n):
            combo = combo * 3 + bases[:, q]
        for cid in np.unique(combo):
            letters = []
            rest = int(cid)
            for _ in range(n):
                letters.append(rest % 3)
                rest //= 3
            letters = letters[::-1]  # letters[q] = basis at qubit q
            sel = combo == cid
            bits[sel] = np.searchsorted(reference_cdf(state, letters), u[sel], side="right")
    else:
        for i in range(num_samples):
            bits[i] = np.searchsorted(reference_cdf(state, bases[i]), u[i], side="right")
    for q in range(n):
        outcomes[:, q] = 1 - 2 * ((bits >> q) & 1)
    return bases, outcomes
