"""Former shadow samplers, kept to pin `collect_shadows` bitwise.

`reference_collect` groups shots by basis row, rotates one copy of the
state per distinct row with its own 2x2 products, and samples each shot by
searchsorted on that copy's outcome CDF.

`PerRunWalk` is the chain-rule walk that `collect_shadows` runs, as it was
before each buffer fill took one child build: it builds the children of each
(letter, bit) run of a fill with their own product (`build_run`).
"""

import numpy as np

from qgenbench.seeding import rng_for
from qgenbench.shadows import _BASIS_ROT, _Walk, _zero_masses


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


class PerRunWalk(_Walk):
    """The walk with one child build per (letter, bit) run of each buffer
    fill, up to six per visit; `_Walk` builds each fill with one product."""

    def visit(self, q, rows, start, stop):
        count = len(rows)
        halves = rows.reshape(count, 2, 2**q)
        shots = self.order[start:stop]
        kind = self.bases[:, q].astype(np.int64)[shots]
        m0 = _zero_masses(halves).ravel()[kind * count + self.row[start:stop]]
        bit = self.lo[shots] + m0
        np.greater_equal(self.u[shots], bit, out=bit)
        self.outcomes[shots, q] = 1.0 - 2.0 * bit
        self.lo[shots] += m0 * bit
        if not q:
            return
        kind *= 2
        kind += bit.astype(np.int64)
        order = np.argsort(kind.astype(np.int16), kind="stable")
        shots[:] = shots[order]
        keys = (kind * count + self.row[start:stop])[order]
        group = np.empty_like(keys)
        group[0] = 1
        np.subtract(keys[1:], keys[:-1], out=group[1:])
        first = np.append(np.flatnonzero(group), len(keys))
        kind, src = np.divmod(keys[first[:-1]], count)
        np.cumsum(np.minimum(group, 1, out=group), out=group)
        buf, a = self.buffers[q], 0
        for last in np.flatnonzero(np.diff(kind)).tolist() + [len(kind) - 1]:
            letter, bit = divmod(int(kind[last]), 2)
            while a <= last:
                if self.held[q] == len(buf):
                    self.flush(q)
                at = self.held[q]
                b = min(last + 1, a + len(buf) - at)
                build_run(halves, src[a:b], letter, bit, buf[at:at + b - a])
                fa, fb = first[a], first[b]
                np.add(group[fa:fb], at - a - 1, out=self.row[start + fa:start + fb])
                self.held[q] = at + b - a
                self.stop[q] = start + int(fb)
                a = b


def build_run(halves, src, letter, bit, out):
    """out[i] = alpha * r0 + beta * r1 for the halves of row src[i] (src
    increasing), (alpha, beta) the `bit` row of the letter's rotation, the
    identity's for Z; views where the rows are consecutive."""
    rows = slice(src[0], src[-1] + 1) if src[-1] - src[0] == len(src) - 1 else src
    if letter == 2:
        out[...] = halves[rows, bit]
        return
    alpha, beta = _BASIS_ROT[letter][bit]
    np.multiply(halves[rows, 1], beta / alpha, out=out)  # beta / alpha is +-1 or +-i: exact
    out += halves[rows, 0]
    out *= alpha


def per_run_collect(state, num_samples, seed):
    """`collect_shadows` by the per-run walk; returns (bases, outcomes)."""
    rng = rng_for(seed)
    bases = rng.integers(0, 3, size=(num_samples, state.n), dtype=np.int8)
    u = rng.random(num_samples)
    return bases, PerRunWalk(bases, u).run(state.amplitudes)
