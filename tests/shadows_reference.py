"""Former shadow samplers, kept to pin `collect_shadows` bitwise.

`reference_collect` groups shots by basis row, rotates one copy of the
state per distinct row with its own 2x2 products, and samples each shot by
searchsorted on that copy's outcome CDF.

`ReferenceWalk` is the chain-rule walk that replaced it: at each qubit it
rotates every distinct (row, letter) pair whole and reads each shot's b = 0
mass from the rotated half.
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


# Amplitudes per chunk of the reference walk's frontier, its own constant so
# that patching the sampler's chunk size leaves the reference as it was
BATCH_AMPS = 2**12


class ReferenceWalk:
    """The sampling walk of one `collect_shadows` call, qubit n - 1 first.

    A chunk of the frontier at qubit q is an array of rows (R, 2**(q + 1)),
    each the unnormalised part of the state consistent with one distinct
    prefix of (letter, outcome) pairs on qubits q + 1..n - 1, and the shots
    on those rows, a contiguous range of `order`.  `visit` fixes qubit q of
    a chunk's shots: shot s takes bit 1 exactly when u[s] >= lo[s] + m0, m0
    the squared norm of the b = 0 half of its rotated row and lo[s] the mass
    of all index-earlier outcomes.  Each distinct (row, letter) pair is
    rotated once, into the buffer of level q; its two halves are rows of the
    chunk that walks qubit q - 1, and that chunk is walked, depth first,
    when the buffer cannot take the next group.
    """

    def __init__(self, bases, u):
        shots, n = bases.shape
        self.bases, self.u = bases, u
        self.outcomes = np.empty((shots, n), dtype=np.int8)
        self.order = np.arange(shots)
        self.row = np.zeros(shots, dtype=np.int64)  # by shot: its row in its chunk
        self.lo = np.zeros(shots)                   # by shot: the mass before its outcome
        caps = [min(max(BATCH_AMPS >> q, 2), 2 * shots) for q in range(n)]
        ends = np.cumsum([cap << q for q, cap in enumerate(caps)]).tolist()
        space = np.empty(ends[-1] if n else 0, dtype=complex)
        self.buffers = [space[end - (cap << q):end].reshape(cap, 2**q)
                        for q, (cap, end) in enumerate(zip(caps, ends))]
        self.held = [0] * n
        self.start = [0] * n
        self.stop = [0] * n

    def run(self, amplitudes):
        n = len(self.buffers)
        if n and len(self.order):
            self.visit(n - 1, amplitudes[None], 0, len(self.order))
            for q in range(n - 1, 0, -1):
                if self.held[q]:
                    self.flush(q)
        return self.outcomes

    def flush(self, q):
        held, self.held[q] = self.held[q], 0
        start, self.start[q] = self.start[q], self.stop[q]
        self.visit(q - 1, self.buffers[q][:held], start, self.stop[q])

    def visit(self, q, rows, start, stop):
        half = 2**q
        shots = self.order[start:stop]
        keys = self.bases[:, q].astype(np.int64)[shots] * len(rows) + self.row[shots]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        shots[:] = shots[order]
        step = np.empty_like(keys)
        step[0] = 1
        np.subtract(keys[1:], keys[:-1], out=step[1:])
        first = np.flatnonzero(step)
        letter, src = np.divmod(keys[first], len(rows))
        first = first.tolist() + [len(keys)]
        del keys, order, step
        per_group = max(1, BATCH_AMPS >> (q + 1))
        buf = self.buffers[q]
        for a in range(0, len(src), per_group):
            b = min(a + per_group, len(src))
            if self.held[q] + 2 * (b - a) > len(buf):
                self.flush(q)
            at = self.held[q]
            out = buf[at:at + 2 * (b - a)].reshape(b - a, 2, half)
            reference_rotate(rows, src[a:b], letter[a:b], out)
            self.sample(q, out, shots[first[a]:first[b]], np.diff(first[a:b + 1]), at)
            if q:
                self.held[q] = at + 2 * (b - a)
                self.stop[q] = start + first[b]

    def sample(self, q, out, ids, counts, at):
        p = np.repeat(np.arange(len(out)), counts)
        zero = out[:, 0].view(float)
        lo, m0 = self.lo[ids], np.einsum("ij,ij->i", zero, zero)[p]
        bit = np.heaviside(self.u[ids] - (lo + m0), 1.0)
        self.outcomes[ids, q] = 1.0 - 2.0 * bit
        self.lo[ids] = lo + m0 * bit
        self.row[ids] = at + 2 * p + bit.astype(np.int64)


def reference_rotate(rows, src, letter, out):
    """Rows src (increasing within each letter) rotated by their `letter`, into `out`."""
    x_end, y_end = np.searchsorted(letter, [1, 2]).tolist()
    for mat, i, j in ((_BASIS_ROT[0], 0, x_end), (_BASIS_ROT[1], x_end, y_end)):
        if i < j:
            np.matmul(mat, _take_rows(rows, src[i:j]).reshape(out[i:j].shape), out=out[i:j])
    if y_end < len(src):
        out[y_end:] = _take_rows(rows, src[y_end:]).reshape(out[y_end:].shape)


def _take_rows(rows, idx):
    """rows[idx] for increasing `idx`; a view when the rows are consecutive."""
    if idx[-1] - idx[0] == len(idx) - 1:
        return rows[idx[0]:idx[-1] + 1]
    return rows[idx]


def reference_walk_collect(state, num_samples, seed):
    """`collect_shadows` by the rotate-every-pair walk; returns (bases, outcomes)."""
    rng = rng_for(seed)
    bases = rng.integers(0, 3, size=(num_samples, state.n), dtype=np.int8)
    u = rng.random(num_samples)
    return bases, ReferenceWalk(bases, u).run(state.amplitudes)
