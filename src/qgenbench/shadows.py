"""Classical shadows from random single-qubit Pauli-basis measurements.

Each shot draws a uniform basis letter per qubit, rotates that qubit into the
computational basis, and samples one bitstring.  Collection samples the bits
one qubit at a time, most significant first (qubit n - 1), by the chain rule:
a shot's row is the unnormalised part of the state consistent with the
(letter, outcome) pairs it has already fixed, and one row serves every shot
that shares that prefix.  At qubit q each distinct (row, letter) pair is
rotated once on its top qubit (Z takes no product); the squared norm of the
b = 0 half of the result decides each shot's bit against its uniform draw,
and the chosen half is its row for qubit q - 1.  Rows halve at every level,
so depth k costs at most min(6**k, shots) rows of 2**(n - k) amplitudes, and
no rotated 2**n state is built per basis combination.  The walk goes depth
first in chunks of `_BATCH_AMPS` amplitudes and holds one buffer per qubit,
a chunk or, where one row is larger, one row's two halves: 2.6 state sizes
at n = 16, 640 KB at n = 10.

The outcomes are those of inverse-CDF sampling on each shot's rotated state,
searchsorted(cumsum(p), u, side="right") with the CDF's last entry set to 1,
byte for byte, except where a draw lies within rounding of a CDF boundary:
the walk sums the same probabilities in blocks.

The standard inverse-channel estimators follow: a weight-k Pauli is
estimated by 3^k times the product of matching outcomes (zero on basis
mismatch), and a reduced state by averaging tensor products of
3|b><b| - Id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .pauli import PauliString
from .seeding import rng_for
from .statevector import StateVector

BASIS_LETTERS = "XYZ"

# Amplitudes per chunk of the sampling walk's frontier: one product rotates
# at most max(_BATCH_AMPS, one row) of them, and the walk keeps one buffer of
# that size per qubit.  At n = 10 that is ten 64 KB buffers; at n = 16 the
# top levels' rows dominate, 2.6 state sizes in all.  A larger chunk means
# fewer, larger products and more memory (n = 10, 2,000 shots: 109 chunks
# at 2**12, 30 at 2**14).
_BATCH_AMPS = 2**12

_SQ2 = 1.0 / np.sqrt(2.0)
# Rotation taking the measured basis' eigenstates to |0>, |1>; Z needs none
_BASIS_ROT = {
    0: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),          # X: H
    1: np.array([[_SQ2, -1j * _SQ2], [_SQ2, 1j * _SQ2]], dtype=complex),  # Y: H S^dag
}

# Single-qubit snapshot factors 3|b><b| - Id, indexed by 2*basis + outcome-bit
_SNAPSHOT_FACTORS = np.array([
    3.0 * np.outer(vec, vec.conj()) - np.eye(2)
    for vec in (np.array([_SQ2, _SQ2]), np.array([_SQ2, -_SQ2]),            # X
                np.array([_SQ2, 1j * _SQ2]), np.array([_SQ2, -1j * _SQ2]),  # Y
                np.array([1.0, 0.0]), np.array([0.0, 1.0]))                 # Z
])


@dataclass
class ShadowSet:
    """N shots of per-qubit bases (0=X,1=Y,2=Z) and outcomes (+1/-1)."""

    n: int
    bases: np.ndarray    # (N, n) int8
    outcomes: np.ndarray  # (N, n) int8

    def __post_init__(self):
        if self.bases.shape != self.outcomes.shape or self.bases.shape[1:] != (self.n,):
            raise ValueError("bases/outcomes must both be (N, n)")

    def __len__(self) -> int:
        return len(self.bases)


class _Walk:
    """The sampling walk of one `collect_shadows` call, qubit n - 1 first.

    A chunk of the frontier at qubit q is an array of rows (R, 2**(q + 1)),
    each the unnormalised part of the state consistent with one distinct
    prefix of (letter, outcome) pairs on qubits q + 1..n - 1, and the shots
    on those rows, a contiguous range of `order`.  `visit` fixes qubit q of
    a chunk's shots: shot s takes bit 1 exactly when u[s] >= lo[s] + m0, m0
    the squared norm of the b = 0 half of its rotated row and lo[s] the mass
    of all index-earlier outcomes, which is inverse-CDF sampling with qubit
    n - 1 as the most significant bit.  Each distinct (row, letter) pair is
    rotated once, into the buffer of level q; its two halves are rows of the
    chunk that walks qubit q - 1, and that chunk is walked, depth first,
    when the buffer cannot take the next group.  The chunks of sibling
    visits thus share a buffer, and the walk holds one buffer of
    max(`_BATCH_AMPS`, 2**(q + 1)) amplitudes per level.
    """

    def __init__(self, bases: np.ndarray, u: np.ndarray):
        shots, n = bases.shape
        self.bases, self.u = bases, u
        self.outcomes = np.empty((shots, n), dtype=np.int8)
        self.order = np.arange(shots)
        self.row = np.zeros(shots, dtype=np.int64)  # by shot: its row in its chunk
        self.lo = np.zeros(shots)                   # by shot: the mass before its outcome
        # by level q: room for one group's rotated rows, and never for more
        # than two rows per shot; views of one block, allocated and freed once
        caps = [min(max(_BATCH_AMPS >> q, 2), 2 * shots) for q in range(n)]
        ends = np.cumsum([cap << q for q, cap in enumerate(caps)]).tolist()
        space = np.empty(ends[-1] if n else 0, dtype=complex)
        self.buffers = [space[end - (cap << q):end].reshape(cap, 2**q)
                        for q, (cap, end) in enumerate(zip(caps, ends))]
        # by level q: rows held in its buffer, and their shots, order[start:stop]
        self.held = [0] * n
        self.start = [0] * n
        self.stop = [0] * n

    def run(self, amplitudes: np.ndarray) -> np.ndarray:
        n = len(self.buffers)
        if n and len(self.order):
            self.visit(n - 1, amplitudes[None], 0, len(self.order))
            for q in range(n - 1, 0, -1):
                if self.held[q]:
                    self.flush(q)
        return self.outcomes

    def flush(self, q: int) -> None:
        """Walk qubit q - 1 of the chunk held in level q's buffer, and empty it."""
        held, self.held[q] = self.held[q], 0
        start, self.start[q] = self.start[q], self.stop[q]  # ranges follow each other
        self.visit(q - 1, self.buffers[q][:held], start, self.stop[q])

    def visit(self, q: int, rows: np.ndarray, start: int, stop: int) -> None:
        """Fix qubit q of the shots order[start:stop], whose rows are `rows`.

        Makes no bool or int8 temporaries: numpy keeps up to seven freed
        buffers of each size under 1 KB, and small ones of varying sizes
        would stay allocated after the walk.
        """
        half = 2**q
        shots = self.order[start:stop]
        keys = self.bases[:, q].astype(np.int64)[shots] * len(rows) + self.row[shots]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        shots[:] = shots[order]
        # the (letter, row) pairs, X first, then Y, then Z, each in row order
        step = np.empty_like(keys)
        step[0] = 1
        np.subtract(keys[1:], keys[:-1], out=step[1:])
        first = np.flatnonzero(step)  # each pair's first shot
        letter, src = np.divmod(keys[first], len(rows))
        first = first.tolist() + [len(keys)]
        del keys, order, step
        per_group = max(1, _BATCH_AMPS >> (q + 1))
        buf = self.buffers[q]
        for a in range(0, len(src), per_group):
            b = min(a + per_group, len(src))
            if self.held[q] + 2 * (b - a) > len(buf):
                self.flush(q)
            at = self.held[q]
            out = buf[at:at + 2 * (b - a)].reshape(b - a, 2, half)
            _rotate(rows, src[a:b], letter[a:b], out)
            self.sample(q, out, shots[first[a]:first[b]], np.diff(first[a:b + 1]), at)
            if q:  # qubit 0 is the last: its halves are never walked
                self.held[q] = at + 2 * (b - a)
                self.stop[q] = start + first[b]

    def sample(self, q: int, out: np.ndarray, ids: np.ndarray, counts: np.ndarray,
               at: int) -> None:
        """Fix qubit q of the shots `ids`, counts[i] of them on the rotated
        rows out[i], whose halves are rows at + 2 * i + b of the next chunk."""
        p = np.repeat(np.arange(len(out)), counts)  # each shot's pair
        zero = out[:, 0].view(float)  # the b = 0 halves, as (re, im) pairs
        lo, m0 = self.lo[ids], np.einsum("ij,ij->i", zero, zero)[p]
        bit = np.heaviside(self.u[ids] - (lo + m0), 1.0)  # 1.0 where u >= lo + m0
        self.outcomes[ids, q] = 1.0 - 2.0 * bit
        self.lo[ids] = lo + m0 * bit
        self.row[ids] = at + 2 * p + bit.astype(np.int64)


def _rotate(rows, src, letter, out):
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


def collect_shadows(state: StateVector, num_samples: int, seed: int) -> ShadowSet:
    """Measure `num_samples` random-Pauli-basis shots of a fixed state.

    Draws the bases (num_samples, n) first, then one uniform u per shot, and
    samples each shot's bitstring by inverse CDF in index order from its
    rotated state's probabilities, one qubit at a time from qubit n - 1
    down (see `_Walk`).  The outcomes are those of
    searchsorted(cumsum(p), u, side="right") with the CDF's last entry set
    to 1, except where u lies within rounding of a CDF boundary, since the
    walk sums the same probabilities in blocks.  Deterministic given the
    seed; `state` is never written.
    """
    rng = rng_for(seed)
    n = state.n
    bases = rng.integers(0, 3, size=(num_samples, n), dtype=np.int8)
    u = rng.random(num_samples)
    return ShadowSet(n, bases, _Walk(bases, u).run(state.amplitudes))


def single_shot_values(shadows: ShadowSet, pauli: PauliString) -> np.ndarray:
    """Per-shot estimator values for one Pauli string (0 on basis mismatch)."""
    support = [q for q in range(pauli.n) if pauli.letter_index(q) != 0]
    vals = np.full(len(shadows), float(3 ** len(support)))
    for q in support:
        letter = pauli.letter_index(q) - 1  # X=0, Y=1, Z=2
        vals *= (shadows.bases[:, q] == letter) * shadows.outcomes[:, q]
    return vals


def estimate_pauli(shadows: ShadowSet, pauli: PauliString, groups: int = 10) -> float:
    """Median of `groups` group means of the single-shot estimator."""
    vals = single_shot_values(shadows, pauli)
    if groups <= 1:
        return float(np.mean(vals))
    means = [float(np.mean(chunk)) for chunk in np.array_split(vals, groups)]
    return float(np.median(means))


def estimate_rdm(shadows: ShadowSet, subsystem: Iterable[int]) -> np.ndarray:
    """Shadow estimate of the reduced state on `subsystem`.

    Hermitian with unit trace by construction, but not necessarily positive
    at finite sample size.  Shots with the same (basis, bit) on every kept
    qubit give the same snapshot, so each distinct snapshot is built once,
    all of them together with one broadcast product per kept qubit in
    reduce(np.kron)'s left-to-right association, then weighted by its shot
    count and summed in increasing order of its base-6 code.
    """
    keep = sorted(set(subsystem))
    if not keep:
        return np.ones((1, 1), dtype=complex)
    # one factor index 2*basis + bit per kept qubit, largest qubit first; as
    # the digits of a base-6 code (exact in int64 for up to 24 kept qubits)
    cols = keep[::-1]
    factors = 2 * shadows.bases[:, cols] + (1 - shadows.outcomes[:, cols]) // 2
    place = 6 ** np.arange(len(keep) - 1, -1, -1, dtype=np.int64)
    codes, counts = np.unique(factors.astype(np.int64) @ place, return_counts=True)
    per_qubit = _SNAPSHOT_FACTORS[codes[:, None] // place % 6]  # (K, kept, 2, 2)
    snapshots = per_qubit[:, 0]
    for j in range(1, len(keep)):
        dim = 2 * snapshots.shape[1]
        snapshots = (snapshots[:, :, None, :, None]
                     * per_qubit[:, j, None, :, None, :]).reshape(len(codes), dim, dim)
    # initial=0 sums in the order, and with the signed zeros, of adding each
    # weighted snapshot in turn to a zero matrix
    total = np.sum(counts[:, None, None] * snapshots, axis=0, initial=0)
    return total / len(shadows)


def shadows_to_csv(shadows: ShadowSet) -> str:
    header = [f"basis_{q}" for q in range(shadows.n)] + [f"out_{q}" for q in range(shadows.n)]
    lines = [",".join(header)]
    for b, o in zip(shadows.bases, shadows.outcomes):
        lines.append(",".join([BASIS_LETTERS[x] for x in b] + [str(int(x)) for x in o]))
    return "\n".join(lines) + "\n"
