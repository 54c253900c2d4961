"""Classical shadows from random single-qubit Pauli-basis measurements.

Each shot draws a uniform basis letter per qubit, rotates that qubit into the
computational basis, and samples one bitstring.  Collection samples the bits
one qubit at a time, qubit n - 1 first, by the chain rule, in one depth-first
walk over the distinct (letter, outcome) prefixes (`_Walk`).  Each row's
b = 0 masses come in closed form from its halves, and each distinct child
row is built once, so depth k costs at most min(6**k, shots) rows of
2**(n - k) amplitudes.  The outcomes are those of inverse-CDF sampling on
each shot's rotated state, searchsorted(cumsum(p), u, side="right") with the
CDF's last entry set to 1, byte for byte, except where a draw lies within
rounding of a CDF boundary: the walk reaches the same probabilities by other
sums and products.

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

# Amplitudes per chunk of the sampling walk: one product builds at most
# max(_BATCH_AMPS, one row) of them, and each level keeps a buffer of that
# size, 1.5 state sizes in all at n = 16 with 20 shots and 2.3 with 2,000.
# A larger chunk means fewer visits and more memory (n = 10, 2,000 shots:
# 58 visits and 0.57 MB of buffers at 2**12, 32 and 1.0 MB at 2**13, 19 and
# 1.7 MB at 2**14).
_BATCH_AMPS = 2**13

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
    on those rows, a range of `order` along which their rows never decrease.
    `visit` fixes qubit q of a chunk's shots: shot s takes bit 1 exactly
    when u[s] >= lo[s] + m0, m0 the b = 0 mass of its row in its letter's
    basis (`_zero_masses`) and lo[s] the mass of all index-earlier outcomes,
    which is inverse-CDF sampling with qubit n - 1 as the most significant
    bit.  Each distinct (letter, bit, row) child is then built once
    (`_build_children`) into the buffer of level q, whose rows are the chunk
    that walks qubit q - 1, depth first, when the buffer is full.  Sibling
    visits share a buffer, and level q >= 1 holds at most
    max(`_BATCH_AMPS`, 2**q) amplitudes.
    """

    def __init__(self, bases: np.ndarray, u: np.ndarray):
        shots, n = bases.shape
        self.bases, self.u = bases, u
        self.outcomes = np.empty((shots, n), dtype=np.int8)
        self.order = np.arange(shots)
        self.row = np.zeros(shots, dtype=np.int64)  # by place in order: the shot's row
        self.lo = np.zeros(shots)                   # by shot: the mass before its outcome
        # by level q: room for a chunk of children, never more than one per
        # shot or per distinct prefix on qubits q..n - 1, and none at level 0,
        # whose children are never walked; views of one block, allocated once
        caps = [min(max(_BATCH_AMPS >> q, 1), shots, 6 ** (n - q)) if q else 0
                for q in range(n)]
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
        """Fix qubit q of the shots order[start:stop], whose rows are `rows`,
        and build their children.

        Makes no bool or int8 temporaries: numpy keeps up to seven freed
        buffers of each size under 1 KB, and small ones of varying sizes
        would stay allocated after the walk.
        """
        count = len(rows)
        halves = rows.reshape(count, 2, 2**q)
        shots = self.order[start:stop]
        kind = self.bases[:, q].astype(np.int64)[shots]  # the letter, for now
        m0 = _zero_masses(halves).ravel()[kind * count + self.row[start:stop]]
        bit = self.lo[shots] + m0
        np.greater_equal(self.u[shots], bit, out=bit)  # 1.0 where u >= lo + m0
        self.outcomes[shots, q] = 1.0 - 2.0 * bit
        self.lo[shots] += m0 * bit
        if not q:  # qubit 0 is the last: no children
            return
        kind *= 2
        kind += bit.astype(np.int64)
        del m0, bit  # the walk below goes deeper
        # rows never decrease along `order`, so one stable sort by
        # kind = 2 * letter + bit groups the shots by (letter, bit, row);
        # int16 keys take numpy's radix sort
        order = np.argsort(kind.astype(np.int16), kind="stable")
        shots[:] = shots[order]
        keys = (kind * count + self.row[start:stop])[order]
        group = np.empty_like(keys)  # by shot: 1 + its group, after the cumsum
        group[0] = 1
        np.subtract(keys[1:], keys[:-1], out=group[1:])
        first = np.append(np.flatnonzero(group), len(keys))  # each group's first shot
        kind, src = np.divmod(keys[first[:-1]], count)
        del keys
        np.cumsum(np.minimum(group, 1, out=group), out=group)
        # runs of one kind, cut to fit the buffer
        buf, a = self.buffers[q], 0
        for last in np.flatnonzero(np.diff(kind)).tolist() + [len(kind) - 1]:
            letter, bit = divmod(int(kind[last]), 2)
            while a <= last:
                if self.held[q] == len(buf):
                    self.flush(q)
                at = self.held[q]
                b = min(last + 1, a + len(buf) - at)
                _build_children(halves, src[a:b], letter, bit, buf[at:at + b - a])
                fa, fb = first[a], first[b]
                np.add(group[fa:fb], at - a - 1, out=self.row[start + fa:start + fb])
                self.held[q] = at + b - a
                self.stop[q] = start + int(fb)
                a = b


def _zero_masses(halves):
    """(3, R) b = 0 masses of rows with halves (R, 2, h) in the X, Y and Z
    bases: with c = <r0|r1>, (|r0|^2 + |r1|^2) / 2 + Re c, the same plus
    Im c (H S^dag takes the row to (r0 - i r1) / sqrt 2), and |r0|^2."""
    flat = halves.view(float)
    norms = np.einsum("rhj,rhj->hr", flat, flat)
    cross = np.vecdot(halves[:, 0], halves[:, 1])
    mean = (norms[0] + norms[1]) * 0.5
    return np.stack([mean + cross.real, mean + cross.imag, norms[0]])


def _build_children(halves, src, letter, bit, out):
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
