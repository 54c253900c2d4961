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
from .statevector import MAX_SV_QUBITS, StateVector

BASIS_LETTERS = "XYZ"

# Amplitudes per chunk of the sampling walk: each level keeps a buffer of
# max(_BATCH_AMPS, one row) of them, and one product builds each buffer fill;
# 1.5 state sizes of buffers in all at n = 16 with 20 shots and 2.3 with 2,000
# (tracemalloc peaks of 1.6 and 2.6).  A larger chunk means fewer visits and
# more memory (n = 10, 2,000 shots: 58 visits and 0.57 MB of buffers at
# 2**12, 32 and 1.0 MB at 2**13, 19 and 1.7 MB at 2**14).
_BATCH_AMPS = 2**13

_SQ2 = 1.0 / np.sqrt(2.0)
# Rotation taking the measured basis' eigenstates to |0>, |1>; Z needs none
_BASIS_ROT = {
    0: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),          # X: H
    1: np.array([[_SQ2, -1j * _SQ2], [_SQ2, 1j * _SQ2]], dtype=complex),  # Y: H S^dag
}

# By kind = 2 * letter + bit: the half a child is gathered from (r1 for X and
# Y, the kept half for Z), and for X and Y the bit's row (alpha, beta) of the
# letter's rotation as alpha and beta / alpha, which is +-1 or +-i, so that
# r1 * (beta / alpha) is exact
_START_HALF = np.array([1, 1, 1, 1, 0, 1])
_ALPHA = np.array([_BASIS_ROT[k >> 1][k & 1][0] for k in range(4)])
_RATIO = np.array([beta / alpha for alpha, beta in (_BASIS_ROT[k >> 1][k & 1] for k in range(4))])

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
    bit.  Each distinct (letter, bit, row) child is then built once into the
    buffer of level q, one product (`_build_children`) per buffer fill, and
    the buffer's rows are the chunk that walks qubit q - 1, depth first,
    when it is full.  Sibling visits share a buffer, and level q >= 1 holds
    at most max(`_BATCH_AMPS`, 2**q) amplitudes.
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
        and build their children, sorted by (letter, bit, row), in buffer
        fills of level q.

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
        order = kind.astype(np.int16).argsort(kind="stable")
        shots[:] = shots[order]
        keys = (kind * count + self.row[start:stop])[order]
        # by shot: 1 + its group, after the cumsum; a last 1 marks the end
        group = np.empty(len(keys) + 1, dtype=np.int64)
        group[0] = group[-1] = 1
        np.subtract(keys[1:], keys[:-1], out=group[1:-1])
        first = group.nonzero()[0]  # each group's first shot, then len(keys)
        kind, src = np.divmod(keys[first[:-1]], count)
        del keys
        group = group[:-1]
        np.minimum(group, 1, out=group).cumsum(out=group)
        # the groups in buffer fills, each built by one product
        buf, a = self.buffers[q], 0
        while a < len(src):
            if self.held[q] == len(buf):
                self.flush(q)
            at = self.held[q]
            b = min(len(src), a + len(buf) - at)
            _build_children(halves, src[a:b], kind[a:b], buf[at:at + b - a])
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
    masses = np.empty((3, len(halves)))
    mean = np.add(norms[0], norms[1], out=masses[2])  # the Z row holds it until the end
    mean *= 0.5
    np.add(mean, cross.real, out=masses[0])
    np.add(mean, cross.imag, out=masses[1])
    masses[2] = norms[0]
    return masses


def _build_children(halves, src, kind, out):
    """out[i] = alpha * r0 + beta * r1 for the halves (r0, r1) of row src[i],
    (alpha, beta) the bit's row of the letter's rotation for kind[i] =
    2 * letter + bit, the identity's for Z.

    kind never decreases and src increases within each kind, so the X and Y
    children come first.  One gather starts every child from r1, or for Z
    from its kept half, and the X and Y children are then built as
    (r1 * (beta / alpha) + r0) * alpha, the same products for every mix of
    kinds.  r0 is read as a view when those children are one kind on
    consecutive rows, so a fill of one large row makes no temporaries.
    """
    xy = int(kind.searchsorted(4))
    at = 2 * src
    at += _START_HALF.take(kind)
    # mode="raise" would gather into a temporary and copy it to `out`
    halves.reshape(-1, halves.shape[2]).take(at, axis=0, out=out, mode="clip")
    if xy:
        head = out[:xy]
        head *= _RATIO.take(kind[:xy])[:, None]
        lo, hi = int(src[0]), int(src[xy - 1])
        head += (halves[lo:hi + 1, 0] if kind[0] == kind[xy - 1] and hi - lo == xy - 1
                 else halves[src[:xy], 0])
        head *= _ALPHA.take(kind[:xy])[:, None]


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
    if pauli.n != shadows.n:
        raise ValueError(f"Pauli string acts on {pauli.n} qubits, the shadows on {shadows.n}")
    support = [q for q in range(pauli.n) if pauli.letter_index(q) != 0]
    vals = np.full(len(shadows), float(3 ** len(support)))
    for q in support:
        letter = pauli.letter_index(q) - 1  # X=0, Y=1, Z=2
        vals *= (shadows.bases[:, q] == letter) * shadows.outcomes[:, q]
    return vals


def estimate_pauli(shadows: ShadowSet, pauli: PauliString, groups: int = 10) -> float:
    """Median of `groups` group means of the single-shot estimator; needs at
    least one shot per group."""
    vals = single_shot_values(shadows, pauli)
    if len(vals) < max(groups, 1):
        raise ValueError(f"{len(vals)} shots cannot fill {max(groups, 1)} group(s)")
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
    count and summed in increasing order of its base-6 code.  Raises
    ValueError on an empty shadow set, and before any snapshot is built when
    the distinct snapshots would take more than one `MAX_SV_QUBITS` state's
    bytes.
    """
    keep = sorted(set(subsystem))
    if keep and not 0 <= keep[0] <= keep[-1] < shadows.n:
        raise ValueError(f"subsystem {keep} reaches outside qubits 0..{shadows.n - 1}")
    if not len(shadows):
        raise ValueError("no shots to estimate a reduced state from")
    if not keep:
        return np.ones((1, 1), dtype=complex)
    # one factor index 2*basis + bit per kept qubit, largest qubit first; as
    # the digits of a base-6 code (exact in int64 for up to 24 kept qubits)
    cols = keep[::-1]
    factors = 2 * shadows.bases[:, cols] + (1 - shadows.outcomes[:, cols]) // 2
    place = 6 ** np.arange(len(keep) - 1, -1, -1, dtype=np.int64)
    codes, counts = np.unique(factors.astype(np.int64) @ place, return_counts=True)
    size = len(codes) * 16 * 4 ** len(keep)
    if size > 16 * 2**MAX_SV_QUBITS:
        raise ValueError(f"{len(codes)} distinct snapshots on {len(keep)} qubits would take "
                         f"{size} bytes, more than a {MAX_SV_QUBITS}-qubit state")
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
