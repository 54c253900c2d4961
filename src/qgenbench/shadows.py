"""Classical shadows from random single-qubit Pauli-basis measurements.

Each shot draws a uniform basis letter per qubit, rotates that qubit into the
computational basis, and samples one bitstring.  Collection groups the shots
by basis combination and walks the combinations' prefix tree, qubit 0 first,
in batches: a rotation shared by a prefix of letters is applied once per
batch, to a batch of states at a time.  The standard inverse-channel
estimators follow: a weight-k Pauli is estimated by 3^k times the product of
matching outcomes (zero on basis mismatch), and a reduced state by averaging
tensor products of 3|b><b| - Id.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

from .pauli import PauliString
from .seeding import rng_for
from .statevector import StateVector, apply_1q_inplace

BASIS_LETTERS = "XYZ"

# Amplitudes per batch of combinations: max(1, _BATCH_AMPS >> n) rows.  A
# larger batch shares few more prefixes (n = 10, 2,000 shots: 5,735 rotated
# rows at 2**14, 5,477 at 2**15, 5,215 in one batch) and holds more memory.
_BATCH_AMPS = 2**14

_SQ2 = 1.0 / np.sqrt(2.0)
# Rotation taking the measured basis' eigenstates to |0>, |1>
_BASIS_ROT = {
    0: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),          # X: H
    1: np.array([[_SQ2, -1j * _SQ2], [_SQ2, 1j * _SQ2]], dtype=complex),  # Y: H S^dag
    2: np.eye(2, dtype=complex),                                          # Z
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


def _rotated_cdfs(state: StateVector, combos: np.ndarray, work: list):
    """Outcome CDFs of the distinct basis combinations `combos` (C, n).

    `combos` must be sorted with qubit 0 as the most significant letter.
    Returns the CDFs (rows, 2**n) and the row of each combination.  The walk
    goes level by level down the prefix tree: after qubit q, each distinct
    prefix of letters 0..q holds one row, the state with that prefix's
    rotations applied.  Rows are grouped by their last letter, X then Y then
    Z, each group in prefix order, so one product rotates all X rows and one
    all Y rows.  A level copies rows from their parents only where the
    combinations branch or the grouping moves a row, and otherwise rotates
    in place; `state` is never written.  Copies alternate between the two
    buffers of `work`, each allocated with C rows on first use and reused
    by later calls, which must pass no more combinations.
    """
    n = state.n
    # fresh[i, q]: combination i is the first with its prefix 0..q
    fresh = np.ones(combos.shape, dtype=bool)
    fresh[1:] = np.logical_or.accumulate(combos[1:] != combos[:-1], axis=1)
    # firsts[i, q, l]: prefixes 0..q ending in letter l that start at or before
    # combination i; row[i, q + 1]: row of combination i's prefix 0..q
    # (row[:, 0]: the root)
    firsts = np.cumsum(fresh[:, :, None] & (combos[:, :, None] == np.arange(3)), axis=0)
    per_letter = firsts[-1]  # (n, 3) rows of each letter at each level
    offsets = np.cumsum(per_letter, axis=1) - per_letter
    row = np.zeros((len(combos), n + 1), dtype=np.int64)
    row[:, 1:] = np.take_along_axis(firsts + offsets - 1, combos[:, :, None], axis=2)[:, :, 0]
    # parent[k]: the row that row k copies, level after level
    width = fresh.sum(axis=0)
    start = np.cumsum(width) - width
    parent = np.empty(width.sum(), dtype=np.int64)
    parent[(row[:, 1:] + start).T[fresh.T]] = row[:, :-1].T[fresh.T]
    moved = parent != np.arange(len(parent)) - np.repeat(start, width)
    levels = zip(np.logical_or.reduceat(moved, start).tolist(), start.tolist(),
                 (start + width).tolist(), per_letter[:, 0].tolist(), per_letter[:, 1].tolist())
    rows, held = state.amplitudes[None], None  # held: the buffer of `rows`; None: `state`
    for q, (moves, lo, hi, x_rows, y_rows) in enumerate(levels):
        if moves or (held is None and x_rows + y_rows):
            held = 1 if held == 0 else 0
            if work[held] is None:
                work[held] = np.empty((len(combos), 2**n), dtype=complex)
            # "clip": the indices are in range, and the default "raise" buffers `out`
            rows = np.take(rows, parent[lo:hi], axis=0, out=work[held][:hi - lo], mode="clip")
        if x_rows:
            apply_1q_inplace(rows[:x_rows], n, q, _BASIS_ROT[0])
        if y_rows:
            apply_1q_inplace(rows[x_rows:x_rows + y_rows], n, q, _BASIS_ROT[1])
    cdf = np.abs(rows)
    np.square(cdf, out=cdf)  # the bytes of np.abs(rows) ** 2, in place
    np.cumsum(cdf, axis=1, out=cdf)
    cdf[:, -1] = 1.0
    return cdf, row[:, -1]


def collect_shadows(state: StateVector, num_samples: int, seed: int) -> ShadowSet:
    """Measure `num_samples` random-Pauli-basis shots of a fixed state.

    Shots are grouped by their basis combination, and each distinct
    combination samples all of its shots, each with its own uniform draw,
    from its rotated state's probabilities.  Combinations are sorted with
    qubit 0 as the most significant letter and taken in batches of
    max(1, `_BATCH_AMPS` >> n); within a batch, a rotation shared by a
    prefix of letters is applied once for all combinations below it.
    Deterministic given the seed.
    """
    rng = rng_for(seed)
    n = state.n
    bases = rng.integers(0, 3, size=(num_samples, n), dtype=np.int8)
    u = rng.random(num_samples)
    # base-3 code of each shot's bases, qubit 0 most significant; exact in
    # int64 for any n the statevector holds (3**24 < 2**63)
    codes = bases.astype(np.int64) @ 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
    combos = bases[order[starts]]
    # combination c owns the sorted shots bounds[c]:bounds[c + 1]
    bounds = np.append(starts, num_samples).tolist()
    u_sorted = u[order]
    bits_sorted = np.empty(num_samples, dtype=np.int64)
    per_batch = max(1, _BATCH_AMPS >> n)
    work = [None, None]  # row buffers that every batch reuses
    for lo in range(0, len(combos), per_batch):
        cdf, row_of = _rotated_cdfs(state, combos[lo:lo + per_batch], work)
        for c, row in enumerate(row_of.tolist(), lo):
            shots = slice(bounds[c], bounds[c + 1])
            bits_sorted[shots] = cdf[row].searchsorted(u_sorted[shots], side="right")
        del cdf  # before the next batch's products allocate
    bits = np.empty(num_samples, dtype=np.int64)
    bits[order] = bits_sorted
    outcomes = (1 - 2 * ((bits[:, None] >> np.arange(n)) & 1)).astype(np.int8)
    return ShadowSet(n, bases, outcomes)


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
    qubit give the same snapshot, so each distinct snapshot is built once
    and weighted by its shot count, in increasing order of its base-6 code.
    """
    keep = sorted(set(subsystem))
    dim = 2 ** len(keep)
    if not keep:
        return np.ones((1, 1), dtype=complex)
    # one factor index 2*basis + bit per kept qubit, largest qubit first; as
    # the digits of a base-6 code (exact in int64 for up to 24 kept qubits)
    cols = keep[::-1]
    factors = 2 * shadows.bases[:, cols] + (1 - shadows.outcomes[:, cols]) // 2
    place = 6 ** np.arange(len(keep) - 1, -1, -1, dtype=np.int64)
    codes, counts = np.unique(factors.astype(np.int64) @ place, return_counts=True)
    total = np.zeros((dim, dim), dtype=complex)
    for snapshot, count in zip(codes[:, None] // place % 6, counts):
        total += count * reduce(np.kron, _SNAPSHOT_FACTORS[snapshot])
    return total / len(shadows)


def shadows_to_csv(shadows: ShadowSet) -> str:
    header = [f"basis_{q}" for q in range(shadows.n)] + [f"out_{q}" for q in range(shadows.n)]
    lines = [",".join(header)]
    for b, o in zip(shadows.bases, shadows.outcomes):
        lines.append(",".join([BASIS_LETTERS[x] for x in b] + [str(int(x)) for x in o]))
    return "\n".join(lines) + "\n"
