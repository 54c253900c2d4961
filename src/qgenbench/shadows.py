"""Classical shadows from random single-qubit Pauli-basis measurements.

Each shot draws a uniform basis letter per qubit, rotates that qubit into the
computational basis, and samples one bitstring.  The standard inverse-channel
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


def _sample_bitstrings(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, u, side="right")


def collect_shadows(state: StateVector, num_samples: int, seed: int) -> ShadowSet:
    """Measure `num_samples` random-Pauli-basis shots of a fixed state.

    Shots are grouped by their basis combination: each distinct combination
    rotates one copy of the state and samples all of its shots, each with its
    own uniform draw, from that copy's probabilities.  Deterministic given
    the seed.
    """
    rng = rng_for(seed)
    n = state.n
    bases = rng.integers(0, 3, size=(num_samples, n), dtype=np.int8)
    u = rng.random(num_samples)
    # base-3 code of each shot's bases; exact in int64 for any n the
    # statevector holds (3**24 < 2**63)
    codes = bases.astype(np.int64) @ 3 ** np.arange(n, dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
    bits = np.empty(num_samples, dtype=np.int64)
    for shots in np.split(order, starts)[1:]:  # one index array per combination
        amps = state.amplitudes.copy()
        for q, b in enumerate(bases[shots[0]].tolist()):
            if b != 2:
                apply_1q_inplace(amps, n, q, _BASIS_ROT[b])
        bits[shots] = _sample_bitstrings(np.abs(amps) ** 2, u[shots])
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
    and weighted by its shot count.
    """
    keep = sorted(set(subsystem))
    dim = 2 ** len(keep)
    if not keep:
        return np.ones((1, 1), dtype=complex)
    # one factor index 2*basis + bit per kept qubit, largest qubit first
    cols = keep[::-1]
    factors = 2 * shadows.bases[:, cols] + (1 - shadows.outcomes[:, cols]) // 2
    total = np.zeros((dim, dim), dtype=complex)
    for snapshot, count in zip(*np.unique(factors, axis=0, return_counts=True)):
        total += count * reduce(np.kron, _SNAPSHOT_FACTORS[snapshot])
    return total / len(shadows)


def shadows_to_csv(shadows: ShadowSet) -> str:
    header = [f"basis_{q}" for q in range(shadows.n)] + [f"out_{q}" for q in range(shadows.n)]
    lines = [",".join(header)]
    for b, o in zip(shadows.bases, shadows.outcomes):
        lines.append(",".join([BASIS_LETTERS[x] for x in b] + [str(int(x)) for x in o]))
    return "\n".join(lines) + "\n"
