"""Classical shadows from random single-qubit Pauli-basis measurements.

Each shot draws a uniform basis letter per qubit, rotates that qubit into the
computational basis, and samples one bitstring.  The standard inverse-channel
estimators follow: a weight-k Pauli is estimated by 3^k times the product of
matching outcomes (zero on basis mismatch), and a reduced state by averaging
tensor products of 3|b><b| - Id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

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

# Single-qubit eigenstates |b> for (basis, outcome-bit)
_EIGENSTATES = {
    (0, 0): np.array([_SQ2, _SQ2]), (0, 1): np.array([_SQ2, -_SQ2]),
    (1, 0): np.array([_SQ2, 1j * _SQ2]), (1, 1): np.array([_SQ2, -1j * _SQ2]),
    (2, 0): np.array([1.0, 0.0]), (2, 1): np.array([0.0, 1.0]),
}


@dataclass
class ShadowSet:
    """N shots of per-qubit bases (0=X,1=Y,2=Z) and outcomes (+1/-1)."""

    n: int
    bases: np.ndarray    # (N, n) int8
    outcomes: np.ndarray  # (N, n) int8
    seed: int = 0

    def __post_init__(self):
        if self.bases.shape != self.outcomes.shape or self.bases.shape[1:] != (self.n,):
            raise ValueError("bases/outcomes must both be (N, n)")

    def __len__(self) -> int:
        return len(self.bases)

    def to_csv_rows(self) -> List[dict]:
        rows = []
        for b, o in zip(self.bases, self.outcomes):
            row = {f"basis_{q}": BASIS_LETTERS[b[q]] for q in range(self.n)}
            row.update({f"out_{q}": int(o[q]) for q in range(self.n)})
            rows.append(row)
        return rows


def _sample_bitstrings(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, u, side="right")


def collect_shadows(state: StateVector, num_samples: int, seed: int) -> ShadowSet:
    """Measure `num_samples` random-Pauli-basis shots of a fixed state.

    For small registers the 3^n basis combinations are enumerated once and
    shots are sampled vectorized; larger registers fall back to per-shot
    rotation.  Both paths are deterministic given the seed.
    """
    rng = rng_for(seed)
    n = state.n
    bases = rng.integers(0, 3, size=(num_samples, n), dtype=np.int8)
    outcomes = np.empty((num_samples, n), dtype=np.int8)
    if num_samples == 0:
        return ShadowSet(n, bases, outcomes, seed)
    u = rng.random(num_samples)

    if 3**n <= 20000:
        combo = np.zeros(num_samples, dtype=np.int64)
        for q in range(n):
            combo = combo * 3 + bases[:, q]
        bits = np.empty(num_samples, dtype=np.int64)
        for cid in np.unique(combo):
            letters = []
            rest = int(cid)
            for _ in range(n):
                letters.append(rest % 3)
                rest //= 3
            letters = letters[::-1]  # letters[q] = basis at qubit q
            amps = state.amplitudes.copy()
            for q in range(n):
                if letters[q] != 2:
                    apply_1q_inplace(amps, n, q, _BASIS_ROT[letters[q]])
            probs = np.abs(amps) ** 2
            sel = combo == cid
            bits[sel] = _sample_bitstrings(probs, u[sel])
    else:
        bits = np.empty(num_samples, dtype=np.int64)
        for i in range(num_samples):
            amps = state.amplitudes.copy()
            for q in range(n):
                if bases[i, q] != 2:
                    apply_1q_inplace(amps, n, q, _BASIS_ROT[bases[i, q]])
            bits[i] = _sample_bitstrings(np.abs(amps) ** 2, u[i:i + 1])[0]

    for q in range(n):
        outcomes[:, q] = 1 - 2 * ((bits >> q) & 1)
    return ShadowSet(n, bases, outcomes, seed)


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
    at finite sample size.
    """
    keep = sorted(set(subsystem))
    dim = 2 ** len(keep)
    if not keep:
        return np.ones((1, 1), dtype=complex)
    total = np.zeros((dim, dim), dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    for b_row, o_row in zip(shadows.bases, shadows.outcomes):
        acc = np.ones((1, 1), dtype=complex)
        # largest qubit is the most significant factor
        for q in reversed(keep):
            vec = _EIGENSTATES[(int(b_row[q]), 0 if o_row[q] == 1 else 1)]
            acc = np.kron(acc, 3.0 * np.outer(vec, vec.conj()) - eye2)
        total += acc
    return total / len(shadows)


def shadows_to_csv(shadows: ShadowSet) -> str:
    header = [f"basis_{q}" for q in range(shadows.n)] + [f"out_{q}" for q in range(shadows.n)]
    lines = [",".join(header)]
    for b, o in zip(shadows.bases, shadows.outcomes):
        lines.append(",".join([BASIS_LETTERS[x] for x in b] + [str(int(x)) for x in o]))
    return "\n".join(lines) + "\n"
