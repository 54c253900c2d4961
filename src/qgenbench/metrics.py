"""Subsystem metrics: distinguishability from maximally mixed, von Neumann
entropy (bits), subvolume-law gap, and Hilbert-Schmidt distance from the
normalized identity."""

from __future__ import annotations

import math

import numpy as np

_EIG_ZERO = 1e-14


def _check_density(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("density matrix must have unit trace")
    return rho


def distinguishability(rho: np.ndarray) -> float:
    """Trace-norm distance || rho - Id/d ||_1 from the maximally mixed state."""
    rho = _check_density(rho)
    d = rho.shape[0]
    delta = rho - np.eye(d) / d
    return float(np.sum(np.abs(np.linalg.eigvalsh(delta))))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-sum lam * log2(lam) over eigenvalues above the zero cutoff."""
    rho = _check_density(rho)
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > _EIG_ZERO]
    return float(-np.sum(evals * np.log2(evals)))


def weak_subvolume_gap(rho: np.ndarray) -> float:
    """|Lambda| - S(rho): how far subsystem entropy sits below its maximum."""
    rho = _check_density(rho)
    return round(math.log2(rho.shape[0])) - von_neumann_entropy(rho)


def hs_distance(a: np.ndarray) -> float:
    """|| A - tr(A) Id/dim ||_2 for a Hermitian matrix A."""
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    delta = a - np.trace(a) * np.eye(d) / d
    return float(np.linalg.norm(delta))
