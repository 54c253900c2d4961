"""Dense exact simulation for n <= ~24 qubits.

Qubit 0 is the least-significant bit of the amplitude index.  This engine is
the ground-truth oracle for the propagation, shadow, and experiment modules.

Circuits run one layer at a time on a single amplitude buffer: a rotation
layer is one 2x2 product per qubit, a CZ layer negates the |11> slice of a
strided view per edge, and each brick's 15 rotations are fused into one 4x4
unitary applied in a single pass.  The kernels below mutate the buffer they
are given; `apply_gate` copies first and so keeps its non-mutating contract.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .circuits import (BRICK_PARAMS, ROTATION_KINDS, BrickLayer, Circuit, CZLayer, Gate,
                       RotationLayer)
from .pauli import PauliString, PauliSum

MAX_SV_QUBITS = 24


@dataclass
class StateVector:
    n: int
    amplitudes: np.ndarray

    @classmethod
    def zero(cls, n: int) -> "StateVector":
        if n > MAX_SV_QUBITS:
            raise ValueError(f"statevector engine caps at {MAX_SV_QUBITS} qubits")
        amps = np.zeros(2**n, dtype=np.complex128)
        amps[0] = 1.0
        return cls(n, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amplitudes.copy())


# --- in-place kernels ----------------------------------------------------
# Views are taken with copy=False: a kernel that wrote to a reshaped copy
# would silently do nothing, so numpy raises instead.


def apply_1q_inplace(amps: np.ndarray, n: int, q: int, mat: np.ndarray) -> None:
    """amps <- (2x2 `mat` on qubit q) amps, overwriting `amps`.

    `amps` is one state (2**n,) or a batch of states (R, 2**n), one per row.
    Each row goes through the same per-block products as a single state, so
    a row's result is bitwise the one it would get on its own.
    """
    view = amps.reshape((-1, 2 ** (n - q - 1), 2, 2**q), copy=False)
    if q >= n - q - 1:  # few wide blocks: one 2 x 2**q product per block
        view[...] = np.matmul(mat, view)
    else:  # many narrow blocks: one product per low-qubit index instead
        view.transpose(0, 3, 1, 2)[...] = np.matmul(view.transpose(0, 3, 1, 2), mat.T)


def _pair_view(amps: np.ndarray, n: int, a: int, b: int) -> np.ndarray:
    """View with axes (rest, bit of max(a, b), rest, bit of min(a, b), rest)."""
    lo, hi = min(a, b), max(a, b)
    return amps.reshape((2 ** (n - hi - 1), 2, 2 ** (hi - lo - 1), 2, 2**lo), copy=False)


def _apply_2q_inplace(amps: np.ndarray, n: int, a: int, b: int, mat: np.ndarray) -> None:
    """amps <- (4x4 `mat` on qubits a, b) amps; `mat` indexes 2*bit_b + bit_a."""
    view = _pair_view(amps, n, a, b)
    # bring (qubit b, qubit a) to the front, apply one 4 x 2**(n-2) product
    front = view.transpose((1, 3, 0, 2, 4) if a < b else (3, 1, 0, 2, 4))
    front[...] = (mat @ front.reshape(4, -1)).reshape(front.shape)


def _cz_inplace(amps: np.ndarray, n: int, a: int, b: int) -> None:
    _pair_view(amps, n, a, b)[:, 1, :, 1, :] *= -1


# --- gate matrices -------------------------------------------------------


def dense_pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense 2^n matrix of a Pauli string (keep n small)."""
    mats = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.array([[1, 0], [0, -1]], dtype=complex)}
    out = np.eye(1, dtype=complex)
    # qubit 0 is the LSB, so it is the rightmost kron factor
    for letter in reversed(p.label()):
        out = np.kron(out, mats[letter])
    return out


# generator of each rotation kind, by the letters after its "R"
_GENERATORS = {label: dense_pauli_matrix(PauliString.from_label(label))
               for label in ("X", "Y", "Z", "XX", "YY", "ZZ")}


def _rotations(angles: Sequence[float], gen: np.ndarray) -> np.ndarray:
    """exp(-i g G) = cos(g) 1 - i sin(g) G for each angle g, Pauli matrix G."""
    g = np.asarray(angles, dtype=float)[:, None, None]
    return np.cos(g) * np.eye(len(gen)) - 1j * np.sin(g) * gen


def _expand_rotations(gens: Sequence[np.ndarray]):
    """Tables (S, M): prod_k exp(-i t_k G_k) = sum_j exp(-i (t @ S)[j]) M[j].

    Each factor is e^{-it} P+ + e^{it} P- with P+- = (1 +- G)/2 the
    projectors onto G's eigenspaces, so a product of K rotations (gens[0]
    applied first) expands over the 2^K sign choices s: phase exp(-i s.t),
    matrix the product of the chosen projectors.
    """
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(gens))))
    eye = np.eye(len(gens[0]))
    mats = []
    for choice in signs:
        m = eye
        for sign, gen in zip(choice, gens):
            m = (eye + sign * gen) / 2 @ m
        mats.append(m.reshape(-1))
    return signs.T, np.array(mats)


# Rotations per expanded run: 2**5 phase columns each, where expanding all
# 15 brick rotations at once would take 2**15.
_BRICK_RUN = 5


def _brick_tables():
    """Block-diagonal (S, M) expanding the brick template run by run.

    Run r of `_BRICK_RUN` consecutive rotations owns rows r*RUN.. of S, a
    block of 2**RUN phase columns, and output columns 16r..16r+15 of M (its
    row-major 4x4 product).  Generators act on the brick's qubits (0, 1).
    """
    brick = Circuit(2, (BrickLayer(((0, 1),), (tuple(range(BRICK_PARAMS)),)),),
                    np.zeros(BRICK_PARAMS))
    gens = [dense_pauli_matrix(gate.generator(2)) for gate in brick.gates()]
    run, runs = _BRICK_RUN, len(gens) // _BRICK_RUN
    s_all = np.zeros((len(gens), runs << run))
    m_all = np.zeros((runs << run, 16 * runs), dtype=complex)
    for r in range(runs):
        s, m = _expand_rotations(gens[r * run:(r + 1) * run])
        phases = slice(r << run, (r + 1) << run)
        s_all[r * run:(r + 1) * run, phases] = s
        m_all[phases, 16 * r:16 * (r + 1)] = m
    return s_all, m_all


_BRICK_S, _BRICK_M = _brick_tables()


def _brick_unitaries(angles: np.ndarray) -> np.ndarray:
    """Fused 4x4 unitaries of bricks with template angles `angles` (B, 15).

    Entry [k] indexes 2*bit(pair[1]) + bit(pair[0]) and equals the product
    of the brick's 15 rotations in template order.
    """
    runs = (np.exp(-1j * (angles @ _BRICK_S)) @ _BRICK_M).reshape(len(angles), -1, 4, 4)
    u = runs[:, 0]
    for k in range(1, runs.shape[1]):
        u = runs[:, k] @ u
    return u


# --- layer execution ------------------------------------------------------


def _evolve(amps: np.ndarray, n: int, layers: Sequence, theta: np.ndarray) -> np.ndarray:
    """Apply `layers` to `amps` in place, one layer at a time; returns `amps`."""
    for layer in layers:
        if isinstance(layer, RotationLayer):
            for q, mat in enumerate(_rotations(layer.angles, _GENERATORS[layer.axis])):
                apply_1q_inplace(amps, n, q, mat)
        elif isinstance(layer, CZLayer):
            for a, b in layer.edges:
                _cz_inplace(amps, n, a, b)
        elif isinstance(layer, BrickLayer):
            if layer.pairs:
                mats = _brick_unitaries(theta[np.asarray(layer.param_ids)])
                for (a, b), mat in zip(layer.pairs, mats):
                    _apply_2q_inplace(amps, n, a, b, mat)
        else:
            raise TypeError(f"unknown layer {layer!r}")
    return amps


def apply_pauli(amps: np.ndarray, p: PauliString) -> np.ndarray:
    """P|psi> via index arithmetic: P = i^{#Y} (prod X)(prod Z)."""
    idx = np.arange(len(amps), dtype=np.uint64)
    src = idx ^ np.uint64(p.x)
    parity = np.bitwise_count(src & np.uint64(p.z)) & 1
    phase = (1j) ** ((p.x & p.z).bit_count() % 4)
    out = amps[src] * phase
    out[parity == 1] *= -1
    return out


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Unitary action of one gate; convention R(g) = exp(-i*g*G).

    Returns a new state and leaves `state` untouched.
    """
    amps = state.amplitudes.copy()
    if gate.kind == "CZ":
        _cz_inplace(amps, state.n, *gate.qubits)
    elif gate.kind in ROTATION_KINDS:
        gen = _GENERATORS[gate.kind[1:]]
        kernel = apply_1q_inplace if len(gen) == 2 else _apply_2q_inplace
        kernel(amps, state.n, *gate.qubits, _rotations([gate.angle], gen)[0])
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    return StateVector(state.n, amps)


def _resolve_theta(circuit: Circuit, theta) -> np.ndarray:
    """`theta`, checked as Circuit checks its own, or the circuit's theta."""
    if theta is None:
        return circuit.theta
    th = np.asarray(theta, dtype=float)
    if th.shape != circuit.theta.shape or not np.isfinite(th).all():
        raise ValueError("theta must hold one finite angle per circuit parameter")
    return th


def run(circuit: Circuit, theta: Optional[Sequence[float]] = None) -> StateVector:
    """Apply all layers in order to |0...0>."""
    state = StateVector.zero(circuit.n)
    _evolve(state.amplitudes, circuit.n, circuit.layers, _resolve_theta(circuit, theta))
    return state


def expectation(state: StateVector, observable: PauliSum) -> float:
    val = 0.0
    for term in observable:
        val += term.coefficient * np.vdot(state.amplitudes,
                                          apply_pauli(state.amplitudes, term.string)).real
    return float(val)


def reduced_density_matrix(state: StateVector, subsystem: Iterable[int]) -> np.ndarray:
    """Partial trace down to `subsystem` (|subsystem| <= 12), Hermitian, trace 1."""
    keep = sorted(set(subsystem))
    if len(keep) > 12:
        raise ValueError("subsystem too large for a dense reduced state")
    n = state.n
    # axis k of the reshaped tensor is qubit n-1-k
    tensor = state.amplitudes.reshape((2,) * n)
    keep_axes = [n - 1 - q for q in reversed(keep)]  # highest kept qubit first
    rest = [ax for ax in range(n) if ax not in keep_axes]
    mat = tensor.transpose(keep_axes + rest).reshape(2 ** len(keep), -1)
    rho = mat @ mat.conj().T
    return 0.5 * (rho + rho.conj().T)


def parameter_shift_gradient(circuit: Circuit, param: int, observable: PauliSum,
                             theta: Optional[np.ndarray] = None) -> float:
    """d<O>/d(theta_param) via two shifted runs (exact for Pauli generators).

    The layers before the brick layer holding `param` do not depend on it,
    so they are evolved once and both shifted runs start from a copy.
    """
    th = np.array(_resolve_theta(circuit, theta), dtype=float)
    param = range(len(th))[param]  # IndexError when out of range
    split = next((i for i, layer in enumerate(circuit.layers)
                  if isinstance(layer, BrickLayer)
                  and any(param in ids for ids in layer.param_ids)), len(circuit.layers))
    n = circuit.n
    prefix = _evolve(StateVector.zero(n).amplitudes, n, circuit.layers[:split], th)
    shift = math.pi / 4
    vals = []
    for s in (shift, -shift):
        th2 = th.copy()
        th2[param] += s
        amps = _evolve(prefix.copy(), n, circuit.layers[split:], th2)
        vals.append(expectation(StateVector(n, amps), observable))
    return vals[0] - vals[1]
