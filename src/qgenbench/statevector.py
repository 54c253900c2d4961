"""Dense exact simulation for n <= ~24 qubits.

Qubit 0 is the least-significant bit of the amplitude index.  This engine is
the ground-truth oracle for the propagation, shadow, and experiment modules.

Circuits run one layer at a time on a single amplitude buffer, in blocks of
consecutive qubits: one dense product per block, through `_apply_block_inplace`.

- A rotation layer is ceil(n/4) products with 16x16 matrices: the Kronecker
  product of each four consecutive qubits' 2x2 rotations, the last block
  taking the n mod 4 qubits left over.
- Each brick's 15 rotations are fused into one 4x4 unitary, once per
  circuit.  Two neighbouring chain bricks (a, a+1), (a+2, a+3), listed one
  after the other, run as one 16x16 block; any other chain brick as a 4x4
  block.  Reversed or non-adjacent pairs keep the per-pair kernel
  `_apply_2q_inplace`.
- A CZ layer negates the |11> slice of a strided view per edge (exact).

`apply_gate` keeps one kernel call per gate and is the reference: a
1-qubit rotation on qubit q runs `_apply_block_inplace` at width 1 (lo = q),
a 2-qubit rotation `_apply_2q_inplace`.  `run` and
`parameter_shift_gradient` agree with a fold of `apply_gate` over
`Circuit.gates()` to 1e-12.  The kernels mutate the buffer they are given;
`apply_gate` copies first and so keeps its non-mutating contract.
"""

from __future__ import annotations

import functools
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


# --- in-place kernels ----------------------------------------------------
# Views are taken with copy=False: a kernel that wrote to a reshaped copy
# would silently do nothing, so numpy raises instead.


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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the last two axes over stacks of square matrices, one broadcast product."""
    p, q = a.shape[-1], b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], p * q, p * q)


# Widest product a block is widened to so that it runs as one flat product.
_FLAT_WIDTH = 32


def _apply_block_inplace(amps: np.ndarray, n: int, lo: int, mat: np.ndarray) -> None:
    """amps <- (`mat` on the consecutive qubits lo, lo+1, ...) amps.

    `mat` (2**w x 2**w) indexes the block's bits with qubit lo the least
    significant, as np.kron(m_{w-1}, ..., m_0) does.  A block starting at
    qubit lo > 0 would take one product per run of 2**lo amplitudes, tiny
    ones for lo < 4; so when kron(mat, identity on qubits 0..lo-1) is at
    most `_FLAT_WIDTH` wide, that runs instead, as one flat product.
    """
    width = len(mat) << lo
    if width <= _FLAT_WIDTH:
        if lo:
            mat = _kron(mat, np.eye(1 << lo))
        flat = amps.reshape((-1, width), copy=False)
        flat[...] = flat @ mat.T
    else:  # one 2**w x 2**lo product per value of the qubits above the block
        view = amps.reshape((-1, len(mat), 1 << lo), copy=False)
        view[...] = np.matmul(mat, view)


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
    """Tables (S, M): prod_k exp(-i t_k G_k) = sum_j prod_k exp(-i S[k, j] t_k) M[j].

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
    """(index, M) expanding the brick template run by run.

    A brick's 30 phase factors are e^{-it} of its 15 angles t, then e^{it}.
    Phase column j of run r is the product of the factors index[r, :, j],
    one per rotation of the run, and M[r, j] is the row-major 4x4 matrix it
    weighs.  Generators act on the brick's qubits (0, 1).
    """
    brick = Circuit(2, (BrickLayer(((0, 1),), (tuple(range(BRICK_PARAMS)),)),),
                    np.zeros(BRICK_PARAMS))
    gens = [dense_pauli_matrix(gate.generator(2)) for gate in brick.gates()]
    run = _BRICK_RUN
    index, mats = [], []
    for r in range(len(gens) // run):
        signs, m = _expand_rotations(gens[r * run:(r + 1) * run])
        index.append(np.arange(r * run, (r + 1) * run)[:, None] + len(gens) * (signs < 0))
        mats.append(m)
    return np.array(index), np.array(mats)


_BRICK_INDEX, _BRICK_M = _brick_tables()


def _brick_unitaries(angles: np.ndarray) -> np.ndarray:
    """Fused 4x4 unitaries of bricks with template angles `angles` (B, 15).

    Entry [k] indexes 2*bit(pair[1]) + bit(pair[0]) and equals the product
    of the brick's 15 rotations in template order.
    """
    e = np.exp(-1j * angles)
    phases = np.concatenate((e, e.conj()), axis=1)[:, _BRICK_INDEX].prod(axis=2)
    runs = np.matmul(phases.transpose(1, 0, 2), _BRICK_M).reshape(
        len(_BRICK_M), len(angles), 4, 4)
    u = runs[0]
    for run in runs[1:]:
        u = run @ u
    return u


def _brick_ids(layers: Sequence) -> np.ndarray:
    """Parameter ids of every brick in `layers`, in order, as a (B, 15) array."""
    return np.array([ids for layer in layers if isinstance(layer, BrickLayer)
                     for ids in layer.param_ids], dtype=np.intp).reshape(-1, BRICK_PARAMS)


# --- layer execution ------------------------------------------------------


def _rotation_blocks(angles: Sequence[float], gen: np.ndarray) -> list:
    """16x16 products of each four consecutive qubits' rotations, lowest block first.

    The angles are padded with zeros to a multiple of four, so every block
    comes from one broadcast product; zero-angle rotations are exact
    identities, and the last block is cut to its 2**(n mod 4) top-left entries.
    """
    n = len(angles)
    padded = np.zeros(-(-n // 4) * 4)
    padded[:n] = angles
    m = _rotations(padded, gen).reshape(-1, 4, 2, 2)
    blocks = list(_kron(_kron(m[:, 3], m[:, 2]), _kron(m[:, 1], m[:, 0])))
    left = 1 << (n - 4 * (len(blocks) - 1))
    blocks[-1] = blocks[-1][:left, :left]
    return blocks


def _apply_brick_layer(amps: np.ndarray, n: int, pairs: Sequence, mats: np.ndarray) -> None:
    """One brick layer, `mats` holding each brick's fused 4x4 in pair order."""
    i = 0
    while i < len(pairs):
        a, b = pairs[i]
        if b != a + 1:  # reversed or non-adjacent pair
            _apply_2q_inplace(amps, n, a, b, mats[i])
            i += 1
        elif i + 1 < len(pairs) and tuple(pairs[i + 1]) == (a + 2, a + 3):
            _apply_block_inplace(amps, n, a, _kron(mats[i + 1], mats[i]))
            i += 2
        else:
            _apply_block_inplace(amps, n, a, mats[i])
            i += 1


def _evolve(amps: np.ndarray, n: int, layers: Sequence, bricks: np.ndarray) -> np.ndarray:
    """Apply `layers` to `amps` in place, one layer at a time; returns `amps`.

    `bricks` holds the fused 4x4 unitary of every brick in `layers`, in order.
    """
    k = 0
    for layer in layers:
        if isinstance(layer, RotationLayer):
            blocks = _rotation_blocks(layer.angles, _GENERATORS[layer.axis])
            for lo, block in zip(range(0, n, 4), blocks):
                _apply_block_inplace(amps, n, lo, block)
        elif isinstance(layer, CZLayer):
            for a, b in layer.edges:
                _cz_inplace(amps, n, a, b)
        elif isinstance(layer, BrickLayer):
            _apply_brick_layer(amps, n, layer.pairs, bricks[k:k + len(layer.pairs)])
            k += len(layer.pairs)
        else:
            raise TypeError(f"unknown layer {layer!r}")
    return amps


@functools.lru_cache(maxsize=1)
def _basis_index(dim: int) -> np.ndarray:
    """Read-only basis indices 0..dim-1, kept for the most recent dimension."""
    idx = np.arange(dim, dtype=np.uint64)
    idx.flags.writeable = False
    return idx


def apply_pauli(amps: np.ndarray, p: PauliString) -> np.ndarray:
    """P|psi> via index arithmetic: P = i^{#Y} (prod X)(prod Z)."""
    src = _basis_index(len(amps)) ^ np.uint64(p.x)
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
        kernel = _apply_block_inplace if len(gen) == 2 else _apply_2q_inplace
        kernel(amps, state.n, *gate.qubits, _rotations([gate.angle], gen)[0])
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    return StateVector(state.n, amps)


def _resolve_theta(circuit: Circuit, theta) -> np.ndarray:
    """`theta` through the circuit's own IR check, or the circuit's theta."""
    return circuit.theta if theta is None else circuit.with_theta(theta).theta


def run(circuit: Circuit, theta: Optional[Sequence[float]] = None) -> StateVector:
    """Apply all layers in order to |0...0>."""
    th = _resolve_theta(circuit, theta)
    state = StateVector.zero(circuit.n)
    _evolve(state.amplitudes, circuit.n, circuit.layers,
            _brick_unitaries(th[_brick_ids(circuit.layers)]))
    return state


def _check_observable(observable: PauliSum, n: int) -> None:
    if observable.n != n:
        raise ValueError(f"observable acts on {observable.n} qubits, the state on {n}")


def expectation(state: StateVector, observable: PauliSum) -> float:
    _check_observable(observable, state.n)
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

    Every brick's fused unitary is computed once; the shifted runs swap in
    the two shifted variants of the one brick that holds `param`.  The
    layers before that brick's layer do not depend on `param`, so they are
    evolved once and both shifted runs start from a copy.
    """
    th = _resolve_theta(circuit, theta)
    param = range(len(th))[param]  # IndexError when out of range
    n, layers = circuit.n, circuit.layers
    _check_observable(observable, n)
    ids = _brick_ids(layers)
    hits = np.argwhere(ids == param)
    if not len(hits):  # no gate reads `param`, so <O> does not depend on it
        return 0.0
    (brick, col), = hits
    owner = [i for i, layer in enumerate(layers) if isinstance(layer, BrickLayer)
             for _ in layer.pairs]  # layer index of each brick
    split = owner[brick]
    first = owner.index(split)  # the split layer's first brick
    mats = _brick_unitaries(th[ids])
    prefix = _evolve(StateVector.zero(n).amplitudes, n, layers[:split], mats[:first])
    shift = math.pi / 4
    angles = np.tile(th[ids[brick]], (2, 1))
    angles[:, col] += (shift, -shift)
    vals = []
    for variant in _brick_unitaries(angles):
        suffix = mats[first:].copy()
        suffix[brick - first] = variant
        amps = _evolve(prefix.copy(), n, layers[split:], suffix)
        vals.append(expectation(StateVector(n, amps), observable))
    return vals[0] - vals[1]
