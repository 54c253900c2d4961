"""Dense exact simulation for n <= ~24 qubits.

Qubit 0 is the least-significant bit of the amplitude index.  This engine is
the ground-truth oracle for the propagation, shadow, and experiment modules.

A circuit is planned once, then run: `_plan` turns its layers into a list of
ops, each one dense product on a block of consecutive qubits, a 2-qubit
product or a CZ sign flip, with every matrix built when the plan is.

- Rotation layers run as ceil(n/4) products with 16x16 matrices: the
  Kronecker product of each four consecutive qubits' 2x2 rotations, the last
  block taking the n mod 4 qubits left over.  Every rotation layer's blocks
  come from one broadcast product.
- Each brick's 15 rotations are fused into one 4x4 unitary, all bricks in
  one call.  Two neighbouring chain bricks (a, a+1), (a+2, a+3), listed one
  after the other, run as one 16x16 block, all such pairs from one broadcast
  product; any other chain brick runs as a 4x4 block.  Reversed or
  non-adjacent pairs take the 2-qubit op.
- A CZ layer negates the |11> slice of a strided view per edge (exact).

`_apply_op` is the one kernel: it runs an op on a (B, 2**n) stack of
states, in place, each row through the product a single state would take.
`run` runs the plan on one row.  `parameter_shift_gradient` runs its two
shifted states as the rows of one (2, 2**n) stack: the layers before the
shifted brick's layer once, on one row, and every later one once on the
stack.  `apply_gate` builds one op per gate (a 1-qubit rotation on qubit q
is a block at lo = q) and copies the state first, so it keeps its
non-mutating contract; `run` and `parameter_shift_gradient` agree with a
fold of `apply_gate` over `Circuit.gates()` to 1e-12.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .circuits import (BRICK_PARAMS, ROTATION_KINDS, BrickLayer, Circuit, CZLayer, Gate,
                       RotationLayer)
from .pauli import PauliString, PauliSum

MAX_SV_QUBITS = 24


def _zeros(rows: int, n: int) -> np.ndarray:
    """A (rows, 2**n) stack of |0...0> states."""
    if n > MAX_SV_QUBITS:
        raise ValueError(f"statevector engine caps at {MAX_SV_QUBITS} qubits")
    amps = np.zeros((rows, 2**n), dtype=np.complex128)
    amps[:, 0] = 1.0
    return amps


@dataclass
class StateVector:
    n: int
    amplitudes: np.ndarray

    @classmethod
    def zero(cls, n: int) -> "StateVector":
        return cls(n, _zeros(1, n)[0])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


# --- in-place kernels ----------------------------------------------------
# Every kernel takes a (B, 2**n) stack of states and runs each row through
# the product a single state would take, so a row's amplitudes are the same
# bits whatever the stack height.  Views are taken with copy=False: a kernel
# that wrote to a reshaped copy would silently do nothing, so numpy raises
# instead.


def _pair_view(amps: np.ndarray, a: int, b: int) -> np.ndarray:
    """View with axes (row, rest, bit of max(a, b), rest, bit of min(a, b), rest)."""
    lo, hi = min(a, b), max(a, b)
    return amps.reshape((len(amps), -1, 2, 2 ** (hi - lo - 1), 2, 2**lo), copy=False)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the last two axes over stacks of square matrices, one broadcast product."""
    p, q = a.shape[-1], b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], p * q, p * q)


# Widest product a block is widened to so that it runs as one flat product.
_FLAT_WIDTH = 32


def _block_op(lo: int, mat: np.ndarray) -> tuple:
    """The op of `mat` on the consecutive qubits lo, lo+1, ...

    `mat` (2**w x 2**w) indexes the block's bits with qubit lo the least
    significant, as np.kron(m_{w-1}, ..., m_0) does.  A block starting at
    qubit lo > 0 would take one product per run of 2**lo amplitudes, tiny
    ones for lo < 4; so when kron(mat, identity on qubits 0..lo-1) is at
    most `_FLAT_WIDTH` wide, that runs instead, as one flat product.
    """
    if len(mat) << lo <= _FLAT_WIDTH:
        if lo:
            mat = _kron(mat, np.eye(1 << lo))
        return ("flat", mat.T)
    return ("view", mat, lo)  # one 2**w x 2**lo product per value of the qubits above


def _apply_op(amps: np.ndarray, op: tuple) -> None:
    """Run one op on the (B, 2**n) stack `amps`, in place.

    Ops: ("flat", mat.T) and ("view", mat, lo) from `_block_op`;
    ("2q", a, b, mat) for a 4x4 `mat` on qubits a, b indexing
    2*bit_b + bit_a; ("cz", a, b).
    """
    kind = op[0]
    if kind == "flat":
        flat = amps.reshape((len(amps), -1, len(op[1])), copy=False)
        flat[...] = flat @ op[1]
    elif kind == "view":
        _, mat, lo = op
        view = amps.reshape((-1, len(mat), 1 << lo), copy=False)
        view[...] = np.matmul(mat, view)
    elif kind == "cz":
        _pair_view(amps, op[1], op[2])[:, :, 1, :, 1, :] *= -1
    else:  # "2q": bring (qubit b, qubit a) forward, one 4 x 2**(n-2) product per row
        _, a, b, mat = op
        front = _pair_view(amps, a, b).transpose((0, 2, 4, 1, 3, 5) if a < b
                                                 else (0, 4, 2, 1, 3, 5))
        front[...] = np.matmul(mat, front.reshape(len(amps), 4, -1)).reshape(front.shape)


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


def _rotations(angles, gen: np.ndarray) -> np.ndarray:
    """exp(-i g G) = cos(g) 1 - i sin(g) G for each angle g, Pauli matrix G.

    `gen` broadcasts against the angles' shape: one generator, or one per row.
    """
    g = np.asarray(angles, dtype=float)[..., None, None]
    return np.cos(g) * np.eye(gen.shape[-1]) - 1j * np.sin(g) * gen


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


# --- circuit plans ---------------------------------------------------------


def _brick_steps(pairs: Sequence) -> Iterator:
    """(i, fused) per op of a brick layer; a fused op runs bricks i and i+1 as one block.

    Two neighbouring chain bricks (a, a+1), (a+2, a+3), listed one after the
    other, fuse.
    """
    i = 0
    while i < len(pairs):
        a, b = pairs[i]
        fused = b == a + 1 and i + 1 < len(pairs) and tuple(pairs[i + 1]) == (a + 2, a + 3)
        yield i, fused
        i += 1 + fused


def _plan(n: int, layers: Sequence, bricks: np.ndarray) -> list:
    """The ops of each layer, in order, every matrix built here once.

    `bricks` holds the fused 4x4 unitary of every brick in `layers`, in order.
    All rotation layers' 16x16 blocks come from one broadcast product over
    their angles, padded with zeros to a multiple of four qubits (zero-angle
    rotations are exact identities; the last block is cut to its
    2**(n mod 4) top-left entries), and all fused brick pairs from another.
    """
    rotation = [layer for layer in layers if isinstance(layer, RotationLayer)]
    per_layer = -(-n // 4)  # blocks
    angles = np.zeros((len(rotation), 4 * per_layer))
    angles[:, :n] = np.array([layer.angles for layer in rotation], dtype=float).reshape(-1, n)
    gens = np.array([_GENERATORS[layer.axis] for layer in rotation]).reshape(-1, 1, 2, 2)
    m = _rotations(angles, gens).reshape(len(rotation), per_layer, 4, 2, 2)
    blocks = iter(_kron(_kron(m[:, :, 3], m[:, :, 2]), _kron(m[:, :, 1], m[:, :, 0])))
    fused, k = [], 0  # index in `bricks` of each fused pair's first brick
    for layer in layers:
        if isinstance(layer, BrickLayer):
            fused += [k + i for i, fuse in _brick_steps(layer.pairs) if fuse]
            k += len(layer.pairs)
    idx = np.array(fused, dtype=np.intp)
    quads = dict(zip(fused, _kron(bricks[idx + 1], bricks[idx])))

    plan, k = [], 0
    for layer in layers:
        if isinstance(layer, RotationLayer):
            row, last = next(blocks), 4 * (per_layer - 1)
            ops = [_block_op(lo, block) for lo, block in zip(range(0, last, 4), row)]
            side = 1 << (n - last)
            ops.append(_block_op(last, row[-1][:side, :side]))
        elif isinstance(layer, CZLayer):
            ops = [("cz", a, b) for a, b in layer.edges]
        elif isinstance(layer, BrickLayer):
            ops = []
            for i, fuse in _brick_steps(layer.pairs):
                a, b = layer.pairs[i]
                if b != a + 1:  # reversed or non-adjacent pair
                    ops.append(("2q", a, b, bricks[k + i]))
                else:
                    ops.append(_block_op(a, quads[k + i] if fuse else bricks[k + i]))
            k += len(layer.pairs)
        else:
            raise TypeError(f"unknown layer {layer!r}")
        plan.append(ops)
    return plan


def _run_ops(amps: np.ndarray, plan: Iterable) -> None:
    """Apply the ops of each layer in `plan` to the stack `amps`, in place."""
    for ops in plan:
        for op in ops:
            _apply_op(amps, op)


@functools.lru_cache(maxsize=1)
def _basis_index(dim: int) -> np.ndarray:
    """Read-only basis indices 0..dim-1, kept for the most recent dimension."""
    idx = np.arange(dim, dtype=np.uint64)
    idx.flags.writeable = False
    return idx


def apply_pauli(amps: np.ndarray, p: PauliString) -> np.ndarray:
    """P|psi> via index arithmetic: P = i^{#Y} (prod X)(prod Z).

    A diagonal string (no X or Y) permutes nothing, so it skips the gather.
    """
    src = _basis_index(len(amps))
    phase = (1j) ** ((p.x & p.z).bit_count() % 4)
    if p.x:
        src = src ^ np.uint64(p.x)
        out = amps[src] * phase
    else:
        out = amps * phase
    parity = np.bitwise_count(src & np.uint64(p.z)) & 1
    out[parity == 1] *= -1
    return out


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Unitary action of one gate; convention R(g) = exp(-i*g*G).

    Returns a new state and leaves `state` untouched.
    """
    if gate.kind == "CZ":
        op = ("cz", *gate.qubits)
    elif gate.kind in ROTATION_KINDS:
        gen = _GENERATORS[gate.kind[1:]]
        mat = _rotations([gate.angle], gen)[0]
        op = _block_op(*gate.qubits, mat) if len(gen) == 2 else ("2q", *gate.qubits, mat)
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    amps = state.amplitudes.copy()
    _apply_op(amps[None], op)
    return StateVector(state.n, amps)


def _resolve_theta(circuit: Circuit, theta) -> np.ndarray:
    """`theta` through the circuit's own IR check, or the circuit's theta."""
    return circuit.theta if theta is None else circuit.with_theta(theta).theta


def run(circuit: Circuit, theta: Optional[Sequence[float]] = None) -> StateVector:
    """Apply all layers in order to |0...0>."""
    th = _resolve_theta(circuit, theta)
    state = StateVector.zero(circuit.n)
    _run_ops(state.amplitudes[None], _plan(circuit.n, circuit.layers,
                                           _brick_unitaries(th[_brick_ids(circuit.layers)])))
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

    The shifted runs are the two rows of one (2, 2**n) stack, planned as
    one circuit: the layers, then the split layer (the one that holds
    `param`) again, as row 1's copy.  The layers before the split layer do
    not depend on `param`: they run once, on row 0, which is then copied to
    row 1.  The split layer runs once per row, with that row's shift, and
    every later layer once on the stack.
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
    angles = th[np.concatenate((ids, ids[first:first + len(layers[split].pairs)]))]
    shift = math.pi / 4
    angles[[brick, brick + len(ids) - first], col] += (shift, -shift)
    plan = _plan(n, layers + (layers[split],), _brick_unitaries(angles))
    stack = _zeros(2, n)
    _run_ops(stack[:1], plan[:split])
    stack[1] = stack[0]
    _run_ops(stack[:1], plan[split:split + 1])
    _run_ops(stack[1:], plan[-1:])
    _run_ops(stack, plan[split + 1:-1])
    del plan  # its matrices go before expectation's temporaries come
    plus, minus = (expectation(StateVector(n, amps), observable) for amps in stack)
    return plus - minus
