"""Test-only reference for the statevector engine: one layer at a time.

This is the engine before circuits were planned: each run builds every
layer's blocks as it reaches the layer, widens a block and fuses a brick
pair at each call, and a gradient evolves a separate prefix buffer and runs
the two shifted suffixes one after the other from copies of it.  Its
kernels are its own; the brick fusion, the generators, the zero state and
`expectation` come from the package.  The tests compare `run` and
`parameter_shift_gradient` to it bitwise.
"""

import math

import numpy as np

from qgenbench.circuits import BrickLayer, CZLayer, RotationLayer
from qgenbench.statevector import (StateVector, _brick_ids, _brick_unitaries,
                                   dense_pauli_matrix, expectation)
from qgenbench.pauli import PauliString

_GENERATORS = {label: dense_pauli_matrix(PauliString.from_label(label)) for label in "XYZ"}
_FLAT_WIDTH = 32


def _kron(a, b):
    p, q = a.shape[-1], b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], p * q, p * q)


def _rotations(angles, gen):
    g = np.asarray(angles, dtype=float)[:, None, None]
    return np.cos(g) * np.eye(len(gen)) - 1j * np.sin(g) * gen


def _apply_2q_inplace(amps, n, a, b, mat):
    lo, hi = min(a, b), max(a, b)
    view = amps.reshape((2 ** (n - hi - 1), 2, 2 ** (hi - lo - 1), 2, 2**lo), copy=False)
    front = view.transpose((1, 3, 0, 2, 4) if a < b else (3, 1, 0, 2, 4))
    front[...] = (mat @ front.reshape(4, -1)).reshape(front.shape)


def _apply_block_inplace(amps, n, lo, mat):
    width = len(mat) << lo
    if width <= _FLAT_WIDTH:
        if lo:
            mat = _kron(mat, np.eye(1 << lo))
        flat = amps.reshape((-1, width), copy=False)
        flat[...] = flat @ mat.T
    else:
        view = amps.reshape((-1, len(mat), 1 << lo), copy=False)
        view[...] = np.matmul(mat, view)


def _cz_inplace(amps, n, a, b):
    lo, hi = min(a, b), max(a, b)
    amps.reshape((2 ** (n - hi - 1), 2, 2 ** (hi - lo - 1), 2, 2**lo),
                 copy=False)[:, 1, :, 1, :] *= -1


def _rotation_blocks(angles, gen):
    """16x16 products of each four consecutive qubits' rotations, lowest block first."""
    n = len(angles)
    padded = np.zeros(-(-n // 4) * 4)
    padded[:n] = angles
    m = _rotations(padded, gen).reshape(-1, 4, 2, 2)
    blocks = list(_kron(_kron(m[:, 3], m[:, 2]), _kron(m[:, 1], m[:, 0])))
    left = 1 << (n - 4 * (len(blocks) - 1))
    blocks[-1] = blocks[-1][:left, :left]
    return blocks


def _apply_brick_layer(amps, n, pairs, mats):
    """One brick layer, `mats` holding each brick's fused 4x4 in pair order."""
    i = 0
    while i < len(pairs):
        a, b = pairs[i]
        if b != a + 1:
            _apply_2q_inplace(amps, n, a, b, mats[i])
            i += 1
        elif i + 1 < len(pairs) and tuple(pairs[i + 1]) == (a + 2, a + 3):
            _apply_block_inplace(amps, n, a, _kron(mats[i + 1], mats[i]))
            i += 2
        else:
            _apply_block_inplace(amps, n, a, mats[i])
            i += 1


def _evolve(amps, n, layers, bricks):
    """Apply `layers` to `amps` in place, one layer at a time; returns `amps`."""
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
    return amps


def reference_run(circuit):
    """The state `run(circuit)` returns."""
    th = circuit.theta
    amps = StateVector.zero(circuit.n).amplitudes
    return _evolve(amps, circuit.n, circuit.layers,
                   _brick_unitaries(th[_brick_ids(circuit.layers)]))


def reference_gradient(circuit, param, observable):
    """`parameter_shift_gradient(circuit, param, observable)`: two suffix runs from a prefix copy."""
    th = circuit.theta
    n, layers = circuit.n, circuit.layers
    ids = _brick_ids(layers)
    hits = np.argwhere(ids == param)
    if not len(hits):
        return 0.0
    (brick, col), = hits
    owner = [i for i, layer in enumerate(layers) if isinstance(layer, BrickLayer)
             for _ in layer.pairs]
    split = owner[brick]
    first = owner.index(split)
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
