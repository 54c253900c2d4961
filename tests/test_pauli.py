"""Pauli observables and the array kernels of the propagation engine.

``_apply_rotation``, ``_apply_cz_layer``, ``_merge`` and ``_truncate`` are
the kernels that ``propagate`` runs; they are checked here against dense
matrices and against their ordering contracts.  The CZ layer kernel is also
checked bitwise against ``reference_cz``, a per-gate kernel.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgenbench.circuits import Circuit, Gate, ROTATION_KINDS
from qgenbench.pauli import PauliDimensionError, PauliString, PauliSum, PauliTerm
from qgenbench.propagation import (PropagationReport, TruncationPolicy, _TermArrays,
                                   _apply_cz_layer, _apply_rotation, _merge,
                                   _truncate, propagate)
from qgenbench.statevector import dense_pauli_matrix

LETTERS = "IXYZ"

# exponent k of the phase i**k in the single-qubit product a*b, indexed
# [a_letter][b_letter] with I=0 X=1 Y=2 Z=3: cyclic X->Y->Z->X gives +i (k=1),
# anti-cyclic gives -i (k=3), and products with I or a repeated letter are real
PHASE_EXP = np.array([[0, 0, 0, 0],
                      [0, 0, 1, 3],
                      [0, 3, 0, 1],
                      [0, 1, 3, 0]], dtype=np.int64)


def rand_string(rng, n):
    return PauliString(n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)))


def arrays(s: PauliSum) -> _TermArrays:
    """Engine arrays of a sum, sorted as ``propagate`` holds its input."""
    return _TermArrays.from_sum(s)


def rand_arrays(rng, n, k):
    """Up to k random terms with random sine counts."""
    s = PauliSum(n)
    for _ in range(k):
        s.add(PauliTerm(float(rng.normal()), rand_string(rng, n)))
    t = arrays(s)
    t.s = rng.integers(0, 4, len(t))
    return t


def one_term(p: PauliString, coefficient=1.0) -> _TermArrays:
    return arrays(PauliSum(p.n, [PauliTerm(coefficient, p)]))


def single(label, coefficient=1.0):
    return one_term(PauliString.from_label(label), coefficient)


def string_of(key, n):
    """PauliString of a packed (x << 32) | z engine key."""
    return PauliString(n, int(key) >> 32, int(key) & 0xFFFFFFFF)


def terms_of(t, n):
    """{label: (coefficient, sine count)} of engine arrays."""
    return {string_of(k, n).label(): (float(c), int(s)) for k, c, s in zip(t.k, t.c, t.s)}


def dense(t, n):
    out = np.zeros((2**n, 2**n), dtype=complex)
    for k, c in zip(t.k, t.c):
        out += c * dense_pauli_matrix(string_of(k, n))
    return out


def increasing(keys):
    return bool(np.all(keys[1:] > keys[:-1]))


def norm_sq(t):
    return float(np.sum(t.c**2))


def rand_rotation(rng, n, kinds=ROTATION_KINDS):
    kind = kinds[int(rng.integers(len(kinds)))]
    qubits = rng.choice(n, len(kind) - 1, replace=False)
    return Gate(kind, tuple(int(q) for q in qubits), float(rng.normal(0, 0.5)))


def rotation_unitary(gate, n):
    g = dense_pauli_matrix(gate.generator(n))
    return math.cos(gate.angle) * np.eye(2**n) - 1j * math.sin(gate.angle) * g


def cz_unitary(n, a, b):
    za = dense_pauli_matrix(PauliString.single(n, a, "Z"))
    zb = dense_pauli_matrix(PauliString.single(n, b, "Z"))
    return (np.eye(2**n) + za + zb - za @ zb) / 2


def test_multiply_xz():
    x, z, y = (dense_pauli_matrix(PauliString.from_label(l)) for l in "XZY")
    assert PHASE_EXP[1, 3] == 3  # XZ = -iY
    assert np.allclose(x @ z, -1j * y)


def test_multiply_identity():
    assert not PHASE_EXP[0].any() and not PHASE_EXP[:, 0].any()
    assert not np.diag(PHASE_EXP).any()


def test_multiply_matches_dense():
    for a in range(4):
        for b in range(4):
            pa, pb = PauliString.from_label(LETTERS[a]), PauliString.from_label(LETTERS[b])
            product = PauliString(1, pa.x ^ pb.x, pa.z ^ pb.z)
            assert np.allclose(dense_pauli_matrix(pa) @ dense_pauli_matrix(pb),
                               1j ** int(PHASE_EXP[a, b]) * dense_pauli_matrix(product))


def test_sum_add_dimension_mismatch():
    s = PauliSum(2)
    with pytest.raises(PauliDimensionError):
        s.add(PauliTerm(1.0, PauliString.from_label("X")))
    with pytest.raises(PauliDimensionError):
        PauliSum(2, [PauliTerm(1.0, PauliString.from_label("XYZ"))])


def test_commutes_trivial():
    assert len(_apply_rotation(single("X"), PauliString.from_label("Z"), 0.3)) == 2
    t = single("XX")
    assert _apply_rotation(t, PauliString.from_label("ZZ"), 0.3) is t


def test_commutes_matches_dense():
    rng = np.random.default_rng(2)
    for _ in range(40):
        p, g = rand_string(rng, 6), rand_string(rng, 6)
        a, b = dense_pauli_matrix(p), dense_pauli_matrix(g)
        out = _apply_rotation(one_term(p), g, 0.3)
        assert (len(out) == 1) == bool(np.allclose(a @ b, b @ a))


def test_conjugate_rotation_bad_generator():
    with pytest.raises(ValueError):
        Gate("CZ", (0, 1)).generator(2)


def reference_cz(t, a, b):
    """One CZ gate on engine arrays: about eight passes over every term."""
    one = np.uint64(1)
    xa = (t.k >> np.uint64(32 + a)) & one
    xb = (t.k >> np.uint64(32 + b)) & one
    flip = xa & xb & ((t.k >> np.uint64(a)) ^ (t.k >> np.uint64(b)))
    # negate the flipped coefficients by toggling their sign bit
    c = (t.c.view(np.uint64) ^ (flip << np.uint64(63))).view(np.float64)
    return _TermArrays(t.k ^ (xb << np.uint64(a)) ^ (xa << np.uint64(b)), c, t.s)


def layer_unitary(n, edges):
    u = np.eye(2**n)
    for a, b in edges:
        u = cz_unitary(n, a, b) @ u
    return u


TRIANGLE = ((0, 1), (1, 2), (2, 0))


@pytest.mark.parametrize("label,edges,expected_sign,expected", [
    ("XI", ((0, 1),), 1, "XZ"),
    ("ZI", ((0, 1),), 1, "ZI"),
    ("XX", ((0, 1),), 1, "YY"),
    ("XX", ((1, 0),), 1, "YY"),
    ("YX", ((0, 1),), -1, "XY"),
    ("XXX", TRIANGLE, -1, "XXX"),  # each edge inside supp(x) adds a sign
    ("XIX", TRIANGLE, 1, "YIY"),
    ("XYZ", (), 1, "XYZ"),
], ids=["XI-1-XZ", "ZI-1-ZI", "XX-1-YY", "XX-1-YY-reversed", "YX--1-XY", "XXX--1-XXX-triangle",
        "XIX-1-YIY-triangle", "XYZ-1-XYZ-empty"])
def test_conjugate_cz_rules(label, edges, expected_sign, expected):
    out = terms_of(_apply_cz_layer(single(label), edges), len(label))
    assert out == {expected: (float(expected_sign), 0)}


def test_conjugate_cz_matches_dense():
    rng = np.random.default_rng(3)
    n = 4
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for _ in range(40):
        t = rand_arrays(rng, n, 6)
        edges = tuple(pair[::-1] if rng.random() < 0.5 else pair
                      for pair in pairs if rng.random() < 0.5)
        u = layer_unitary(n, edges)
        assert np.allclose(dense(_apply_cz_layer(t, edges), n), u @ dense(t, n) @ u, atol=1e-12)


def test_conjugate_cz_involution():
    rng = np.random.default_rng(4)
    for edges in (((1, 3),), ((0, 1), (1, 2), (2, 0)), ((2, 0), (2, 1), (2, 3), (2, 4))):
        for _ in range(20):
            t = rand_arrays(rng, 5, 8)
            back = _apply_cz_layer(_apply_cz_layer(t, edges), edges)
            for field in ("k", "c", "s"):
                assert np.array_equal(getattr(back, field), getattr(t, field))


@st.composite
def cz_layers(draw, n):
    """Empty, triangle, star, complete or random edge sets on n qubits, in
    any order and orientation."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    shapes = ["empty", "star", "complete", "random"] + (["triangle"] if n >= 3 else [])
    shape = draw(st.sampled_from(shapes))
    if shape == "empty" or n == 1:
        return ()
    order = draw(st.permutations(range(n)))
    if shape == "triangle":
        edges = [(order[0], order[1]), (order[1], order[2]), (order[0], order[2])]
    elif shape == "star":
        edges = [(order[0], leaf) for leaf in order[1:draw(st.integers(2, n))]]
    elif shape == "complete":
        edges = pairs
    else:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    edges = draw(st.permutations(edges))
    return tuple(e[::-1] if draw(st.booleans()) else e for e in edges)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_cz_layer_matches_gate_by_gate_bitwise(data):
    # n up to 32 reaches every byte of the packed x half
    n = data.draw(st.integers(1, 32))
    masks = st.integers(0, 2**n - 1)
    strings = data.draw(st.lists(st.tuples(masks, masks), unique=True, max_size=12))
    coeffs = st.floats(-2.0, 2.0, allow_nan=False)
    t = _TermArrays([(x << 32) | z for x, z in strings],
                    data.draw(st.lists(coeffs, min_size=len(strings), max_size=len(strings))),
                    data.draw(st.lists(st.integers(0, 5), min_size=len(strings),
                                       max_size=len(strings))))
    edges = data.draw(cz_layers(n))
    want = t
    for a, b in edges:
        want = reference_cz(want, a, b)
    got = _apply_cz_layer(t, edges)
    assert np.array_equal(got.k, want.k)
    assert np.array_equal(got.c.view(np.uint64), want.c.view(np.uint64))
    assert np.array_equal(got.s, want.s)


def test_conjugate_rotation_split():
    out = terms_of(_apply_rotation(single("Z"), PauliString.from_label("X"), math.pi / 8), 1)
    assert out["Z"][0] == pytest.approx(0.7071067812, abs=1e-9)
    assert out["Z"][1] == 0
    assert out["Y"][0] == pytest.approx(0.7071067812, abs=1e-9)
    assert out["Y"][1] == 1


def test_conjugate_rotation_commuting_unchanged():
    t = single("X")
    out = _apply_rotation(t, PauliString.from_label("X"), 0.7)
    assert out is t
    assert terms_of(out, 1) == {"X": (1.0, 0)}


def test_conjugate_rotation_matches_dense():
    rng = np.random.default_rng(5)
    n = 4
    for kind in ROTATION_KINDS:
        for _ in range(10):
            gate = rand_rotation(rng, n, (kind,))
            t = rand_arrays(rng, n, 6)
            out = _apply_rotation(t, gate.generator(n), gate.angle)
            u = rotation_unitary(gate, n)
            assert np.allclose(dense(out, n), u.conj().T @ dense(t, n) @ u, atol=1e-12)


def test_expectation_zero_state():
    exact = TruncationPolicy.exact_mode()

    def read(s):
        return propagate(Circuit(s.n, ()), s, exact).expectation

    assert read(PauliSum.from_label(1.0, "Z")) == 1.0
    assert read(PauliSum.from_label(1.0, "X")) == 0.0
    s = PauliSum.from_label(0.5, "ZZ")
    s.add(PauliTerm(0.3, PauliString.from_label("XI")))
    assert read(s) == pytest.approx(0.5)


def test_norm_and_hermiticity_through_gates():
    rng = np.random.default_rng(6)
    n = 4
    t = rand_arrays(rng, n, 6)
    norm0 = norm_sq(t)
    for _ in range(30):
        if rng.random() < 0.5:
            gate = rand_rotation(rng, n)
            t = _apply_rotation(t, gate.generator(n), gate.angle)
        else:
            a, b = rng.choice(n, 2, replace=False)
            t = _apply_cz_layer(t, ((int(a), int(b)),))
        assert norm_sq(t) <= norm0 + 1e-12
        assert t.c.dtype == np.float64  # real coefficients: the sum stays Hermitian


def test_norm_conserved_without_merge_collisions():
    # one rotation per qubit of a single string: every branch differs in
    # some qubit, so no two terms ever meet in a merge
    rng = np.random.default_rng(16)
    t = single("ZXYZ", 0.8)
    norm0 = norm_sq(t)
    for q, letter in enumerate("XZXY"):
        t = _apply_rotation(t, PauliString.single(4, q, letter), float(rng.normal(0, 0.3)))
    assert len(t) == 16
    assert norm_sq(t) == pytest.approx(norm0, abs=1e-12)


def test_sine_count_bounded_by_rotation_count():
    rng = np.random.default_rng(7)
    t = single("ZZZ")
    rotations = 12
    for _ in range(rotations):
        gate = rand_rotation(rng, 3)
        t = _apply_rotation(t, gate.generator(3), gate.angle)
    assert t.s.max() <= rotations


def test_anticommuting_split_adds_one_term():
    s = PauliSum.from_label(1.0, "ZI")
    s.add(PauliTerm(0.5, PauliString.from_label("IZ")))
    out = _apply_rotation(arrays(s), PauliString.from_label("XI"), 0.3)
    assert len(out) == 3  # ZI splits into ZI and YI; IZ commutes


def test_merge_kernel_sums_duplicates():
    # packed keys Z=1, X=2**32, Y=2**32+1: Z in both sets, X in the first
    # only, and Y in both, cancelling to exact zero; the first set unsorted
    x, y, z = 2**32, 2**32 + 1, 1
    t = _merge(_TermArrays([y, x, z], [0.125, 2.0, 0.5], [2, 0, 3]),
               _TermArrays([z, y], [0.25, -0.125], [1, 2]))
    assert terms_of(t, 1) == {"X": (2.0, 0), "Z": (0.75, 1)}
    assert increasing(t.k)


@given(st.integers(0, 2**5 - 1), st.integers(0, 2**5 - 1),
       st.integers(0, 2**5 - 1), st.integers(0, 2**5 - 1))
@settings(max_examples=60, deadline=None)
def test_commutes_symmetric(x1, z1, x2, z2):
    p, q = PauliString(5, x1, z1), PauliString(5, x2, z2)
    p_splits = len(_apply_rotation(one_term(p), q, 0.3)) == 2
    q_splits = len(_apply_rotation(one_term(q), p, 0.3)) == 2
    assert p_splits == q_splits


@given(st.integers(0, 2**4 - 1), st.integers(0, 2**4 - 1))
@settings(max_examples=60, deadline=None)
def test_self_product_is_identity(x, z):
    # P P = I, so P commutes with itself and a rotation about P leaves it fixed
    p = PauliString(4, x, z)
    t = one_term(p)
    assert _apply_rotation(t, p, 0.4) is t


def test_rotation_returns_increasing_keys():
    rng = np.random.default_rng(8)
    n = 5
    unsorted_splits = 0
    for _ in range(60):
        t = rand_arrays(rng, n, 12)
        assert increasing(t.k)
        a, b = (int(q) for q in rng.choice(n, 2, replace=False))
        shuffled = _apply_cz_layer(t, ((a, b),))  # CZ permutes keys out of order
        for start in (t, shuffled):
            gate = rand_rotation(rng, n)
            out = _apply_rotation(start, gate.generator(n), gate.angle)
            if out is not start:  # a rotation that splits nothing returns its input
                assert increasing(out.k)
                unsorted_splits += not increasing(start.k)
    assert unsorted_splits >= 10


def test_truncate_keeps_lowest_keys_among_ties_at_cap():
    # |c| = 0.25 ties on keys 2, 4, 6 and 9; the cap of 3 keeps 0.5 and the
    # two lowest tied keys
    t = _TermArrays(np.array([1, 2, 3, 4, 6, 9], dtype=np.uint64),
                    [0.5, -0.25, 0.125, 0.25, 0.25, -0.25], [0] * 6)
    report = PropagationReport(expectation=0.0)
    out = _truncate(t, TruncationPolicy(max_terms=3), report)
    assert out.k.tolist() == [1, 2, 4]
    assert out.c.tolist() == [0.5, -0.25, 0.25]
    assert report.dropped_mass == 0.25 + 0.25 + 0.125


def test_cap_dropped_mass_is_descending_sum():
    # magnitudes on a coarse grid tie often; the lost ones must be summed
    # largest first, which fixes the rounding of the running total
    rng = np.random.default_rng(9)
    for cap in (1, 37, 400, 999):
        c = rng.integers(1, 40, 1000) / 7.0 * rng.choice([-1.0, 1.0], 1000)
        c[::7] = rng.normal(size=len(c[::7]))
        t = _TermArrays(np.arange(1000, dtype=np.uint64), c, np.zeros(1000, dtype=np.int64))
        report = PropagationReport(expectation=0.0)
        out = _truncate(t, TruncationPolicy(max_terms=cap), report)
        order = np.argsort(-np.abs(c), kind="stable")
        assert out.k.tolist() == sorted(order[:cap].tolist())
        assert report.dropped_mass == float(np.sum(np.abs(c[order[cap:]])))
