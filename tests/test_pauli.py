"""Pauli observables and the array kernels of the propagation engine.

``_rotate``, ``_apply_cz_layer`` and ``_truncate`` are the kernels that
``propagate`` runs; they are checked here against dense matrices and against
their ordering contracts.  Each fast kernel is also checked bitwise against a
reference: the CZ layer against ``reference_cz``, a per-gate kernel, and the
fused rotation against the chain ``reference_rotation`` -> ``reference_merge``
-> ``reference_truncate``, which sorts and compacts every term twice.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgenbench.circuits import Circuit, Gate, ROTATION_KINDS
from qgenbench.pauli import COEFF_EPS, PauliDimensionError, PauliString, PauliSum, PauliTerm
from qgenbench.propagation import (PropagationReport, ResourceLimitError, TruncationPolicy,
                                   _TermArrays, _apply_cz_layer, _key, _rotate, _truncate,
                                   propagate)
from qgenbench.statevector import dense_pauli_matrix

LETTERS = "IXYZ"
EXACT = TruncationPolicy.exact_mode()

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


def factors(angle):
    """The branch factors cos(2*angle) and sin(2*angle) that ``_rotate`` takes."""
    return math.cos(2 * angle), math.sin(2 * angle)


def rotate(t: _TermArrays, gen: PauliString, angle: float) -> _TermArrays:
    """The rotation kernel about `gen` with nothing truncated."""
    return _rotate(t, _key(gen.x, gen.z), *factors(angle), EXACT,
                   PropagationReport(expectation=0.0))


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
    assert len(rotate(single("X"), PauliString.from_label("Z"), 0.3)) == 2
    t = single("XX")
    assert rotate(t, PauliString.from_label("ZZ"), 0.3) is t


def test_commutes_matches_dense():
    rng = np.random.default_rng(2)
    for _ in range(40):
        p, g = rand_string(rng, 6), rand_string(rng, 6)
        a, b = dense_pauli_matrix(p), dense_pauli_matrix(g)
        out = rotate(one_term(p), g, 0.3)
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
    want = want.take(np.argsort(want.k))  # the layer hands its terms back in key order
    got = _apply_cz_layer(t, edges)
    assert np.array_equal(got.k, want.k)
    assert np.array_equal(got.c.view(np.uint64), want.c.view(np.uint64))
    assert np.array_equal(got.s, want.s)


def test_conjugate_rotation_split():
    out = terms_of(rotate(single("Z"), PauliString.from_label("X"), math.pi / 8), 1)
    assert out["Z"][0] == pytest.approx(0.7071067812, abs=1e-9)
    assert out["Z"][1] == 0
    assert out["Y"][0] == pytest.approx(0.7071067812, abs=1e-9)
    assert out["Y"][1] == 1


def test_conjugate_rotation_commuting_unchanged():
    t = single("X")
    out = rotate(t, PauliString.from_label("X"), 0.7)
    assert out is t
    assert terms_of(out, 1) == {"X": (1.0, 0)}


def test_conjugate_rotation_matches_dense():
    rng = np.random.default_rng(5)
    n = 4
    for kind in ROTATION_KINDS:
        for _ in range(10):
            gate = rand_rotation(rng, n, (kind,))
            t = rand_arrays(rng, n, 6)
            out = rotate(t, gate.generator(n), gate.angle)
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
            t = rotate(t, gate.generator(n), gate.angle)
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
        t = rotate(t, PauliString.single(4, q, letter), float(rng.normal(0, 0.3)))
    assert len(t) == 16
    assert norm_sq(t) == pytest.approx(norm0, abs=1e-12)


def test_sine_count_bounded_by_rotation_count():
    rng = np.random.default_rng(7)
    t = single("ZZZ")
    rotations = 12
    for _ in range(rotations):
        gate = rand_rotation(rng, 3)
        t = rotate(t, gate.generator(3), gate.angle)
    assert t.s.max() <= rotations


def test_anticommuting_split_adds_one_term():
    s = PauliSum.from_label(1.0, "ZI")
    s.add(PauliTerm(0.5, PauliString.from_label("IZ")))
    out = rotate(arrays(s), PauliString.from_label("XI"), 0.3)
    assert len(out) == 3  # ZI splits into ZI and YI; IZ commutes


def test_merge_kernel_sums_duplicates():
    # the reference merge: packed keys Z=1, X=2**32, Y=2**32+1: Z in both
    # sets, X in the first only, and Y in both, cancelling to exact zero; the
    # first set unsorted
    x, y, z = 2**32, 2**32 + 1, 1
    t = reference_merge(_TermArrays([y, x, z], [0.125, 2.0, 0.5], [2, 0, 3]),
                        _TermArrays([z, y], [0.25, -0.125], [1, 2]))
    assert terms_of(t, 1) == {"X": (2.0, 0), "Z": (0.75, 1)}
    assert increasing(t.k)


@given(st.integers(0, 2**5 - 1), st.integers(0, 2**5 - 1),
       st.integers(0, 2**5 - 1), st.integers(0, 2**5 - 1))
@settings(max_examples=60, deadline=None)
def test_commutes_symmetric(x1, z1, x2, z2):
    p, q = PauliString(5, x1, z1), PauliString(5, x2, z2)
    p_splits = len(rotate(one_term(p), q, 0.3)) == 2
    q_splits = len(rotate(one_term(q), p, 0.3)) == 2
    assert p_splits == q_splits


@given(st.integers(0, 2**4 - 1), st.integers(0, 2**4 - 1))
@settings(max_examples=60, deadline=None)
def test_self_product_is_identity(x, z):
    # P P = I, so P commutes with itself and a rotation about P leaves it fixed
    p = PauliString(4, x, z)
    t = one_term(p)
    assert rotate(t, p, 0.4) is t


def test_rotation_returns_increasing_keys():
    # the rotation kernel takes its terms in key order and never sorts them,
    # so the CZ layer, whose map permutes keys, must hand them back in order
    rng = np.random.default_rng(8)
    n = 5
    permuted = splits = 0
    for _ in range(60):
        t = rand_arrays(rng, n, 12)
        assert increasing(t.k)
        a, b = (int(q) for q in rng.choice(n, 2, replace=False))
        after_cz = _apply_cz_layer(t, ((a, b),))
        assert increasing(after_cz.k)
        permuted += not increasing(reference_cz(t, a, b).k)
        for start in (t, after_cz):
            gate = rand_rotation(rng, n)
            out = rotate(start, gate.generator(n), gate.angle)
            if out is not start:  # a rotation that splits nothing returns its input
                assert increasing(out.k)
                splits += 1
    assert permuted >= 10 and splits >= 60


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


# --- reference rotation chain ----------------------------------------------
# The rotation, merge and truncation kernels that _rotate fuses: the sine
# branch is signed with a float multiply, merged into every term with one
# sort and compacted, then masked and compacted again by the truncation.

def reference_merge(a: _TermArrays, b: _TermArrays) -> _TermArrays:
    """Union of two term sets, each with distinct keys, sorted by key.

    A key in both gets the coefficients added (a's first) and the smaller
    sine count; terms with |c| < COEFF_EPS are dropped.
    """
    k = np.concatenate([a.k, b.k])
    order = np.argsort(k, kind="stable")
    k = k[order]
    c = np.concatenate([a.c, b.c])[order]
    s = np.concatenate([a.s, b.s])[order]
    dup = np.flatnonzero(k[1:] == k[:-1])
    c[dup] += c[dup + 1]
    s[dup] = np.minimum(s[dup], s[dup + 1])
    keep = np.abs(c) >= COEFF_EPS
    keep[dup + 1] = False
    t = _TermArrays(k, c, s)
    return t if keep.all() else t.take(np.flatnonzero(keep))


def reference_rotation(t: _TermArrays, gen: PauliString, angle: float) -> _TermArrays:
    """Conjugate by exp(-i*angle*G) and merge; `t` itself when nothing splits."""
    anti = np.flatnonzero(np.bitwise_count(t.k & np.uint64(_key(gen.z, gen.x))) & 1)
    if not len(anti):
        return t
    c2, s2 = math.cos(2 * angle), math.sin(2 * angle)
    ak, ac, asn = t.k[anti], t.c[anti], t.s[anti]
    sk = ak ^ np.uint64(_key(gen.x, gen.z))
    hi = np.uint64(32)
    ph = (np.bitwise_count((ak >> hi) & ak).astype(np.int64)
          + 2 * np.bitwise_count(ak & np.uint64(gen.z << 32))
          - np.bitwise_count((sk >> hi) & sk)
          + (gen.x & gen.z).bit_count() + 1)
    sign = np.where(ph % 4 == 0, 1.0, -1.0)
    c = t.c.copy()
    c[anti] = ac * c2
    sine = _TermArrays(sk, ac * s2 * sign, asn + 1)
    return reference_merge(_TermArrays(t.k, c, t.s), sine)


def reference_truncate(t: _TermArrays, pol: TruncationPolicy,
                       report: PropagationReport) -> _TermArrays:
    """Sine cutoff over every term, then the term cap."""
    if pol.exact:
        if pol.max_terms is not None and len(t) > pol.max_terms:
            report.final_terms = len(t)
            raise ResourceLimitError("exact mode exceeded max_terms", report)
        return t
    if pol.sine_cutoff is not None:
        drop = t.s > pol.sine_cutoff
        if drop.any():
            report.dropped_mass += float(np.sum(np.abs(t.c[drop])))
            t = t.take(np.flatnonzero(~drop))
    if pol.max_terms is not None and len(t) > pol.max_terms:
        mag = np.abs(t.c)
        edge = np.partition(mag, len(t) - pol.max_terms)[len(t) - pol.max_terms]
        keep = mag > edge
        ties = np.flatnonzero(mag == edge)
        keep[ties[:pol.max_terms - np.count_nonzero(keep)]] = True
        report.dropped_mass += float(-np.sum(np.sort(-mag[~keep])))
        t = t.take(np.flatnonzero(keep))
    return t


def reference_step(t, gen, angle, pol, report):
    out = reference_rotation(t, gen, angle)
    return out if out is t else reference_truncate(out, pol, report)


# Multiples of pi/8: at 2*angle = pi/2 or pi a cosine or sine factor is
# about 1e-16, so that branch falls under COEFF_EPS, and sine images that
# cancel exactly reach it too.  Grid coefficients make magnitudes tie at the cap.
SNAPPED = st.one_of(st.integers(-8, 8).map(lambda k: k * math.pi / 8),
                    st.floats(-1.6, 1.6, allow_nan=False))
GRID_COEFFS = st.one_of(st.sampled_from([0.125, 0.25, 0.5, 1.0]), st.floats(0.01, 2.0))


@st.composite
def rotation_steps(draw):
    """(terms, generator, angle, policy): terms as truncation leaves them
    (distinct keys in increasing order, |c| >= COEFF_EPS, sine counts within
    the cutoff); about half the sets pass through a CZ layer.  Half the
    strings come with their sine image under the generator, so the merge
    meets duplicates."""
    n = draw(st.integers(1, 8) | st.integers(9, 32))
    letter = draw(st.sampled_from("XYZ"))
    qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 2), unique=True))
    gen = Gate("R" + letter * len(qubits), tuple(qubits)).generator(n)
    masks = st.integers(0, 2**n - 1)
    keys = set()
    for x, z, paired in draw(st.lists(st.tuples(masks, masks, st.booleans()), max_size=24)):
        keys.add(_key(x, z))
        if paired:
            keys.add(_key(x ^ gen.x, z ^ gen.z))
    keys = sorted(keys)
    policy = draw(st.sampled_from([
        TruncationPolicy.exact_mode(max_terms=draw(st.integers(1, 48))),
        TruncationPolicy(sine_cutoff=draw(st.integers(0, 3))),
        TruncationPolicy(max_terms=draw(st.integers(1, 48))),
        TruncationPolicy(sine_cutoff=draw(st.integers(0, 3)), max_terms=draw(st.integers(1, 48))),
    ]))
    top = 5 if policy.sine_cutoff is None else policy.sine_cutoff
    coeffs = GRID_COEFFS.flatmap(lambda c: st.sampled_from([c, -c]))
    t = _TermArrays(keys, draw(st.lists(coeffs, min_size=len(keys), max_size=len(keys))),
                    draw(st.lists(st.integers(0, top), min_size=len(keys), max_size=len(keys))))
    if n > 1 and draw(st.booleans()):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        t = _apply_cz_layer(t, tuple(draw(st.lists(st.sampled_from(pairs), min_size=1,
                                                   max_size=8, unique=True))))
    return t, gen, draw(SNAPPED), policy


def _step_or_overrun(step, t, pol):
    report = PropagationReport(expectation=0.0)
    try:
        return step(t, report), report
    except ResourceLimitError as err:
        assert err.report is report
        return None, report


@given(rotation_steps())
@settings(max_examples=300, deadline=None)
def test_rotate_matches_reference_chain_bitwise(step):
    t, gen, angle, pol = step
    got, got_report = _step_or_overrun(
        lambda t, r: _rotate(t, _key(gen.x, gen.z), *factors(angle), pol, r), t, pol)
    want, want_report = _step_or_overrun(
        lambda t, r: reference_step(t, gen, angle, pol, r), t, pol)
    assert got_report == want_report  # dropped_mass bits, and final_terms of an overrun
    if want is None:
        assert got is None
        return
    assert (got is t) == (want is t)
    assert np.array_equal(got.k, want.k)
    assert np.array_equal(got.c.view(np.uint64), want.c.view(np.uint64))
    assert np.array_equal(got.s, want.s)


@pytest.mark.parametrize("seed", range(6))
def test_rotate_matches_reference_chain_at_scale(seed):
    # thousands of terms, most of their sine images cut: at this size a sum
    # of the cut magnitudes in any order but the merged key order rounds
    # differently
    rng = np.random.default_rng(seed)
    n = 12
    keys = np.unique(rng.integers(0, 2**(2 * n), 3000, dtype=np.uint64))
    keys = (keys >> np.uint64(n) << np.uint64(32)) | (keys & np.uint64(2**n - 1))
    t = _TermArrays(keys, rng.normal(size=len(keys)), rng.integers(0, 2, len(keys)))
    if seed % 2:
        t = _apply_cz_layer(t, ((0, 5), (3, 11), (7, 2)))
    gen = rand_rotation(rng, n).generator(n)
    for pol in (TruncationPolicy(sine_cutoff=1), TruncationPolicy(sine_cutoff=1, max_terms=2000),
                TruncationPolicy(max_terms=1000)):
        got_report, want_report = (PropagationReport(expectation=0.0) for _ in range(2))
        got = _rotate(t, _key(gen.x, gen.z), *factors(0.4), pol, got_report)
        want = reference_step(t, gen, 0.4, pol, want_report)
        assert got_report == want_report
        assert np.array_equal(got.k, want.k)
        assert np.array_equal(got.c.view(np.uint64), want.c.view(np.uint64))
        assert np.array_equal(got.s, want.s)


@pytest.mark.parametrize("angle,gone", [(math.pi / 4, "cosine"), (math.pi / 2, "sine")])
def test_rotate_drops_branches_under_coeff_eps(angle, gone):
    # at 2*angle = pi/2 the cosine factor is about 6e-17, at pi the sine factor
    # about 1e-16: that branch falls under COEFF_EPS and is dropped unreported
    report = PropagationReport(expectation=0.0)
    out = _rotate(single("Z"), _key(1, 0), *factors(angle), TruncationPolicy(sine_cutoff=3),
                  report)
    assert terms_of(out, 1).keys() == ({"Y"} if gone == "cosine" else {"Z"})
    assert report.dropped_mass == 0.0


def test_rotate_overrun_keeps_partial_report():
    report = PropagationReport(expectation=0.0, dropped_mass=0.5)
    with pytest.raises(ResourceLimitError) as err:
        _rotate(single("ZZ"), _key(0b01, 0), *factors(0.3),
                TruncationPolicy.exact_mode(max_terms=1), report)
    assert err.value.report is report
    assert (report.final_terms, report.dropped_mass) == (2, 0.5)
