import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgenbench.circuits import (BRICK_PARAMS, BrickLayer, Circuit, CZLayer, GenerativeSpec,
                                RotationLayer, build_generative, build_trainable,
                                concatenate, default_depth)
from qgenbench.pauli import COEFF_EPS, PauliString, PauliSum, PauliTerm
from qgenbench.propagation import (PropagationReport, ResourceLimitError,
                                   TruncationPolicy, _generator_key, _rotate, _sine_signs,
                                   _splitting_qubits, _symplectic_signs, _term_cap,
                                   _TermArrays, benchmark_propagation, propagate,
                                   sine_cutoff_default)
from qgenbench import propagation as propagation_mod
from qgenbench.seeding import derive_seed
from qgenbench import statevector as sv

from test_pauli import PHASE_EXP  # single-qubit product phases, checked there

EXACT = TruncationPolicy.exact_mode()


def z_obs(n, q=0):
    return PauliSum(n, [PauliTerm(1.0, PauliString.single(n, q, "Z"))])


def full_model(n, seed, layers=2, depth=None):
    spec = GenerativeSpec(n, layers, math.log(n) / n, 0.2499, derive_seed(seed, 0))
    train = build_trainable(n, depth or default_depth(n), derive_seed(seed, 1))
    return concatenate(build_generative(spec), train)


def test_identity_circuit():
    obs = PauliSum(3, [PauliTerm(0.5, PauliString.from_label("ZZI")),
                       PauliTerm(0.3, PauliString.from_label("XII"))])
    rep = propagate(Circuit(3, ()), obs, EXACT)
    assert rep.expectation == pytest.approx(0.5)
    assert rep.dropped_mass == 0.0


@pytest.mark.parametrize("obs", [PauliSum(3), z_obs(5)], ids=["empty_narrower", "wider"])
def test_observable_must_act_on_the_circuit_qubits(obs):
    """An empty sum of another width has no term to check and used to read 0.0."""
    with pytest.raises(ValueError, match="differs from circuit"):
        propagate(Circuit(4, ()), obs, EXACT)


def test_single_rotation_cosine():
    gamma = 0.37
    circ = Circuit(1, (RotationLayer("X", "gen", (gamma,)),))
    rep = propagate(circ, z_obs(1), EXACT)
    assert rep.expectation == pytest.approx(math.cos(2 * gamma), abs=1e-12)


def test_exact_mode_matches_statevector():
    for seed in range(20):
        circ = full_model(6, seed)
        obs = z_obs(6)
        rep = propagate(circ, obs, EXACT)
        exact = sv.expectation(sv.run(circ), obs)
        assert rep.expectation == pytest.approx(exact, abs=1e-9)
        assert rep.dropped_mass == 0.0


def test_sine_cutoff_default():
    assert sine_cutoff_default(8) == 3
    assert sine_cutoff_default(9) == 4
    assert sine_cutoff_default(1) == 0


def test_dropped_mass_bounds_error():
    for seed in range(15):
        circ = full_model(8, seed)
        obs = z_obs(8)
        rep = propagate(circ, obs, TruncationPolicy(sine_cutoff=2))
        exact = sv.expectation(sv.run(circ), obs)
        assert abs(rep.expectation - exact) <= rep.dropped_mass + 1e-9


def test_loosening_cutoff_reduces_error():
    errs = {1: [], 3: []}
    for seed in range(100):
        circ = full_model(6, seed)
        obs = z_obs(6)
        exact = sv.expectation(sv.run(circ), obs)
        for cutoff in errs:
            rep = propagate(circ, obs, TruncationPolicy(sine_cutoff=cutoff))
            errs[cutoff].append(abs(rep.expectation - exact))
    tight, loose = np.asarray(errs[1]), np.asarray(errs[3])
    diff = tight - loose
    se = diff.std(ddof=1) / math.sqrt(len(diff))
    assert diff.mean() + 2 * se >= 0.0


def test_term_count_growth_cap():
    circ = full_model(4, 3)
    rotations = sum(1 for g in circ.gates() if g.kind != "CZ")
    rep = propagate(circ, z_obs(4), EXACT)
    assert rep.peak_terms <= 2**min(rotations, 8)  # saturates at 4^n anyway
    assert rep.peak_terms <= 4**4


def test_max_terms_keeps_largest():
    circ = full_model(6, 9)
    rep = propagate(circ, z_obs(6), TruncationPolicy(max_terms=32))
    assert max(rep.terms_per_step) <= 32


def test_exact_mode_resource_limit():
    circ = full_model(8, 2)
    with pytest.raises(ResourceLimitError) as err:
        propagate(circ, z_obs(8), TruncationPolicy.exact_mode(max_terms=16))
    assert isinstance(err.value.report, PropagationReport)
    assert err.value.report.peak_terms > 0


def test_policy_requires_criterion():
    with pytest.raises(ValueError):
        TruncationPolicy()


@pytest.mark.parametrize("criterion", [{"sine_cutoff": 0}])
def test_exact_policy_rejects_lossy_criteria(criterion):
    # exact mode would keep every term and ignore the criterion
    with pytest.raises(ValueError, match="exact mode"):
        TruncationPolicy(exact=True, **criterion)
    with pytest.raises(ValueError, match="exact mode"):
        TruncationPolicy(exact=True, max_terms=64, **criterion)


@pytest.mark.parametrize("fields", [{"max_terms": 0}, {"max_terms": -3}, {"max_terms": True},
                                    {"max_terms": 8.0}, {"max_terms": "8"},
                                    {"sine_cutoff": -1}, {"sine_cutoff": True},
                                    {"sine_cutoff": 1.5}, {"exact": True, "max_terms": 0},
                                    {"exact": True, "max_terms": False}])
def test_policy_rejects_bad_values(fields):
    # each used to pass: a zero cap failed later inside np.partition, a
    # negative cutoff dropped every term and a True cap capped at 1
    with pytest.raises(ValueError, match="must be an integer"):
        TruncationPolicy(**fields)


def test_policy_takes_numpy_integers():
    circ, obs = full_model(6, 3), z_obs(6)
    want = propagate(circ, obs, TruncationPolicy(sine_cutoff=1, max_terms=16))
    got = propagate(circ, obs, TruncationPolicy(sine_cutoff=np.int64(1), max_terms=np.int64(16)))
    assert (got.expectation, got.dropped_mass, got.terms_per_step) == \
        (want.expectation, want.dropped_mass, want.terms_per_step)


def test_policy_id_marks_schedule_after_exact():
    # one policy holds for the whole run, so the id carries no schedule suffix:
    # exact mode reads "exact" (a max_terms cap included), lossy modes list their criteria
    ids = [benchmark_propagation([4], pol, 1, 0, layers=1)[0]["policy_id"]
           for pol in (TruncationPolicy.exact_mode(),
                       TruncationPolicy(exact=True, max_terms=64),
                       TruncationPolicy(sine_cutoff=2),
                       TruncationPolicy(sine_cutoff=2, max_terms=64))]
    assert ids == ["exact", "exact", "sine2", "sine2-max64"]


def test_zero_angle_circuit_exact_despite_cutoff():
    spec = GenerativeSpec(6, 2, 0.4, 1e-18, 5)
    circ = build_generative(spec)
    rep = propagate(circ, z_obs(6), TruncationPolicy(sine_cutoff=0))
    assert rep.expectation == pytest.approx(1.0, abs=1e-7)


def test_benchmark_rows_and_exact_error():
    rows = benchmark_propagation([4, 6], TruncationPolicy.exact_mode(), 3, 1)
    assert len(rows) == 6
    for row in rows:
        assert row["error_vs_exact"] < 1e-9
        assert row["dropped_mass"] == 0.0
        assert row["policy_id"] == "exact"


ANGLES = st.floats(-1.6, 1.6, allow_nan=False)


@st.composite
def random_circuits(draw, max_n=6, angles=ANGLES):
    """Up to 5 layers of X/Y/Z rotations, CZ layers and bricks, n from 2 to
    `max_n`.  A CZ layer is any edge set, edges sharing qubits and listed in
    either orientation; bricks sit on disjoint pairs from a random qubit
    permutation, so they are reversed and non-adjacent as often as not."""
    n = draw(st.integers(2, max_n))
    layers, num_params = [], 0
    for kind in draw(st.lists(st.sampled_from(["rot", "cz", "brick"]), min_size=1,
                              max_size=5)):
        if kind == "rot":
            layer_angles = draw(st.lists(angles, min_size=n, max_size=n))
            layers.append(RotationLayer(draw(st.sampled_from("XYZ")), "gen",
                                        tuple(layer_angles)))
        elif kind == "cz":
            edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
            chosen = draw(st.lists(st.sampled_from(edges), unique=True))
            layers.append(CZLayer(tuple(e[::-1] if draw(st.booleans()) else e
                                        for e in chosen)))
        else:
            order = draw(st.permutations(range(n)))
            pairs = [(order[2 * i], order[2 * i + 1])
                     for i in range(draw(st.integers(1, n // 2)))]
            ids = tuple(tuple(range(num_params + BRICK_PARAMS * i,
                                    num_params + BRICK_PARAMS * (i + 1)))
                        for i in range(len(pairs)))
            num_params += BRICK_PARAMS * len(pairs)
            layers.append(BrickLayer(tuple(pairs), ids))
    theta = draw(st.lists(angles, min_size=num_params, max_size=num_params))
    return Circuit(n, tuple(layers), np.asarray(theta, dtype=float))


@st.composite
def random_observables(draw, n):
    """One to four terms on strings of any weight, identity included."""
    masks = st.integers(0, 2**n - 1)
    coeffs = st.floats(0.05, 1.0).flatmap(lambda c: st.sampled_from([c, -c]))
    terms = draw(st.lists(st.tuples(masks, masks, coeffs), min_size=1, max_size=4))
    return PauliSum(n, [PauliTerm(c, PauliString(n, x, z)) for x, z, c in terms])


@given(st.data())
@settings(max_examples=80)
def test_propagation_matches_statevector_on_random_circuits(data):
    circ = data.draw(random_circuits())
    n = circ.n
    obs = data.draw(random_observables(n))
    exact = sv.expectation(sv.run(circ), obs)
    rep = propagate(circ, obs, EXACT)
    assert rep.expectation == pytest.approx(exact, abs=1e-9)
    assert rep.dropped_mass == 0.0

    policies = [
        TruncationPolicy(sine_cutoff=data.draw(st.integers(0, 3))),
        TruncationPolicy(max_terms=data.draw(st.integers(1, 64))),
        TruncationPolicy(sine_cutoff=data.draw(st.integers(0, 3)),
                         max_terms=data.draw(st.integers(1, 64))),
    ]
    for policy in policies:
        rep = propagate(circ, obs, policy)
        assert abs(rep.expectation - exact) <= rep.dropped_mass + 1e-9, policy


# --- reference engine ------------------------------------------------------
# Separate x and z arrays; every rotation re-merges all terms with one
# np.unique pass (np.add.at / np.minimum.at), and the term cap keeps the head
# of a stable argsort of -|c|.  propagate must match it bitwise.

class _RefTerms:
    def __init__(self, x, z, c, s):
        self.x = np.asarray(x, dtype=np.uint64)
        self.z = np.asarray(z, dtype=np.uint64)
        self.c = np.asarray(c, dtype=np.float64)
        self.s = np.asarray(s, dtype=np.int64)

    def __len__(self):
        return len(self.c)

    def take(self, idx):
        return _RefTerms(self.x[idx], self.z[idx], self.c[idx], self.s[idx])


def _ref_merge(t):
    keys = (t.x << np.uint64(32)) | t.z
    uniq, inv = np.unique(keys, return_inverse=True)
    c = np.zeros(len(uniq))
    np.add.at(c, inv, t.c)
    s = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(s, inv, t.s)
    keep = np.abs(c) >= COEFF_EPS
    return _RefTerms(uniq[keep] >> np.uint64(32), uniq[keep] & np.uint64(0xFFFFFFFF),
                     c[keep], s[keep])


def _ref_letters(x, z, q):
    xb = ((x >> np.uint64(q)) & np.uint64(1)).astype(np.int64)
    zb = ((z >> np.uint64(q)) & np.uint64(1)).astype(np.int64)
    return np.array([0, 1, 3, 2])[2 * zb + xb]


def _ref_rotation(t, gen, angle):
    gx, gz = np.uint64(gen.x), np.uint64(gen.z)
    anti = ((np.bitwise_count(t.x & gz) + np.bitwise_count(t.z & gx)) & 1).astype(bool)
    if not anti.any():
        return t
    c2, s2 = math.cos(2 * angle), math.sin(2 * angle)
    ax, az, ac, asn = t.x[anti], t.z[anti], t.c[anti], t.s[anti]
    k = np.ones(len(ac), dtype=np.int64)
    for q in range(gen.n):
        gl = gen.letter_index(q)
        if gl:
            k += PHASE_EXP[gl, _ref_letters(ax, az, q)]
    sign = np.where(k % 4 == 0, 1.0, -1.0)
    return _ref_merge(_RefTerms(np.concatenate([t.x[~anti], ax, ax ^ gx]),
                                np.concatenate([t.z[~anti], az, az ^ gz]),
                                np.concatenate([t.c[~anti], ac * c2, ac * s2 * sign]),
                                np.concatenate([t.s[~anti], asn, asn + 1])))


def _ref_cz(t, a, b):
    one = np.uint64(1)
    xa, xb = (t.x >> np.uint64(a)) & one, (t.x >> np.uint64(b)) & one
    za, zb = (t.z >> np.uint64(a)) & one, (t.z >> np.uint64(b)) & one
    c = t.c.copy()
    c[(xa & xb & (za ^ zb)).astype(bool)] *= -1
    return _RefTerms(t.x, t.z ^ (xb << np.uint64(a)) ^ (xa << np.uint64(b)), c, t.s)


def _ref_truncate(t, pol, report):
    if pol.exact:
        if pol.max_terms is not None and len(t) > pol.max_terms:
            report.final_terms = len(t)
            raise ResourceLimitError("exact mode exceeded max_terms", report)
        return t
    drop = np.zeros(len(t), dtype=bool)
    if pol.sine_cutoff is not None:
        drop |= t.s > pol.sine_cutoff
    if drop.any():
        report.dropped_mass += float(np.sum(np.abs(t.c[drop])))
        t = t.take(~drop)
    if pol.max_terms is not None and len(t) > pol.max_terms:
        order = np.argsort(-np.abs(t.c), kind="stable")
        keep, lose = order[:pol.max_terms], order[pol.max_terms:]
        report.dropped_mass += float(np.sum(np.abs(t.c[lose])))
        keep.sort()
        t = t.take(keep)
    return t


def reference_propagate(circuit, observable, policy):
    """Report of the reference engine; wall_time is left at 0."""
    terms = list(observable)
    t = _ref_merge(_RefTerms([p.string.x for p in terms], [p.string.z for p in terms],
                             [p.coefficient for p in terms], [0] * len(terms)))
    report = PropagationReport(expectation=0.0)
    t = _ref_truncate(t, policy, report)
    for gate in reversed(list(circuit.gates())):
        if gate.kind == "CZ":
            t = _ref_cz(t, *gate.qubits)
        else:
            t = _ref_rotation(t, gate.generator(circuit.n), gate.angle)
            t = _ref_truncate(t, policy, report)
        report.terms_per_step.append(len(t))
        report.peak_terms = max(report.peak_terms, len(t))
    report.expectation = float(np.sum(t.c[t.x == 0]))
    report.final_terms = len(t)
    return report


# Multiples of pi/8 make coefficient magnitudes tie, so that the term cap
# has to break ties.
SNAPPED_ANGLES = st.one_of(st.integers(-8, 8).map(lambda k: k * math.pi / 8), ANGLES)
REPORT_FIELDS = ("expectation", "dropped_mass", "terms_per_step", "peak_terms", "final_terms")


def assert_same_report(circ, obs, policy):
    """propagate and the reference give equal reports, field by field; an
    exact-mode overrun raises in both, with equal partial reports."""
    try:
        want = reference_propagate(circ, obs, policy)
    except ResourceLimitError as err:
        want = err.report
        with pytest.raises(ResourceLimitError) as raised:
            propagate(circ, obs, policy)
        got = raised.value.report
    else:
        got = propagate(circ, obs, policy)
    for name in REPORT_FIELDS:
        assert getattr(got, name) == getattr(want, name), (name, policy)


@given(st.data())
@settings(max_examples=100)
def test_propagate_matches_reference_bitwise(data):
    circ = data.draw(random_circuits(max_n=10, angles=SNAPPED_ANGLES))
    n = circ.n
    obs = data.draw(random_observables(n))
    cap = st.integers(1, 64)
    policies = [
        TruncationPolicy.exact_mode(max_terms=data.draw(st.integers(1, 512))),
        TruncationPolicy(sine_cutoff=data.draw(st.integers(0, 2))),
        TruncationPolicy(max_terms=data.draw(cap)),
        TruncationPolicy(sine_cutoff=data.draw(st.integers(0, 3)), max_terms=data.draw(cap)),
    ]
    for policy in policies:
        assert_same_report(circ, obs, policy)


@given(st.data())
@settings(max_examples=40)
def test_cz_layer_signs_match_reference_in_exact_mode(data):
    # an X or Y rotation layer then a CZ layer ahead of a random circuit: the
    # rotations turn Y or X letters into Z, so untruncated, a wrong CZ-layer
    # sign reaches the expectation; at most 4**5 terms keep this cheap
    tail = data.draw(random_circuits(max_n=5, angles=SNAPPED_ANGLES))
    n = tail.n
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    head = (RotationLayer(data.draw(st.sampled_from("XY")), "gen",
                          tuple(data.draw(st.lists(ANGLES, min_size=n, max_size=n)))),
            CZLayer(tuple(data.draw(st.lists(st.sampled_from(pairs), min_size=1,
                                             unique=True)))))
    circ = Circuit(n, head + tail.layers, tail.theta)
    assert_same_report(circ, data.draw(random_observables(n)), EXACT)


@pytest.mark.parametrize("trial", [0, 3])
def test_propagate_matches_reference_at_workload_cap(trial):
    # hypothesis sizes never reach the 2**14-term cap of the n = 24 study
    n = 24
    circ = build_generative(GenerativeSpec(n, 4, math.log(n) / n, 0.2499,
                                           derive_seed(11, n, trial, 0)))
    policy = TruncationPolicy(sine_cutoff=sine_cutoff_default(n), max_terms=2**14)
    assert_same_report(circ, z_obs(n), policy)
    assert max(propagate(circ, z_obs(n), policy).terms_per_step) == 2**14


@pytest.mark.parametrize("policy", [TruncationPolicy(max_terms=1),
                                    TruncationPolicy(sine_cutoff=0, max_terms=1)])
def test_observable_capped_before_any_gate(policy):
    # backward, a CZ layer comes first and the Z rotations after it commute
    # with every term: the cap holds from the first step on
    circ = Circuit(3, (RotationLayer("Z", "gen", (0.3, 0.2, 0.1)), CZLayer(((0, 1),))))
    obs = PauliSum(3, [PauliTerm(0.25, PauliString.from_label("ZII")),
                       PauliTerm(1.0, PauliString.from_label("IZI")),
                       PauliTerm(-0.125, PauliString.from_label("IIZ"))])
    rep = propagate(circ, obs, policy)
    assert rep.terms_per_step == [1, 1, 1, 1]
    assert rep.dropped_mass == 0.375
    assert rep.expectation == 1.0
    assert_same_report(circ, obs, policy)


def test_exact_bound_on_observable_raises_before_any_gate():
    # the CZ layer comes first backward; the bound is checked ahead of it
    circ = Circuit(2, (RotationLayer("X", "gen", (0.3, 0.2)), CZLayer(((0, 1),))))
    obs = PauliSum(2, [PauliTerm(0.5, PauliString.from_label("ZI")),
                       PauliTerm(0.5, PauliString.from_label("IZ"))])
    policy = TruncationPolicy.exact_mode(max_terms=1)
    with pytest.raises(ResourceLimitError) as err:
        propagate(circ, obs, policy)
    assert err.value.report.terms_per_step == []
    assert err.value.report.final_terms == 2
    assert_same_report(circ, obs, policy)


@pytest.mark.parametrize("policy", [EXACT, TruncationPolicy(sine_cutoff=1),
                                    TruncationPolicy(sine_cutoff=0, max_terms=3)])
def test_rotation_layer_skips_qubits_without_anticommuting_terms(policy):
    # on the observable, X rotations split terms only on qubits 0, 3 and 4
    # (its Z letters), Y rotations on every qubit but 2 and Z rotations only
    # on qubit 1; backward, the X layer comes first and skips qubits 1 and 2
    obs = PauliSum(5, [PauliTerm(0.75, PauliString.from_label("ZXIZI")),
                       PauliTerm(-0.5, PauliString.from_label("IIIIZ"))])
    terms = _TermArrays.from_sum(obs, np.uint8)
    assert [_splitting_qubits(terms, axis) for axis in "XYZ"] == [0b11001, 0b11011, 0b00010]
    angles = (0.3, -0.2, 0.1, 0.7, -0.4)
    circ = Circuit(5, tuple(RotationLayer(axis, "gen", angles) for axis in "ZYX"))
    rep = propagate(circ, obs, policy)
    assert len(rep.terms_per_step) == 15
    assert_same_report(circ, obs, policy)


# --- reference rotation kernel -----------------------------------------------
# The concatenate-and-sort form of _rotate: every term of t and every sine
# term go through one stable sort, one per-term flag array and two
# compactions.  It also accepts terms out of key order.  _rotate must match
# it bitwise on key-ordered terms.

_CUT, _GONE = np.uint8(1), np.uint8(2)


def reference_rotate(t, gkey, c2, s2, pol, report):
    gx, gz = gkey >> 32, gkey & 0xFFFFFFFF
    anti = np.flatnonzero(
        (np.bitwise_count(t.k & np.uint64((gz << 32) | gx)) & np.uint8(1)).view(bool))
    if not len(anti):
        return t
    n = len(t)
    ak, ac = t.k[anti], t.c[anti]
    sk = ak ^ np.uint64(gkey)
    hi = np.uint64(32)
    ph = (np.bitwise_count((ak >> hi) & ak) + 2 * np.bitwise_count(ak & np.uint64(gz << 32))
          - np.bitwise_count((sk >> hi) & sk) + ((gx & gz).bit_count() + 1))
    flip = (ph & np.uint8(2)).astype(np.uint64) << np.uint64(62)
    k = np.concatenate([t.k, sk])
    c = np.concatenate([t.c, ((ac * s2).view(np.uint64) ^ flip).view(np.float64)])
    c[anti] = ac * c2
    s = np.concatenate([t.s, t.s[anti] + 1])
    order = np.argsort(k, kind="stable")
    sorted_k = k[order]
    dup = np.flatnonzero(sorted_k[1:] == sorted_k[:-1])
    a, b = order[dup], order[dup + 1]
    c[a] += c[b]
    s[a] = np.minimum(s[a], s[b])
    flag = np.zeros(len(k), dtype=np.uint8)
    if pol.sine_cutoff is not None:
        flag[n:] = s[n:] > pol.sine_cutoff
    flag[np.abs(c) < COEFF_EPS] = _GONE
    flag[b] = _GONE
    flag = flag[order]
    cut = order[flag == _CUT]
    if len(cut):
        report.dropped_mass += float(np.sum(np.abs(c[cut])))
    keep = order[flag == 0]
    kept_c = c[keep]
    capped = _term_cap(kept_c, pol, report)
    if capped is not None:
        keep, kept_c = keep[capped], kept_c[capped]
    return _TermArrays(k[keep], kept_c, s[keep])


# Coefficients: a grid, so that magnitudes tie at the cap, plus values near
# COEFF_EPS, whose sine terms fall under it.
SPLIT_COEFFS = st.one_of(st.sampled_from([0.125, 0.25, 0.5, 1.0, 2e-15, 5e-15]),
                         st.floats(0.01, 2.0)).flatmap(lambda c: st.sampled_from([c, -c]))


@st.composite
def split_steps(draw):
    """(keys, coefficients, sine counts, generator key, angle, policy) for one
    `_rotate` call.  The generator is X, Y or Z on one qubit or a brick's XX,
    YY or ZZ on two.  Each drawn string comes alone, with its image under the
    generator, or with every key that shares its bits outside the generator's
    (four for XX or ZZ, sixteen for YY)."""
    n = draw(st.integers(2, 32))
    letter = draw(st.sampled_from("XYZ"))
    qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    gkey = _generator_key(letter, qubits)
    bits = [b for b in range(64) if (gkey >> b) & 1]
    masks = st.integers(0, 2**n - 1)
    keys = set()
    for x, z, group in draw(st.lists(st.tuples(masks, masks, st.sampled_from("1PO")),
                                     max_size=20)):
        key = (x << 32) | z
        if group == "1":
            keys.add(key)
        elif group == "P":
            keys |= {key, key ^ gkey}
        else:
            keys |= {key & ~gkey | sum(1 << b for b, on in zip(bits, pick) if on)
                     for pick in np.ndindex(*[2] * len(bits))}
    keys = sorted(keys)
    cutoff = draw(st.integers(0, 3))
    cap = draw(st.integers(1, 48))
    policy = draw(st.sampled_from([TruncationPolicy.exact_mode(max_terms=cap),
                                   TruncationPolicy(sine_cutoff=cutoff),
                                   TruncationPolicy(max_terms=cap),
                                   TruncationPolicy(sine_cutoff=cutoff, max_terms=cap)]))
    top = 5 if policy.sine_cutoff is None else policy.sine_cutoff
    size = len(keys)
    return (keys, draw(st.lists(SPLIT_COEFFS, min_size=size, max_size=size)),
            draw(st.lists(st.integers(0, top), min_size=size, max_size=size)),
            gkey, draw(SNAPPED_ANGLES), policy)


def _split_or_overrun(kernel, t, gkey, angle, policy):
    report = PropagationReport(expectation=0.0, dropped_mass=0.25)
    try:
        out = kernel(t, gkey, math.cos(2 * angle), math.sin(2 * angle), policy, report)
    except ResourceLimitError as err:
        assert err.report is report
        return None, report
    return out, report


ZZ01 = _generator_key("Z", (0, 1))


@given(split_steps())
@example(([(1 << 32) | z for z in range(4)], [1.0, -0.5, 0.25, 0.125], [0] * 4, ZZ01, 0.3,
          EXACT)).via("four X0 keys share k & ~g under ZZ on (0, 1): two orbit pairs")
@example(([1, 3], [2e-15, 0.5], [1, 1], _generator_key("X", (0,)), 0.1,
          TruncationPolicy(sine_cutoff=1))).via("a cut sine term under COEFF_EPS is not counted")
@example(([1, 2, 2 << 32], [1.0, 0.5, -0.5], [0] * 3, _generator_key("X", (0,)), math.pi / 8,
          TruncationPolicy(max_terms=3))).via("the cap breaks a tie between Z1 and X1")
@example(([1, 3], [0.5, 0.25], [0, 0], _generator_key("X", (0,)), 0.3,
          TruncationPolicy.exact_mode(max_terms=3))).via("an exact-mode overrun")
@settings(max_examples=300, deadline=None)
def test_rotate_matches_concat_and_sort_reference_bitwise(step):
    keys, coeffs, counts, gkey, angle, policy = step
    # propagate holds the counts in uint8 or uint16; int64 gives the values
    # that any narrower type must keep
    wide, *narrow = [_assert_rotate_matches_reference(
        _TermArrays(keys, coeffs, np.array(counts, dtype=count_type)), gkey, angle, policy)
        for count_type in (np.int64, np.uint8, np.uint16)]
    for got in narrow:
        assert (got is None) == (wide is None)
        assert got is None or np.array_equal(got.s, wide.s)


def _assert_rotate_matches_reference(t, gkey, angle, policy):
    """`_rotate` and `reference_rotate` agree bitwise on `t`, and the counts
    come back in their given type; returns `_rotate`'s terms, or None on an
    exact-mode overrun."""
    got, got_report = _split_or_overrun(_rotate, t, gkey, angle, policy)
    want, want_report = _split_or_overrun(reference_rotate, t, gkey, angle, policy)
    # dropped_mass bits, and the final_terms of an overrun's partial report
    assert got_report == want_report
    if want is None:
        assert got is None
        return None
    assert (got is t) == (want is t)
    assert np.array_equal(got.k, want.k)
    assert np.array_equal(got.c.view(np.uint64), want.c.view(np.uint64))
    # an upcast would keep every value: check the type too
    assert got.s.dtype == t.s.dtype
    assert np.array_equal(got.s, want.s)
    return got


@pytest.mark.parametrize("count_type", [np.uint8, np.uint16])
@pytest.mark.parametrize("below_top", [None, 0, 1], ids=["exact", "cutoff_top", "cutoff_top-1"])
def test_rotate_counts_reach_the_top_of_their_type(count_type, below_top):
    # counts one and two below the top, so that sine terms reach it, on orbit
    # pairs too; the cutoff sits at the top or one below it.  No count
    # starts at the top inside propagate, whose type holds one more count
    # than the rotations applied before any gate
    top = int(np.iinfo(count_type).max)
    policy = EXACT if below_top is None else TruncationPolicy(sine_cutoff=top - below_top)
    gkey = _generator_key("Y", (2,))
    pairs = [0b101, 1 << 34 | 0b10, 3 << 34 | 1, 1 << 33 | 1 << 2]
    keys = sorted({key ^ flip for key in pairs for flip in (0, gkey)} | {1 << 2, 1 << 34 | 1 << 5})
    coeffs = [0.5, -0.25, 1.0, 0.125, -0.75, 0.375, 2.0, -1.5, 0.625, 0.0625]
    counts = [top - 1 - i % 2 for i in range(len(keys))]
    assert len(keys) == len(coeffs)
    wide = _assert_rotate_matches_reference(_TermArrays(keys, coeffs, counts), gkey, 0.3, policy)
    got = _assert_rotate_matches_reference(
        _TermArrays(keys, coeffs, np.array(counts, dtype=count_type)), gkey, 0.3, policy)
    assert got.s.max() == top - (below_top or 0)
    assert np.array_equal(got.s, wide.s)
    assert np.array_equal(got.c.view(np.uint64), wide.c.view(np.uint64))


@pytest.mark.parametrize("policy", [EXACT, TruncationPolicy(sine_cutoff=300)], ids=str)
def test_propagate_counts_in_uint16_past_255_rotation_gates(monkeypatch, policy):
    n = 6
    circ = concatenate(
        build_generative(GenerativeSpec(n, 2, math.log(n) / n, 0.2499, derive_seed(5, 0))),
        build_trainable(n, 8, derive_seed(5, 1), "uniform"))
    assert sum(1 for gate in circ.gates() if gate.kind != "CZ") > 255
    seen = set()

    def recording_rotate(t, *args):
        out = _rotate(t, *args)
        seen.update((t.s.dtype, out.s.dtype))
        return out

    monkeypatch.setattr(propagation_mod, "_rotate", recording_rotate)
    assert_same_report(circ, z_obs(n), policy)
    assert seen == {np.dtype(np.uint16)}


LETTER_MASKS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=32)


@given(LETTER_MASKS)
@example([0, 2**64 - 1, 0xAAAAAAAAAAAAAAAA, 0x5555555555555555]).via("all-zero and all-one keys")
@settings(max_examples=60)
def test_one_qubit_sine_signs_match_the_popcount_form(keys):
    # X, Y and Z on every qubit, so that X on qubit 31 reads key bit 63
    for letter in "XYZ":
        for q in range(32):
            gkey = _generator_key(letter, (q,))
            gx, gz = gkey >> 32, gkey & 0xFFFFFFFF
            swapped = (gz << 32) | gx
            # flipping the lowest bit of the swapped mask (z_q for X and Y,
            # x_q for Z) makes a commuting key anticommute
            ak = np.array([key if ((key & swapped).bit_count() & 1)
                           else key ^ (swapped & -swapped) for key in keys], dtype=np.uint64)
            sk = ak ^ np.uint64(gkey)
            assert np.array_equal(_sine_signs(ak, sk, gx, gz),
                                  _symplectic_signs(ak, sk, gx, gz)), (letter, q)
