import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgenbench.circuits import GenerativeSpec, build_generative, resolve_tau2
from qgenbench.pauli import PauliString, PauliSum, PauliTerm
from qgenbench.seeding import derive_seed, rng_for
from qgenbench.shadows import (_BASIS_ROT, _SNAPSHOT_FACTORS, ShadowSet, collect_shadows,
                               estimate_pauli, estimate_rdm, shadows_to_csv,
                               single_shot_values)
from qgenbench import shadows as shadows_mod
from qgenbench import statevector as sv
from shadows_reference import reference_cdf, reference_collect, reference_walk_collect

def reference_rdm(shadows, subsystem):
    """Row-wise `np.unique(axis=0)` grouping of snapshots, kept to pin
    `estimate_rdm` bitwise."""
    keep = sorted(set(subsystem))
    dim = 2 ** len(keep)
    if not keep:
        return np.ones((1, 1), dtype=complex)
    cols = keep[::-1]
    factors = 2 * shadows.bases[:, cols] + (1 - shadows.outcomes[:, cols]) // 2
    total = np.zeros((dim, dim), dtype=complex)
    for snapshot, count in zip(*np.unique(factors, axis=0, return_counts=True)):
        total += count * reduce(np.kron, _SNAPSHOT_FACTORS[snapshot])
    return total / len(shadows)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return sv.StateVector(n, amps / np.linalg.norm(amps))


def bell_state():
    amps = np.zeros(4, complex)
    amps[0] = amps[3] = 1 / math.sqrt(2)
    return sv.StateVector(2, amps)


def test_shapes_and_values():
    shadows = collect_shadows(sv.StateVector.zero(3), 500, seed=1)
    assert shadows.bases.shape == (500, 3)
    assert set(np.unique(shadows.bases)) <= {0, 1, 2}
    assert set(np.unique(shadows.outcomes)) <= {-1, 1}


def test_deterministic():
    state = bell_state()
    a = collect_shadows(state, 200, seed=5)
    b = collect_shadows(state, 200, seed=5)
    np.testing.assert_array_equal(a.bases, b.bases)
    np.testing.assert_array_equal(a.outcomes, b.outcomes)


# n = 16's top rows are larger than `_BATCH_AMPS`: there a level's buffer
# holds one child row, not a chunk of rows
@pytest.mark.parametrize("n, shots", [(3, 300), (10, 40), (16, 20)])
def test_collect_leaves_state_untouched(n, shots):
    assert n < 16 or shadows_mod._BATCH_AMPS >> n == 0
    state = sv.run(build_generative(GenerativeSpec(n, 2, 0.4, 0.2, 8)))
    before = state.amplitudes.copy()
    collect_shadows(state, shots, seed=9)
    assert state.amplitudes.tobytes() == before.tobytes()


@pytest.mark.parametrize("n", range(12))
def test_collect_matches_reference_sampler_bitwise(n):
    """Every n from 0 to 11: the bytes of the CDF sampler it replaced."""
    state = random_state(n, 100 + n)
    for shots in (0, 1, 7, 300):
        for seed in (0, 1, 2):
            bases, outcomes = reference_collect(state, shots, seed)
            got = collect_shadows(state, shots, seed)
            assert got.bases.dtype == bases.dtype and got.outcomes.dtype == outcomes.dtype
            assert got.bases.shape == bases.shape and got.outcomes.shape == outcomes.shape
            assert got.bases.tobytes() == bases.tobytes()
            assert got.outcomes.tobytes() == outcomes.tobytes()


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("batch", ["one_row", "three_rows"])
def test_collect_batches_cut_prefixes_bitwise(monkeypatch, n, batch):
    """Batches of one and of three combinations cut through shared prefixes."""
    monkeypatch.setattr(shadows_mod, "_BATCH_AMPS", 1 if batch == "one_row" else 3 * 2**n)
    state = random_state(n, 200 + n)
    for shots, seed in ((7, 0), (300, 1)):
        bases, outcomes = reference_collect(state, shots, seed)
        got = collect_shadows(state, shots, seed)
        assert got.bases.tobytes() == bases.tobytes()
        assert got.outcomes.tobytes() == outcomes.tobytes()


def test_collect_workload_shape_bitwise():
    """n = 10 with 2,000 shots: nearly every shot has its own combination."""
    state = random_state(10, 110)
    bases, outcomes = reference_collect(state, 2000, 5)
    got = collect_shadows(state, 2000, 5)
    assert len(np.unique(bases, axis=0)) > 1900
    assert got.bases.tobytes() == bases.tobytes()
    assert got.outcomes.tobytes() == outcomes.tobytes()


def workload_states(n, count, seed=0):
    """The subvolume workload's states and shot seeds: 2 layers, p = ln n / n,
    the theorem's tau2, and seeds derived from (seed, n, trial)."""
    tau2 = resolve_tau2("theorem", n, 2)
    for trial in range(count):
        spec = GenerativeSpec(n, 2, math.log(n) / n, tau2, derive_seed(seed, n, trial))
        yield sv.run(build_generative(spec)), derive_seed(seed, n, trial, 1)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_collect_matches_rotating_walk_on_workload_bitwise(n):
    """2,000 shots on 20 workload states per n: the bytes of the walk that
    rotated every (row, letter) pair and read the masses off the halves."""
    for state, shot_seed in workload_states(n, 20):
        bases, outcomes = reference_walk_collect(state, 2000, shot_seed)
        got = collect_shadows(state, 2000, shot_seed)
        assert got.bases.tobytes() == bases.tobytes()
        assert got.outcomes.tobytes() == outcomes.tobytes()


def _rotated_zero_masses(halves):
    """b = 0 masses of each row by letter, from the rotated halves."""
    masses = []
    for letter in range(3):
        zero = (_BASIS_ROT[letter] @ halves)[:, 0] if letter < 2 else halves[:, 0]
        masses.append(np.sum(np.abs(zero) ** 2, axis=1))
    return np.array(masses)


@pytest.mark.parametrize("width", [1, 2, 8, 64])
def test_zero_masses_match_rotated_halves(width):
    """The closed-form masses are the squared norms of the rotated b = 0
    halves to within 1e-12 of the row's mass: random rows, exact-zero
    halves and |+>-type ties."""
    rng = np.random.default_rng(width)
    r0 = rng.normal(size=(6, width)) + 1j * rng.normal(size=(6, width))
    r1 = rng.normal(size=(6, width)) + 1j * rng.normal(size=(6, width))
    zero = np.zeros_like(r0)
    pairs = [(r0, r1), (r0, zero), (zero, r1), (zero, zero)]
    pairs += [(r0, phase * r0) for phase in (1, -1, 1j, -1j)]  # ties: a zero mass
    halves = np.concatenate([np.stack([a, b], axis=1) for a, b in pairs])
    got, want = shadows_mod._zero_masses(halves), _rotated_zero_masses(halves)
    scale = np.sum(np.abs(halves) ** 2, axis=(1, 2))
    assert got.shape == (3, len(halves))
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    assert np.all(got[:, 18:24] == 0)  # (0, 0) rows: exactly zero


def built_prefixes(bases, outcomes, q):
    """Distinct (letters, outcomes) on qubits q..n - 1."""
    return len({(bases[i, q:].tobytes(), outcomes[i, q:].tobytes())
                for i in range(len(bases))})


@pytest.mark.parametrize("n, shots, batch_amps", [
    (6, 500, 2**30), (6, 500, 2**14), (10, 2000, 2**14), (4, 40, 1)])
def test_each_shared_prefix_rotated_once(monkeypatch, n, shots, batch_amps):
    """Each distinct (letters, outcomes) prefix on qubits q..n - 1 with q >= 1
    is built exactly once as a child row, and one product builds at most
    max(_BATCH_AMPS, one row) amplitudes."""
    monkeypatch.setattr(shadows_mod, "_BATCH_AMPS", batch_amps)
    state = random_state(n, 300 + n)
    build, built = shadows_mod._build_children, []
    def counting(halves, src, letter, bit, out):
        built.append(out.shape)
        return build(halves, src, letter, bit, out)
    monkeypatch.setattr(shadows_mod, "_build_children", counting)
    got = collect_shadows(state, shots, 3)
    for q in range(1, n):
        assert sum(rows for rows, width in built if width == 2**q) == built_prefixes(
            got.bases, got.outcomes, q)
    assert all(rows * width <= max(batch_amps, width) for rows, width in built)
    if batch_amps >= shots * 2**n:  # one chunk per qubit: one product per (letter, bit)
        assert len(built) <= 6 * (n - 1)


def _product_state(n, letters, bits):
    """Tensor product of Pauli eigenstates: letters[q] in XYZ, bits[q] the sign."""
    sq = 1 / math.sqrt(2)
    eigen = {(0, 0): [sq, sq], (0, 1): [sq, -sq], (1, 0): [sq, 1j * sq],
             (1, 1): [sq, -1j * sq], (2, 0): [1, 0], (2, 1): [0, 1]}
    amps = np.ones(1, complex)
    for q in range(n):  # qubit 0 is the rightmost factor
        amps = np.kron(np.array(eigen[(letters[q], bits[q])], complex), amps)
    return sv.StateVector(n, amps)


@st.composite
def sampling_cases(draw):
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["basis", "product", "ghz", "random"]))
    if kind == "basis":  # Z halves of exactly zero mass
        amps = np.zeros(2**n, complex)
        amps[draw(st.integers(0, 2**n - 1))] = 1.0
        state = sv.StateVector(n, amps)
    elif kind == "product":  # |+> products and the like: exact ties
        letters = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        state = _product_state(n, letters, bits)
    elif kind == "ghz":  # Bell at n = 2
        amps = np.zeros(2**n, complex)
        amps[0] = amps[-1] = 1 / math.sqrt(2)
        state = sv.StateVector(n, amps)
    else:
        state = random_state(n, draw(st.integers(0, 2**32 - 1)))
    return state, draw(st.integers(0, 64)), draw(st.integers(0, 2**64 - 1))


@settings(max_examples=300)
@given(sampling_cases())
def test_collect_matches_reference_up_to_cdf_rounding(case):
    """Bases byte-equal; an outcome may differ from the CDF sampler's only
    where u lies within 1e-12 of a CDF boundary of the reference's outcome."""
    state, shots, seed = case
    bases, outcomes = reference_collect(state, shots, seed)
    got = collect_shadows(state, shots, seed)
    assert got.bases.tobytes() == bases.tobytes()
    assert got.outcomes.dtype == outcomes.dtype and got.outcomes.shape == outcomes.shape
    rng = rng_for(seed)
    rng.integers(0, 3, size=(shots, state.n), dtype=np.int8)
    u = rng.random(shots)
    index = ((1 - outcomes.astype(np.int64)) // 2) @ (1 << np.arange(state.n))
    for i in np.flatnonzero((got.outcomes != outcomes).any(axis=1)):
        cdf = reference_cdf(state, bases[i])
        edges = cdf[index[i] - 1:index[i] + 1] if index[i] else cdf[:1]
        assert np.min(np.abs(edges - u[i])) <= 1e-12, (i, u[i], edges)


@pytest.mark.parametrize("amps", [[0.5, 0.5, 0.5, 0.5], [0.0, 0.6, 0.0, 0.8], [0, 0, 0, 1]])
def test_walk_breaks_exact_boundaries_like_searchsorted(amps):
    """A draw exactly on a CDF boundary, zero-mass blocks included, takes the
    later outcome, as searchsorted(side="right") does."""
    state = sv.StateVector(2, np.array(amps, dtype=complex))
    cdf = reference_cdf(state, [2, 2])
    u = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0), [0.0]])
    bases = np.full((len(u), 2), 2, dtype=np.int8)
    outcomes = shadows_mod._Walk(bases, u).run(state.amplitudes)
    bits = np.searchsorted(cdf, u, side="right")
    assert outcomes.tolist() == (1 - 2 * ((bits[:, None] >> np.arange(2)) & 1)).tolist()


def _collect_peak(state, shots, seed):
    """Bytes tracemalloc sees above the starting level during one call."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        collect_shadows(state, shots, seed)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_collect_peak_memory_at_n10():
    """The workload's largest call, n = 10 with 2,000 shots, within 1.5 MiB."""
    assert _collect_peak(random_state(10, 110), 2000, 4) <= 1.5 * 2**20


@pytest.mark.parametrize("shots", [20, 2000])
def test_collect_peak_memory_at_n16(shots):
    """The walk holds at most three state sizes at n = 16."""
    state = random_state(16, 116)
    assert _collect_peak(state, shots, 4) <= 3 * state.amplitudes.nbytes


def test_bases_uniform():
    shadows = collect_shadows(sv.StateVector.zero(2), 30000, seed=2)
    counts = np.bincount(shadows.bases.ravel(), minlength=3)
    np.testing.assert_allclose(counts / counts.sum(), 1 / 3, atol=0.01)


def test_z_basis_outcomes_match_state():
    # |1> on qubit 0: Z-basis shots must give -1 there
    amps = np.array([0, 1, 0, 0], complex)
    shadows = collect_shadows(sv.StateVector(2, amps), 2000, seed=3)
    zsel = shadows.bases[:, 0] == 2
    assert zsel.any()
    assert np.all(shadows.outcomes[zsel, 0] == -1)


def test_estimator_unbiased_zero_state():
    shadows = collect_shadows(sv.StateVector.zero(1), 30000, seed=4)
    z = PauliString.from_label("Z")
    vals = single_shot_values(shadows, z)
    assert np.mean(vals) == pytest.approx(1.0, abs=0.05)
    # single-shot variance of a weight-1 estimator is at most 3
    assert np.var(vals) <= 3.0 + 1e-9

    x = PauliString.from_label("X")
    assert estimate_pauli(shadows, x) == pytest.approx(0.0, abs=0.05)


def test_bell_correlations():
    shadows = collect_shadows(bell_state(), 40000, seed=6)
    for label, truth in [("ZZ", 1.0), ("XX", 1.0), ("YY", -1.0), ("ZI", 0.0)]:
        est = estimate_pauli(shadows, PauliString.from_label(label))
        assert est == pytest.approx(truth, abs=0.1)


def test_estimates_match_statevector_on_random_circuit():
    circ = build_generative(GenerativeSpec(4, 2, 0.5, 0.2, 9))
    state = sv.run(circ)
    shadows = collect_shadows(state, 40000, seed=7)
    for q in range(4):
        p = PauliString.single(4, q, "Z")
        truth = sv.expectation(state, PauliSum(4, [PauliTerm(1.0, p)]))
        assert estimate_pauli(shadows, p) == pytest.approx(truth, abs=0.1)


def test_variance_scaling():
    # empirical single-shot variance stays within 1.5 * 3^k for k = 1, 2, 3
    amps = np.zeros(8, complex)
    amps[0] = amps[7] = 1 / math.sqrt(2)
    state = sv.StateVector(3, amps)
    shadows = collect_shadows(state, 30000, seed=8)
    for label, k in [("ZII", 1), ("ZZI", 2), ("ZZZ", 3)]:
        vals = single_shot_values(shadows, PauliString.from_label(label))
        assert np.var(vals) <= 1.5 * 3**k


def test_rdm_bell():
    shadows = collect_shadows(bell_state(), 40000, seed=10)
    rho = estimate_rdm(shadows, [0])
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=0.05)


def test_rdm_matches_exact():
    circ = build_generative(GenerativeSpec(4, 2, 0.5, 0.2, 11))
    state = sv.run(circ)
    shadows = collect_shadows(state, 60000, seed=12)
    rho_hat = estimate_rdm(shadows, [1, 2])
    rho = sv.reduced_density_matrix(state, [1, 2])
    assert np.max(np.abs(rho_hat - rho)) < 0.1


def test_rdm_matches_per_shot_kron_sum():
    """Grouped snapshots equal the per-shot sum of tensor products."""
    sq = 1 / math.sqrt(2)
    eigen = {(0, 1): [sq, sq], (0, -1): [sq, -sq], (1, 1): [sq, 1j * sq],
             (1, -1): [sq, -1j * sq], (2, 1): [1, 0], (2, -1): [0, 1]}
    rng = np.random.default_rng(4)
    n, shots = 4, 400
    bases = rng.integers(0, 3, (shots, n), dtype=np.int8)
    outcomes = (1 - 2 * rng.integers(0, 2, (shots, n))).astype(np.int8)
    shadows = ShadowSet(n, bases, outcomes)
    for subsystem in ([0], [3], [1, 2], [0, 2, 3]):
        expected = 0
        for b_row, o_row in zip(bases, outcomes):
            acc = np.ones((1, 1))
            for q in reversed(subsystem):
                vec = np.array(eigen[(int(b_row[q]), int(o_row[q]))])
                acc = np.kron(acc, 3 * np.outer(vec, vec.conj()) - np.eye(2))
            expected = expected + acc
        np.testing.assert_allclose(estimate_rdm(shadows, subsystem), expected / shots,
                                   atol=1e-12)


@pytest.mark.parametrize("subsystem", [[], [0], [3], [0, 1], [2, 0], [1, 3, 4], [0, 1, 2, 3, 4]])
def test_rdm_matches_row_unique_reference_bitwise(subsystem):
    rng = np.random.default_rng(5)
    for shots in (1, 2000):
        bases = rng.integers(0, 3, (shots, 5), dtype=np.int8)
        outcomes = (1 - 2 * rng.integers(0, 2, (shots, 5))).astype(np.int8)
        shadows = ShadowSet(5, bases, outcomes)
        got, want = estimate_rdm(shadows, subsystem), reference_rdm(shadows, subsystem)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_median_of_means_robust():
    shadows = collect_shadows(sv.StateVector.zero(2), 5000, seed=13)
    # corrupt one group's worth of shots; median of means must shrug it off
    bad = ShadowSet(2, shadows.bases.copy(), shadows.outcomes.copy())
    bad.outcomes[:400] = -1
    z = PauliString.from_label("ZI")
    assert estimate_pauli(bad, z, groups=10) == pytest.approx(1.0, abs=0.1)


def test_csv_round_trip_shape():
    shadows = collect_shadows(bell_state(), 5, seed=14)
    text = shadows_to_csv(shadows)
    lines = text.strip().split("\n")
    assert lines[0] == "basis_0,basis_1,out_0,out_1"
    assert len(lines) == 6


def test_shape_validation():
    with pytest.raises(ValueError):
        ShadowSet(2, np.zeros((3, 2), np.int8), np.zeros((3, 3), np.int8))
