import math
from functools import reduce

import numpy as np
import pytest

from qgenbench.circuits import GenerativeSpec, build_generative
from qgenbench.pauli import PauliString, PauliSum, PauliTerm
from qgenbench.seeding import rng_for
from qgenbench.shadows import (_BASIS_ROT, _SNAPSHOT_FACTORS, ShadowSet, collect_shadows,
                               estimate_pauli, estimate_rdm, shadows_to_csv,
                               single_shot_values)
from qgenbench import shadows as shadows_mod
from qgenbench import statevector as sv

# The two-path sampler below enumerated basis combinations while 3**n was at
# most this, and rotated one state copy per shot above it.
REFERENCE_ENUMERATE_LIMIT = 20000


def _sample_bitstrings(probs, u):
    """The package's former sampler: one CDF per rotated state."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, u, side="right")


def reference_collect(state, num_samples, seed):
    """Two-path sampler (per-combination enumeration, per-shot fallback),
    kept to pin the grouped sampler bitwise; returns (bases, outcomes)."""
    rng = rng_for(seed)
    n = state.n
    bases = rng.integers(0, 3, size=(num_samples, n), dtype=np.int8)
    outcomes = np.empty((num_samples, n), dtype=np.int8)
    if num_samples == 0:
        return bases, outcomes
    u = rng.random(num_samples)
    bits = np.empty(num_samples, dtype=np.int64)
    if 3**n <= REFERENCE_ENUMERATE_LIMIT:
        combo = np.zeros(num_samples, dtype=np.int64)
        for q in range(n):
            combo = combo * 3 + bases[:, q]
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
                    sv.apply_1q_inplace(amps, n, q, _BASIS_ROT[letters[q]])
            sel = combo == cid
            bits[sel] = _sample_bitstrings(np.abs(amps) ** 2, u[sel])
    else:
        for i in range(num_samples):
            amps = state.amplitudes.copy()
            for q in range(n):
                if bases[i, q] != 2:
                    sv.apply_1q_inplace(amps, n, q, _BASIS_ROT[bases[i, q]])
            bits[i] = _sample_bitstrings(np.abs(amps) ** 2, u[i:i + 1])[0]
    for q in range(n):
        outcomes[:, q] = 1 - 2 * ((bits >> q) & 1)
    return bases, outcomes


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


# both sides of the old two-path switch, and n = 16, where a batch holds
# one combination and every rotation runs in place on its one copy
@pytest.mark.parametrize("n, shots", [(3, 300), (10, 40), (16, 20)])
def test_collect_leaves_state_untouched(n, shots):
    assert (3**n <= REFERENCE_ENUMERATE_LIMIT) == (n == 3)
    assert n < 16 or shadows_mod._BATCH_AMPS >> n == 0
    state = sv.run(build_generative(GenerativeSpec(n, 2, 0.4, 0.2, 8)))
    before = state.amplitudes.copy()
    collect_shadows(state, shots, seed=9)
    assert state.amplitudes.tobytes() == before.tobytes()


@pytest.mark.parametrize("n", range(12))
def test_collect_matches_two_path_reference_bitwise(n):
    """One grouped path for every n: the bytes of both branches it replaced."""
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


def distinct_rotated_prefixes(bases, per_batch):
    """Distinct prefixes 0..q ending in X or Y, counted per batch of combinations."""
    combos = np.unique(bases, axis=0)  # sorted, qubit 0 most significant
    return sum(len({tuple(c[:q + 1]) for c in combos[lo:lo + per_batch]
                    for q in range(len(c)) if c[q] != 2})
               for lo in range(0, len(combos), per_batch))


@pytest.mark.parametrize("n, shots, batch_amps", [
    (6, 500, 2**30), (6, 500, 2**14), (10, 2000, 2**14), (4, 40, 1)])
def test_each_shared_prefix_rotated_once(monkeypatch, n, shots, batch_amps):
    """Each distinct X or Y prefix in a batch is one rotated row, no more."""
    monkeypatch.setattr(shadows_mod, "_BATCH_AMPS", batch_amps)
    rotated = []
    def counting(amps, n_, q, mat):
        rotated.append(len(amps))
        sv.apply_1q_inplace(amps, n_, q, mat)
    monkeypatch.setattr(shadows_mod, "apply_1q_inplace", counting)
    state = random_state(n, 300 + n)
    got = collect_shadows(state, shots, 3)
    per_batch = max(1, batch_amps >> n)
    assert sum(rotated) == distinct_rotated_prefixes(got.bases, per_batch)
    # each level rotates its X rows in one product and its Y rows in another
    combos = len(np.unique(got.bases, axis=0))
    assert len(rotated) <= 2 * n * -(-combos // per_batch)


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
