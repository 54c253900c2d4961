import math

import numpy as np
import pytest

from qgenbench.circuits import GenerativeSpec, build_generative
from qgenbench.pauli import PauliString, PauliSum, PauliTerm
from qgenbench.shadows import (ShadowSet, collect_shadows, estimate_pauli,
                               estimate_rdm, shadows_to_csv, single_shot_values)
from qgenbench import statevector as sv


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


@pytest.mark.parametrize("n, shots", [(3, 300), (10, 40)])  # enumerated, per-shot
def test_collect_leaves_state_untouched(n, shots):
    assert (3**n <= 20000) == (n == 3)
    state = sv.run(build_generative(GenerativeSpec(n, 2, 0.4, 0.2, 8)))
    before = state.amplitudes.copy()
    collect_shadows(state, shots, seed=9)
    assert state.amplitudes.tobytes() == before.tobytes()


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
