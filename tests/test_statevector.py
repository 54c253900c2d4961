import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgenbench.circuits import (BRICK_PARAMS, BrickLayer, Circuit, CZLayer, GenerativeSpec,
                                RotationLayer, Gate, build_generative, build_trainable,
                                concatenate)
from qgenbench.pauli import PauliString, PauliSum, PauliTerm
from qgenbench.statevector import (StateVector, apply_1q_inplace, apply_gate, apply_pauli,
                                   dense_pauli_matrix, expectation,
                                   parameter_shift_gradient,
                                   reduced_density_matrix, run)


def bell_state():
    amps = np.zeros(4, complex)
    amps[0] = amps[3] = 1 / math.sqrt(2)
    return StateVector(2, amps)


def test_rotation_zero_is_identity():
    state = StateVector.zero(3)
    out = apply_gate(state, Gate("RX", (1,), 0.0))
    np.testing.assert_allclose(out.amplitudes, state.amplitudes)


def test_cz_phase():
    amps = np.zeros(4, complex)
    amps[3] = 1.0
    out = apply_gate(StateVector(2, amps), Gate("CZ", (0, 1)))
    assert out.amplitudes[3] == pytest.approx(-1.0)


@pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
def test_rx_z_expectation(gamma):
    state = apply_gate(StateVector.zero(1), Gate("RX", (0,), gamma))
    obs = PauliSum.from_label(1.0, "Z")
    assert expectation(state, obs) == pytest.approx(math.cos(2 * gamma), abs=1e-12)


def test_run_empty_circuit():
    state = run(Circuit(3, ()))
    assert state.amplitudes[0] == 1.0


def test_run_preserves_norm():
    circ = concatenate(build_generative(GenerativeSpec(6, 3, 0.4, 0.2, 1)),
                       build_trainable(6, 3, seed=2))
    state = run(circ)
    assert state.norm() == pytest.approx(1.0, abs=1e-10)


def test_expectation_trivial():
    assert expectation(StateVector.zero(1), PauliSum.from_label(1.0, "Z")) == pytest.approx(1.0)
    bell = bell_state()
    assert expectation(bell, PauliSum.from_label(1.0, "XX")) == pytest.approx(1.0)
    assert expectation(bell, PauliSum.from_label(1.0, "ZI")) == pytest.approx(0.0)


def test_expectation_matches_dense():
    rng = np.random.default_rng(10)
    n = 5
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    state = StateVector(n, amps)
    s = PauliSum(n)
    for _ in range(4):
        s.add(PauliTerm(float(rng.normal()),
                        PauliString(n, int(rng.integers(2**n)), int(rng.integers(2**n)))))
    dense = sum(t.coefficient * dense_pauli_matrix(t.string) for t in s)
    expected = (amps.conj() @ dense @ amps).real
    assert expectation(state, s) == pytest.approx(expected, abs=1e-10)
    for t in s:
        single = PauliSum(n, [PauliTerm(1.0, t.string)])
        assert expectation(state, single) ** 2 <= 1.0 + 1e-12


def test_rdm_product_state():
    rho = reduced_density_matrix(StateVector.zero(2), [0])
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)


def test_rdm_bell():
    rho = reduced_density_matrix(bell_state(), [0])
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_rdm_ghz():
    amps = np.zeros(8, complex)
    amps[0] = amps[7] = 1 / math.sqrt(2)
    rho = reduced_density_matrix(StateVector(3, amps), [0, 1])
    np.testing.assert_allclose(rho, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)


def test_rdm_respects_qubit_order():
    # |psi> = |0>_0 |+>_1: reduced on {1} must be |+><+|
    amps = np.array([1, 0, 1, 0], complex) / math.sqrt(2)
    rho = reduced_density_matrix(StateVector(2, amps), [1])
    np.testing.assert_allclose(rho, np.full((2, 2), 0.5), atol=1e-12)


def _single_rxx_circuit(angle):
    theta = np.zeros(15)
    theta[6] = angle  # the RXX parameter of the brick template
    return Circuit(2, (BrickLayer(((0, 1),), (tuple(range(15)),)),), theta)


def test_parameter_shift_closed_form():
    # <Z_0> after exp(-i g XX)|00> equals cos(2g)
    obs = PauliSum.from_label(1.0, "ZI")
    assert parameter_shift_gradient(_single_rxx_circuit(0.0), 6, obs) == \
        pytest.approx(0.0, abs=1e-12)
    grad = parameter_shift_gradient(_single_rxx_circuit(math.pi / 8), 6, obs)
    assert grad == pytest.approx(-2 * math.sin(math.pi / 4), abs=1e-10)


def test_parameter_shift_matches_finite_differences():
    rng = np.random.default_rng(11)
    circ = concatenate(build_generative(GenerativeSpec(6, 2, 0.3, 0.2, 4)),
                       build_trainable(6, 2, seed=5))
    obs = PauliSum(6, [PauliTerm(1.0, PauliString.single(6, 3, "Z")),
                       PauliTerm(0.5, PauliString.from_label("XIIIIZ"))])
    h = 1e-4
    for param in rng.choice(circ.num_params, size=10, replace=False):
        param = int(param)
        ps = parameter_shift_gradient(circ, param, obs)
        tp, tm = circ.theta.copy(), circ.theta.copy()
        tp[param] += h
        tm[param] -= h
        fd = (expectation(run(circ, tp), obs) - expectation(run(circ, tm), obs)) / (2 * h)
        assert ps == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("bad", [np.full(45, np.nan), np.zeros(44), np.zeros(46),
                                 [True] + [0.0] * 44])
def test_theta_override_is_checked(bad):
    circ = build_trainable(4, 2, seed=1)  # 3 bricks, 45 parameters
    obs = PauliSum.from_label(1.0, "ZIII")
    with pytest.raises(ValueError):
        run(circ, bad)
    with pytest.raises(ValueError):
        parameter_shift_gradient(circ, 0, obs, bad)


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(12)
    n = 4
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    for _ in range(20):
        p = PauliString(n, int(rng.integers(2**n)), int(rng.integers(2**n)))
        np.testing.assert_allclose(apply_pauli(amps, p), dense_pauli_matrix(p) @ amps,
                                   atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_1q_kernel_batch_rows_match_single_states_bitwise(n):
    """A batch (R, 2**n) gives each row the bytes of that row run on its own."""
    rng = np.random.default_rng(n)
    batch = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for q in range(n):
        alone = [row.copy() for row in batch]
        for row in alone:
            apply_1q_inplace(row, n, q, mat)
        apply_1q_inplace(batch, n, q, mat)
        assert batch.tobytes() == np.stack(alone).tobytes()


def test_norm_drift_many_gates():
    rng = np.random.default_rng(13)
    state = StateVector.zero(6)
    kinds = ["RX", "RY", "RZ"]
    for _ in range(10000):
        g = Gate(kinds[int(rng.integers(3))], (int(rng.integers(6)),),
                 float(rng.normal()))
        state = apply_gate(state, g)
    assert abs(state.norm() - 1.0) < 1e-9


# --- differential tests on random circuits ---------------------------------

_ANGLES = st.floats(-math.pi, math.pi, allow_nan=False)


@st.composite
def random_circuits(draw, min_n=1, trainable=False):
    """Random mixes of rotation, CZ and brick layers on 1-7 qubits.

    CZ layers may be empty and list edges in either orientation; brick pairs
    come from a random qubit permutation, so they are reversed and
    non-adjacent as often as not.  With `trainable`, at least one brick
    layer has a brick.
    """
    n = draw(st.integers(min_n, 7))
    kinds = draw(st.lists(st.sampled_from(["rot", "cz", "brick"]), max_size=6))
    if trainable:
        kinds.insert(draw(st.integers(0, len(kinds))), "trainable")
    layers, next_id = [], 0
    for kind in kinds:
        if kind == "rot":
            angles = draw(st.lists(_ANGLES, min_size=n, max_size=n))
            layers.append(RotationLayer(draw(st.sampled_from("XYZ")), "gen", tuple(angles)))
        elif kind == "cz":
            edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
            chosen = draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
            layers.append(CZLayer(tuple(e[::-1] if draw(st.booleans()) else e
                                        for e in chosen)))
        else:
            order = draw(st.permutations(range(n)))
            k = draw(st.integers(1 if kind == "trainable" else 0, n // 2))
            pairs = tuple((order[2 * i], order[2 * i + 1]) for i in range(k))
            ids = tuple(tuple(range(next_id + BRICK_PARAMS * i, next_id + BRICK_PARAMS * (i + 1)))
                        for i in range(k))
            next_id += BRICK_PARAMS * k
            layers.append(BrickLayer(pairs, ids))
    theta = draw(st.lists(_ANGLES, min_size=next_id, max_size=next_id))
    return Circuit(n, tuple(layers), np.array(theta))


@st.composite
def random_observables(draw, n):
    terms = [PauliTerm(draw(st.floats(-1, 1)),
                       PauliString(n, draw(st.integers(0, 2**n - 1)),
                                   draw(st.integers(0, 2**n - 1))))
             for _ in range(draw(st.integers(1, 3)))]
    return PauliSum(n, terms)


def _dense_gate(gate, n):
    """Dense 2^n unitary of one gate, built without the engine's kernels."""
    if gate.kind == "CZ":
        idx = np.arange(2**n)
        a, b = gate.qubits
        return np.diag(np.where((idx >> a) & (idx >> b) & 1, -1.0, 1.0)).astype(complex)
    gen = dense_pauli_matrix(gate.generator(n))
    return math.cos(gate.angle) * np.eye(2**n) - 1j * math.sin(gate.angle) * gen


@given(random_circuits())
@settings(max_examples=80)
def test_run_matches_gate_fold_and_dense_product(circ):
    n = circ.n
    fold = StateVector.zero(n)
    dense = StateVector.zero(n).amplitudes
    for gate in circ.gates():
        fold = apply_gate(fold, gate)
        dense = _dense_gate(gate, n) @ dense
    got = run(circ).amplitudes
    np.testing.assert_allclose(got, fold.amplitudes, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)


@given(st.data())
@settings(max_examples=60)
def test_shared_prefix_gradient_matches_two_runs(data):
    circ = data.draw(random_circuits(min_n=2, trainable=True))
    obs = data.draw(random_observables(circ.n))
    bricks = [layer for layer in circ.layers if isinstance(layer, BrickLayer) and layer.pairs]
    for layer in {id(b): b for b in (bricks[0], bricks[len(bricks) // 2], bricks[-1])}.values():
        param = data.draw(st.sampled_from([p for ids in layer.param_ids for p in ids]))
        shifted = []
        for s in (math.pi / 4, -math.pi / 4):
            theta = circ.theta.copy()
            theta[param] += s
            shifted.append(expectation(run(circ, theta), obs))
        assert parameter_shift_gradient(circ, param, obs) == \
            pytest.approx(shifted[0] - shifted[1], rel=0, abs=1e-12)
