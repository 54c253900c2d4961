import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgenbench.circuits import (BRICK_PARAMS, BrickLayer, Circuit, CZLayer, GenerativeSpec,
                                RotationLayer, Gate, brick_pairs, build_generative,
                                build_trainable, concatenate, default_depth, default_layers,
                                default_p, resolve_tau2)
from qgenbench.experiments import default_shift_param
from qgenbench.pauli import PauliString, PauliSum, PauliTerm
from qgenbench.statevector import (StateVector, _apply_op, _block_op, apply_gate, apply_pauli,
                                   dense_pauli_matrix, expectation, parameter_shift_gradient,
                                   reduced_density_matrix, run)
from statevector_reference import reference_gradient, reference_run


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


@pytest.mark.parametrize("label", ["ZI", "IIIIIZ"])
def test_observable_must_act_on_the_state_qubits(label):
    """A narrower observable used to read 1.0 and a wider one to raise IndexError."""
    obs = PauliSum.from_label(1.0, label)
    with pytest.raises(ValueError, match="observable acts on"):
        expectation(StateVector.zero(4), obs)
    with pytest.raises(ValueError, match="observable acts on"):
        parameter_shift_gradient(build_trainable(4, 2, seed=1), 0, obs)


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


def reference_apply_pauli(amps, p):
    """The gather form every string took before diagonal ones skipped it."""
    src = np.arange(len(amps), dtype=np.uint64) ^ np.uint64(p.x)
    parity = np.bitwise_count(src & np.uint64(p.z)) & 1
    out = amps[src] * (1j) ** ((p.x & p.z).bit_count() % 4)
    out[parity == 1] *= -1
    return out


@pytest.mark.parametrize("n", range(1, 11))
def test_apply_pauli_matches_gather_form_bitwise(n):
    rng = np.random.default_rng(100 + n)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    for k in range(16):
        z = int(rng.integers(2**n))
        x = 0 if k < 8 else int(rng.integers(2**n))  # half of them diagonal
        want = reference_apply_pauli(amps, PauliString(n, x, z))
        assert apply_pauli(amps, PauliString(n, x, z)).tobytes() == want.tobytes()


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
    """Random mixes of rotation, CZ and brick layers on 1-10 qubits.

    CZ layers may be empty and list edges in either orientation.  Brick
    pairs come either from a random qubit permutation, so they are reversed
    and non-adjacent as often as not, or from a prefix of the chain pairs
    `brick_pairs` lays out at offset 0 or 1: neighbouring bricks, lone
    bricks and odd brick counts.  With `trainable`, at least one brick layer
    has a brick.
    """
    n = draw(st.integers(min_n, 10))
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
            least = 1 if kind == "trainable" else 0
            if draw(st.booleans()):
                offsets = [o for o in (0, 1) if len(brick_pairs(n, o)) >= least]
                chain = brick_pairs(n, draw(st.sampled_from(offsets)))
                pairs = chain[:draw(st.integers(least, len(chain)))]
            else:
                order = draw(st.permutations(range(n)))
                k = draw(st.integers(least, n // 2))
                pairs = tuple((order[2 * i], order[2 * i + 1]) for i in range(k))
            k = len(pairs)
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


def _fold(circ, theta=None):
    state = StateVector.zero(circ.n)
    for gate in circ.gates(theta):
        state = apply_gate(state, gate)
    return state


@given(random_circuits())
@settings(max_examples=80)
def test_run_matches_gate_fold_and_dense_product(circ):
    got = run(circ).amplitudes
    np.testing.assert_allclose(got, _fold(circ).amplitudes, rtol=0, atol=1e-12)
    if circ.n <= 7:
        dense = StateVector.zero(circ.n).amplitudes
        for gate in circ.gates():
            dense = _dense_gate(gate, circ.n) @ dense
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)


@st.composite
def shift_cases(draw):
    """(circuit, params, observable): a parameter of the first, middle and last brick layer."""
    circ = draw(random_circuits(min_n=2, trainable=True))
    obs = draw(random_observables(circ.n))
    bricks = [layer for layer in circ.layers if isinstance(layer, BrickLayer) and layer.pairs]
    params = [draw(st.sampled_from([p for ids in layer.param_ids for p in ids]))
              for layer in {id(b): b for b in (bricks[0], bricks[len(bricks) // 2],
                                                 bricks[-1])}.values()]
    return circ, params, obs


def _gradvar_case(n, depth):
    """First-trial circuit, shifted parameter and observable of gradvar at (n, depth)."""
    layers = default_layers(n)
    gen = build_generative(GenerativeSpec(n, layers, default_p(n),
                                          resolve_tau2("theorem", n, layers), seed=n))
    circ = concatenate(gen, build_trainable(n, depth, seed=depth))
    obs = PauliSum(n, [PauliTerm(1.0, PauliString.single(n, n // 2, "Z"))])
    return circ, [default_shift_param(circ)], obs


def _with_gradvar_examples(test):
    """Every gradvar shape n = 2..12 in both depth arms; n = 1 has no brick."""
    for n in range(2, 13):
        for depth in sorted({default_depth(n), n}):
            test = example(_gradvar_case(n, depth))(test)
    return test


@_with_gradvar_examples
@given(shift_cases())
@settings(max_examples=60)
def test_shared_prefix_gradient_matches_two_runs(case):
    circ, params, obs = case
    for param in params:
        shifted = []
        for s in (math.pi / 4, -math.pi / 4):
            theta = circ.theta.copy()
            theta[param] += s
            shifted.append(expectation(_fold(circ, theta), obs))
        assert parameter_shift_gradient(circ, param, obs) == \
            pytest.approx(shifted[0] - shifted[1], rel=0, abs=1e-12)


@given(random_circuits())
@settings(max_examples=80)
def test_run_matches_reference_bitwise(circ):
    np.testing.assert_array_equal(run(circ).amplitudes, reference_run(circ))


def _brick_position_case():
    """Shifted parameters in each brick position the plan treats apart.

    Bricks (0, 1), (2, 3) fuse into one block, so the shift lands in the
    first and in the second brick of a fused pair; then a reversed and a
    non-adjacent pair, a lone chain brick, and an empty CZ layer between.
    """
    n = 5
    layers = (RotationLayer("X", "gen", (0.3, -0.2, 0.5, 0.1, -0.4)), CZLayer(()),
              BrickLayer(((0, 1), (2, 3)), ((*range(0, 15),), (*range(15, 30),))),
              CZLayer(((4, 0), (1, 2))),
              BrickLayer(((3, 2), (0, 4)), ((*range(30, 45),), (*range(45, 60),))),
              CZLayer(()),
              BrickLayer(((1, 2),), ((*range(60, 75),),)),
              RotationLayer("Y", "gen", (0.1, 0.2, -0.3, 0.4, 0.5)))
    theta = np.random.default_rng(7).uniform(-math.pi, math.pi, 75)
    obs = PauliSum(n, [PauliTerm(1.0, PauliString.from_label("ZIXIZ")),
                       PauliTerm(-0.5, PauliString.single(n, 2, "Y"))])
    return Circuit(n, layers, theta), [3, 20, 33, 50, 64], obs


@example(_brick_position_case())
@_with_gradvar_examples
@given(shift_cases())
@settings(max_examples=60)
def test_gradient_matches_reference_bitwise(case):
    circ, params, obs = case
    np.testing.assert_array_equal(run(circ).amplitudes, reference_run(circ))
    for param in params:
        assert parameter_shift_gradient(circ, param, obs) == reference_gradient(circ, param, obs)


def _ops(n, rng):
    """One op of every kind and placement on n qubits, with random matrices."""
    def mat(width):
        return rng.normal(size=(width, width)) + 1j * rng.normal(size=(width, width))
    ops = [_block_op(lo, mat(2**w)) for w in (1, 2, 4) for lo in range(n - w + 1)]
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    return ops + [("2q", a, b, mat(4)) for a, b in pairs] + [("cz", a, b) for a, b in pairs]


@pytest.mark.parametrize("n", [1, 2, 5, 7])
def test_ops_on_a_stack_match_single_states_bitwise(n):
    """Every op kind on a (3, 2**n) stack equals three single-state runs, bit for bit."""
    rng = np.random.default_rng(n)
    ops = _ops(n, rng)
    if n == 7:
        assert {op[0] for op in ops} == {"flat", "view", "2q", "cz"}
    stack = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
    for op in ops:
        rows = [stack[i:i + 1].copy() for i in range(3)]
        for row in rows:
            _apply_op(row, op)
        _apply_op(stack, op)
        np.testing.assert_array_equal(stack, np.concatenate(rows))


def test_gradient_peak_memory_at_n16():
    """One gradient at n = 16 holds at most 4.25 states at a time.

    The (2, 2**n) stack is the only state buffer; a product's output and
    expectation's temporaries take the rest.
    """
    (circ, (param,), obs), = [_gradvar_case(16, default_depth(16))]
    parameter_shift_gradient(circ, param, obs)  # warm-up: cached tables and indices
    tracemalloc.start()
    try:
        parameter_shift_gradient(circ, param, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * 16 * 2**16
