import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgenbench.circuits import (BRICK_PARAMS, BrickLayer, Circuit, CZLayer, Gate,
                                GenerativeSpec, RotationLayer, backward_lightcone,
                                brick_pairs, build_generative,
                                build_trainable, circuit_from_json, circuit_to_json,
                                concatenate, default_depth, resolve_tau2,
                                sample_er_graph, LayerGraph)
from qgenbench.graphs import union_graph
from qgenbench.pauli import PauliString, PauliSum, PauliTerm
from qgenbench.seeding import derive_seed
from qgenbench import statevector as sv


def test_er_graph_extremes():
    assert sample_er_graph(5, 0.0, 1).edges == ()
    g = sample_er_graph(5, 1.0, 1)
    assert len(g.edges) == 10


def test_er_graph_mean_edge_count():
    n, trials = 16, 10000
    p = math.log(n) / n
    counts = [len(sample_er_graph(n, p, s).edges) for s in range(trials)]
    pairs = n * (n - 1) // 2
    expected = p * pairs
    sigma = math.sqrt(pairs * p * (1 - p) / trials)
    assert abs(np.mean(counts) - expected) < 3 * sigma


def test_er_graph_deterministic():
    assert sample_er_graph(10, 0.3, 7).edges == sample_er_graph(10, 0.3, 7).edges


def test_generative_structure():
    spec = GenerativeSpec(4, 2, 0.5, 0.1, 3)
    circ = build_generative(spec)
    rot_gates = [g for g in circ.gates() if g.kind.startswith("R")]
    cz_layers = [l for l in circ.layers if isinstance(l, CZLayer)]
    assert len(rot_gates) == 4 * (2 + 2)
    assert len(cz_layers) == 2
    # last two rotation layers are the X then Y round
    rots = [l for l in circ.layers if isinstance(l, RotationLayer)]
    assert all(l.role == "gen" for l in rots)
    assert [l.axis for l in rots] == ["X", "X", "X", "Y"]


def test_generative_zero_angle_limit():
    spec = GenerativeSpec(5, 2, 0.6, 1e-18, 11)
    state = sv.run(build_generative(spec))
    for q in range(5):
        obs = PauliSum(5, [PauliTerm(1.0, PauliString.single(5, q, "Z"))])
        assert sv.expectation(state, obs) == pytest.approx(1.0, abs=1e-7)


def test_generative_angle_variance():
    tau2 = 0.05
    angles = []
    for seed in range(1000):
        circ = build_generative(GenerativeSpec(8, 1, 0.2, tau2, seed))
        for layer in circ.layers:
            if isinstance(layer, RotationLayer):
                angles.extend(layer.angles)
    angles = np.asarray(angles)
    # variance of the sample variance of m Gaussians is ~ 2 tau2^2 / m
    sigma = tau2 * math.sqrt(2.0 / len(angles))
    assert abs(angles.var() - tau2) < 3 * sigma


@pytest.mark.parametrize("tau2", [0.25, 0.3, float("nan"), 0.0, -0.1])
def test_generative_spec_rejects_tau2_outside_small_angle_range(tau2):
    # the model is defined for 0 < tau2 < 1/4; nothing is clamped
    with pytest.raises(ValueError, match="tau2"):
        GenerativeSpec(4, 1, 0.2, tau2, 0)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 16), p=st.floats(0.0, 1.0), layers=st.integers(0, 4),
       depth=st.integers(0, 5), init=st.sampled_from(["uniform", "zeros"]),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, p=1.0, layers=2, depth=3, init="uniform", seed=1)
@example(n=1, p=0.5, layers=0, depth=0, init="zeros", seed=2)
@example(n=5, p=0.5, layers=2, depth=0, init="uniform", seed=3)
@example(n=6, p=0.4, layers=3, depth=4, init="zeros", seed=4)
def test_builder_output_passes_the_full_checks(n, p, layers, depth, init, seed):
    """The builders skip the IR check; rebuilding through it gives the same record."""
    samples = [sample_er_graph(n, p, derive_seed(seed, l)) for l in range(max(layers, 1))]
    for graph in samples + [union_graph(samples)]:
        assert LayerGraph(graph.n, graph.edges) == graph
    for circuit in (build_generative(GenerativeSpec(n, layers, p, 0.1, seed)),
                    build_trainable(n, depth, seed, init)):
        checked = Circuit(circuit.n, circuit.layers, circuit.theta)
        assert (checked.n, checked.layers) == (circuit.n, circuit.layers)
        assert checked.theta.dtype == circuit.theta.dtype
        np.testing.assert_array_equal(checked.theta, circuit.theta)


_BAD_COUNTS = [-1, 2.0, True, np.int64(4)]


@pytest.mark.parametrize("build, args", [
    *[pytest.param(sample_er_graph, (n, 0.5, 1), id=f"er-n={n!r}") for n in _BAD_COUNTS],
    *[pytest.param(GenerativeSpec, (n, 2, 0.5, 0.1, 0), id=f"spec-n={n!r}")
      for n in _BAD_COUNTS + [0]],
    *[pytest.param(GenerativeSpec, (4, l, 0.5, 0.1, 0), id=f"spec-layers={l!r}")
      for l in _BAD_COUNTS],
    *[pytest.param(build_trainable, (n, 2), id=f"trainable-n={n!r}") for n in _BAD_COUNTS + [0]],
    *[pytest.param(build_trainable, (4, d), id=f"trainable-depth={d!r}") for d in _BAD_COUNTS],
    pytest.param(build_trainable, (4, 2, 0, "ones"), id="trainable-init"),
    pytest.param(LayerGraph, (2.0, ()), id="graph-n=2.0"),
    pytest.param(LayerGraph, (3, ((0, 1.5),)), id="graph-float-edge"),
    pytest.param(LayerGraph, (3, ((False, 2),)), id="graph-bool-edge"),
])
def test_builders_reject_bad_counts(build, args):
    """Counts must be Python ints: the builders' output skips the IR check."""
    with pytest.raises(ValueError):
        build(*args)


def test_resolve_tau2():
    assert resolve_tau2("constant", 8, 2) == 0.2499
    assert resolve_tau2("theorem", 8, 2) == pytest.approx(math.log(8) / 64)
    with pytest.raises(ValueError):
        resolve_tau2("bogus", 8, 2)


def test_trainable_counts():
    circ = build_trainable(4, 2, seed=0)
    bricks = sum(len(l.pairs) for l in circ.layers if isinstance(l, BrickLayer))
    assert bricks == 3
    assert circ.num_params == 45
    circ2 = build_trainable(2, 1, seed=0)
    assert circ2.num_params == BRICK_PARAMS


def test_trainable_zero_init_is_identity():
    gen = build_generative(GenerativeSpec(4, 1, 0.4, 0.1, 5))
    train = build_trainable(4, 2, seed=1, init="zeros")
    full = concatenate(gen, train)
    np.testing.assert_allclose(sv.run(full).amplitudes, sv.run(gen).amplitudes,
                               atol=1e-12)


def test_builders_deterministic():
    spec = GenerativeSpec(6, 3, 0.3, 0.2, 17)
    assert circuit_to_json(build_generative(spec)) == circuit_to_json(build_generative(spec))
    a = circuit_to_json(build_trainable(6, 3, seed=9))
    assert a == circuit_to_json(build_trainable(6, 3, seed=9))


def test_circuit_json_round_trip():
    gen = build_generative(GenerativeSpec(5, 2, 0.4, 0.15, 2))
    full = concatenate(gen, build_trainable(5, 2, seed=3))
    back = circuit_from_json(circuit_to_json(full))
    assert circuit_to_json(back) == circuit_to_json(full)
    # a CZ pair keeps the orientation it was listed in
    reversed_cz = Circuit(3, (CZLayer(((1, 0), (2, 1), (0, 2))),))
    back = circuit_from_json(circuit_to_json(reversed_cz))
    assert back.layers == reversed_cz.layers
    assert circuit_to_json(back) == circuit_to_json(reversed_cz)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_concatenate_equals_the_checked_circuit(n):
    """`concatenate` skips the IR check its halves passed; the result is the checked one."""
    gen = build_generative(GenerativeSpec(n, 2, 0.5, 0.15, n))
    train = build_trainable(n, 3, seed=n)
    full = concatenate(gen, train)
    checked = Circuit(n, gen.layers + train.layers, train.theta)
    assert (full.n, full.layers) == (checked.n, checked.layers)
    assert full.theta.dtype == checked.theta.dtype
    np.testing.assert_array_equal(full.theta, checked.theta)
    with pytest.raises(ValueError, match="qubit counts differ"):
        concatenate(gen, build_trainable(n + 1, 1))
    with pytest.raises(ValueError, match="parameter-free"):
        concatenate(Circuit(n, gen.layers, np.zeros(1)), train)


def test_param_ids_unique():
    layer = BrickLayer(((0, 1),), (tuple(range(15)),))
    with pytest.raises(ValueError):
        Circuit(2, (layer, layer), np.zeros(15))


@pytest.mark.parametrize("layer", [
    CZLayer(((0, 9),)),  # edge leaves the register
    CZLayer(((-1, 2),)),
    BrickLayer(((2, 4),), (tuple(range(15)),)),
    RotationLayer("X", "gen", (0.1, 0.2)),  # 2 angles for 4 qubits
    RotationLayer("X", "gen", (0.1,) * 5),
    RotationLayer("W", "gen", (0.1,) * 4),
    RotationLayer("Y", "gen", (0.1, float("nan"), 0.0, 0.0)),
    RotationLayer("Z", "gen", (0.1, float("inf"), 0.0, 0.0)),
    CZLayer(((0, 1.5),)),  # would be truncated to CZ(0, 1)
    CZLayer(((True, 2),)),
    BrickLayer(((0.0, 1),), (tuple(range(15)),)),
    BrickLayer(((0, 1),), ((0.0,) + tuple(range(1, 15)),)),  # a float parameter index
    RotationLayer("X", "zzz", (0.1,) * 4),  # neither resampled nor trained
    RotationLayer("X", "gen", (True, False, 0.1, 0.2)),  # would run as 1 and 0 radian
    RotationLayer("Y", "gen", (0.1, np.True_, 0.0, 0.0)),
    BrickLayer(((0, 1), (1, 2)), (tuple(range(15)), tuple(range(15, 30)))),  # overlap
    CZLayer(((0, 0),)),  # a self-loop
    CZLayer(((0, 1), (0, 1))),  # a duplicate edge
    CZLayer(((0, 1), (1, 0))),  # the same edge, reversed
    BrickLayer(((0, 1), (2, 3)), (tuple(range(15)),)),  # would drop its second brick
    BrickLayer(((0, 1),), (tuple(range(15)), tuple(range(15, 30)))),
    BrickLayer(((0, 1),), (tuple(range(14)),)),
    Gate("CZ", (0, 1)),  # not a layer record
])
def test_circuit_rejects_malformed_layers(layer):
    # theta has room for two bricks, so every case fails its own rule
    with pytest.raises(ValueError):
        Circuit(4, (layer,), np.zeros(2 * BRICK_PARAMS))


@pytest.mark.parametrize("n, theta", [(2.0, ()), (-1, ()), (0, ()), (True, ()),
                                      (2, np.zeros((1, 2))), (2, [True, 0.5]),
                                      (2, np.array([False, True]))])
def test_circuit_rejects_bad_qubit_count_and_theta(n, theta):
    with pytest.raises(ValueError):
        Circuit(n, (), theta)


def test_circuit_rejects_non_finite_theta():
    layer = BrickLayer(((0, 1),), (tuple(range(15)),))
    theta = np.zeros(15)
    theta[3] = np.nan
    with pytest.raises(ValueError):
        Circuit(2, (layer,), theta)
    with pytest.raises(ValueError):
        build_trainable(2, 1, init="zeros").with_theta(np.full(15, np.inf))
    with pytest.raises(ValueError):  # would run as a 1-radian angle
        build_trainable(2, 1, init="zeros").with_theta([True] + [0.0] * 14)


def brick_cone(n, depth, support):
    """Backward light cone of `support` through `depth` brick layers."""
    return backward_lightcone(build_trainable(n, depth), support)[1]


def test_brick_lightcone_trivial():
    assert brick_cone(8, 0, {3}) == {3}
    assert brick_cone(8, 1, {5}) == {4, 5}  # layer 0 pairs start at qubit 0


def test_brick_lightcone_matches_gate_scan():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(4, 12))
        d = int(rng.integers(0, 5))
        support = set(int(q) for q in rng.choice(n, size=rng.integers(1, 3), replace=False))
        cone = brick_cone(n, d, support)
        # oracle: scan bricks layer by layer from the last
        expected = set(support)
        for l in range(d - 1, -1, -1):
            for pair in brick_pairs(n, l):
                if expected & set(pair):
                    expected.update(pair)
        assert cone == expected
        assert support <= cone
        assert len(cone) <= len(support) * (1 + 2 * d)


def test_backward_lightcone_no_edges():
    circ = build_generative(GenerativeSpec(6, 2, 0.0, 0.1, 0))
    _, cone = backward_lightcone(circ, {2})
    assert cone == {2}


def test_backward_lightcone_star():
    star = CZLayer(tuple((0, b) for b in range(1, 6)))
    circ = Circuit(6, (star,))
    _, cone = backward_lightcone(circ, {0})
    assert cone == set(range(6))


def test_backward_lightcone_monotone():
    circ = build_generative(GenerativeSpec(10, 3, 0.25, 0.1, 21))
    _, small = backward_lightcone(circ, {0})
    _, big = backward_lightcone(circ, {0, 4})
    assert small <= big


def test_lightcone_percolation_er():
    n, trials = 100, 100
    p = math.log(n) / n
    L = math.ceil(math.log(n))
    fractions = []
    for seed in range(trials):
        circ = build_generative(GenerativeSpec(n, L, p, 0.1, seed))
        _, cone = backward_lightcone(circ, {0})
        fractions.append(len(cone) / n)
    assert np.mean(fractions) > 0.9


def test_default_depth():
    assert default_depth(4) == 2
    assert default_depth(10) == 4
