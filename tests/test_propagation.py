import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgenbench.circuits import (BRICK_PARAMS, BrickLayer, Circuit, CZLayer, GenerativeSpec,
                                RotationLayer, build_generative, build_trainable,
                                concatenate, default_depth)
from qgenbench.pauli import PauliString, PauliSum, PauliTerm
from qgenbench.propagation import (PropagationReport, ResourceLimitError,
                                   TruncationPolicy, benchmark_propagation,
                                   propagate, sine_cutoff_default)
from qgenbench.seeding import derive_seed
from qgenbench import statevector as sv

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


def test_weight_and_coeff_criteria():
    circ = full_model(6, 7)
    obs = z_obs(6)
    rep_w = propagate(circ, obs, TruncationPolicy(weight_cutoff=2))
    rep_c = propagate(circ, obs, TruncationPolicy(coeff_threshold=0.05))
    exact = sv.expectation(sv.run(circ), obs)
    for rep in (rep_w, rep_c):
        assert abs(rep.expectation - exact) <= rep.dropped_mass + 1e-9
        assert rep.dropped_mass > 0.0


def test_max_terms_keeps_largest():
    circ = full_model(6, 9)
    rep = propagate(circ, z_obs(6), TruncationPolicy(max_terms=32))
    assert max(rep.terms_per_step) <= 32


def test_dynamic_schedule_switches_policy():
    circ = full_model(6, 4)
    obs = z_obs(6)
    loose = TruncationPolicy(sine_cutoff=8)
    base = TruncationPolicy(sine_cutoff=0, dynamic_schedule={0: loose})
    rep_dyn = propagate(circ, obs, base)
    rep_loose = propagate(circ, obs, loose)
    # override active from step 0 => behaves exactly like the loose policy
    assert rep_dyn.expectation == pytest.approx(rep_loose.expectation, abs=1e-12)

    late = TruncationPolicy(sine_cutoff=0, dynamic_schedule={10**9: loose})
    rep_late = propagate(circ, obs, late)
    rep_tight = propagate(circ, obs, TruncationPolicy(sine_cutoff=0))
    assert rep_late.expectation == pytest.approx(rep_tight.expectation, abs=1e-12)


def test_exact_mode_resource_limit():
    circ = full_model(8, 2)
    with pytest.raises(ResourceLimitError) as err:
        propagate(circ, z_obs(8), TruncationPolicy.exact_mode(max_terms=16))
    assert isinstance(err.value.report, PropagationReport)
    assert err.value.report.peak_terms > 0


def test_policy_requires_criterion():
    with pytest.raises(ValueError):
        TruncationPolicy()


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
def random_circuits(draw):
    """Up to 5 layers of X/Y/Z rotations, CZ edges and bricks on any disjoint
    pairs (reversed and non-adjacent included), n from 2 to 6."""
    n = draw(st.integers(2, 6))
    layers, num_params = [], 0
    for kind in draw(st.lists(st.sampled_from(["rot", "cz", "brick"]), min_size=1,
                              max_size=5)):
        if kind == "rot":
            angles = draw(st.lists(ANGLES, min_size=n, max_size=n))
            layers.append(RotationLayer(draw(st.sampled_from("XYZ")), "gen", tuple(angles)))
            continue
        order = draw(st.permutations(range(n)))
        pairs = [(order[2 * i], order[2 * i + 1]) for i in range(n // 2)]
        if kind == "cz":
            layers.append(CZLayer(tuple(draw(st.lists(st.sampled_from(pairs), unique=True)))))
        else:
            pairs = pairs[:draw(st.integers(1, len(pairs)))]
            ids = tuple(tuple(range(num_params + BRICK_PARAMS * i,
                                    num_params + BRICK_PARAMS * (i + 1)))
                        for i in range(len(pairs)))
            num_params += BRICK_PARAMS * len(pairs)
            layers.append(BrickLayer(tuple(pairs), ids))
    theta = draw(st.lists(ANGLES, min_size=num_params, max_size=num_params))
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

    later = TruncationPolicy(weight_cutoff=data.draw(st.integers(0, n)),
                             max_terms=data.draw(st.integers(1, 64)))
    policies = [
        TruncationPolicy(sine_cutoff=data.draw(st.integers(0, 3))),
        TruncationPolicy(coeff_threshold=data.draw(st.floats(1e-3, 0.5))),
        TruncationPolicy(weight_cutoff=data.draw(st.integers(0, n))),
        TruncationPolicy(max_terms=data.draw(st.integers(1, 64))),
        TruncationPolicy(sine_cutoff=data.draw(st.integers(0, 3)),
                         dynamic_schedule={data.draw(st.integers(0, 40)): later}),
    ]
    for policy in policies:
        rep = propagate(circ, obs, policy)
        assert abs(rep.expectation - exact) <= rep.dropped_mass + 1e-9, policy
