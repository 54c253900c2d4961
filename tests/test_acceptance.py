"""Acceptance suite: one test (one pass/fail line under ``pytest -v``) per
release criterion.  Tolerances, seeds, and trial counts are frozen here; the
gradient-variance thresholds in criterion 4 were frozen after a calibration
run at the exact settings below (seed 11, 500 trials, layers 2), which gave
slope_log = -0.248 and slope_linear = -0.662.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from qgenbench.circuits import (GenerativeSpec, LayerGraph, build_generative,
                                build_trainable, concatenate, default_depth,
                                sample_er_graph)
from qgenbench.cli import main as cli_main
from qgenbench.experiments import (ExperimentConfig, gradient_variance_experiment,
                                   lightcone_spread_experiment, read_csv,
                                   subvolume_experiment, theorem_bound)
from qgenbench.graphs import degeneracy, min_fill_width
from qgenbench.metrics import (distinguishability, hs_distance,
                               von_neumann_entropy, weak_subvolume_gap)
from qgenbench.pauli import PauliString, PauliSum, PauliTerm
from qgenbench.propagation import (TruncationPolicy, benchmark_propagation,
                                   propagate)
from qgenbench.seeding import derive_seed
from qgenbench.shadows import collect_shadows, estimate_pauli, single_shot_values
from qgenbench import statevector as sv


def _full_model(n, seed, layers=2):
    spec = GenerativeSpec(n, layers, math.log(n) / n, 0.2499, derive_seed(seed, 0))
    train = build_trainable(n, default_depth(n), derive_seed(seed, 1))
    return concatenate(build_generative(spec), train)


def _z0(n):
    return PauliSum(n, [PauliTerm(1.0, PauliString.single(n, 0, "Z"))])


def test_criterion_1_oracle_equivalence():
    """Exact propagation vs statevector: <1e-9 on 52 circuits, <2 min."""
    start = time.time()
    checked = 0
    for n in (4, 6, 8, 10):
        for trial in range(13):
            circ = _full_model(n, derive_seed(99, n, trial))
            rep = propagate(circ, _z0(n), TruncationPolicy.exact_mode())
            exact = sv.expectation(sv.run(circ), _z0(n))
            assert abs(rep.expectation - exact) < 1e-9
            checked += 1
    assert checked >= 50
    assert time.time() - start < 120.0


def test_criterion_2_subvolume_bound():
    """Monte-Carlo Tr(sigma rho)^2 clears the closed-form bound at 2 SE."""
    config = ExperimentConfig(experiment="subvolume", ns=(4, 6, 8), layers=2,
                              tau2_preset="theorem", trials=2000, seed=7)
    start = time.time()
    rows = subvolume_experiment(config)
    assert time.time() - start < 600.0
    for row in rows:
        assert row["trials"] >= 2000
        assert row["mean_tr_sq"] + 2 * row["se_tr_sq"] >= row["bound"]
        assert row["pass"] == 1
        assert row["mean_I2"] >= row["mean_tr_sq"] - 1e-12


def test_criterion_3_bound_unit_values():
    assert theorem_bound(1, 2, 0.1) == pytest.approx(0.05184, abs=1e-12)
    assert theorem_bound(2, 0, 0.05) == pytest.approx(0.016384, abs=1e-12)


def test_criterion_4_gradient_machinery():
    """Parameter shift is exact; log-depth variance decays slower."""
    obs = _z0(6)
    h = 1e-4
    for trial in range(10):
        circ = _full_model(6, derive_seed(44, trial))
        for param in range(circ.num_params):
            ps = sv.parameter_shift_gradient(circ, param, obs)
            tp, tm = circ.theta.copy(), circ.theta.copy()
            tp[param] += h
            tm[param] -= h
            fd = (sv.expectation(sv.run(circ, tp), obs)
                  - sv.expectation(sv.run(circ, tm), obs)) / (2 * h)
            assert abs(ps - fd) < 1e-6

    config = ExperimentConfig(experiment="gradvar", ns=(4, 6, 8, 10, 12),
                              layers=2, trials=500, seed=11)
    rows = gradient_variance_experiment(config)
    slopes = {r["arm"]: r["slope_fit"] for r in rows}
    assert slopes["log_depth"] > slopes["linear_depth"]
    # frozen after calibration (see module docstring)
    assert slopes["log_depth"] - slopes["linear_depth"] >= 0.1
    assert slopes["log_depth"] > -0.45


def test_criterion_5_truncation_scaling_shape():
    """Peak term counts grow superlinearly under the default sine cutoff."""
    rows = benchmark_propagation([8, 10, 12, 16, 20], None, 150, 42,
                                 exact_check_max_n=10)
    peaks = {n: np.mean([r["peak_terms"] for r in rows if r["n"] == n])
             for n in (8, 10, 12, 16, 20)}
    assert peaks[8] < peaks[12] < peaks[16] < peaks[20]
    # growth ratio over a doubling of n is itself increasing
    assert peaks[16] / peaks[8] < peaks[20] / peaks[10]
    for row in rows:
        if row["error_vs_exact"] is not None:
            assert row["error_vs_exact"] <= row["dropped_mass"] + 1e-9


def test_criterion_6_entanglement_metrics():
    assert distinguishability(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-10)
    assert distinguishability(np.diag([1.0, 0, 0, 0])) == pytest.approx(1.5, abs=1e-10)
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-10)
    assert von_neumann_entropy(np.eye(8) / 8) == pytest.approx(3.0, abs=1e-10)
    assert weak_subvolume_gap(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-10)
    assert hs_distance(np.array([[1, 0], [0, -1]], complex)) == \
        pytest.approx(math.sqrt(2), abs=1e-10)

    rng = np.random.default_rng(66)
    for _ in range(1000):
        m = int(rng.integers(1, 7))  # d up to 64
        d = 2**m
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        delta = rho - np.eye(d) / d
        evals = np.linalg.eigvalsh(delta)
        l1, l2 = float(np.abs(evals).sum()), float(np.linalg.norm(evals))
        # norm chain
        assert l2 <= l1 + 1e-12 and l1 <= math.sqrt(d) * l2 + 1e-12
        # duality against a random Pauli probe
        sigma = PauliString(m, int(rng.integers(2**m)), int(rng.integers(2**m)))
        if not sigma.is_identity():
            lhs = abs(np.trace(sv.dense_pauli_matrix(sigma) @ rho).real)
            assert lhs <= distinguishability(rho) + 1e-10
        # observable bound
        o = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        o = (o + o.conj().T) / 2
        lhs = abs(np.trace(o @ rho).real - np.trace(o).real / d)
        assert lhs <= distinguishability(rho) * np.max(np.abs(np.linalg.eigvalsh(o))) + 1e-10
        # entropy-Taylor near the maximally mixed state
        small = np.eye(d) / d + 0.005 * delta / max(l2, 1e-12)
        gap = weak_subvolume_gap(small)
        approx = d / (2 * math.log(2)) * np.linalg.norm(small - np.eye(d) / d) ** 2
        assert abs(gap - approx) <= 0.1 * gap + 1e-12


def test_criterion_7_shadow_accuracy():
    """estimate_pauli within 0.1 of truth in >=95/100 reps at N=40000."""
    circ = build_generative(GenerativeSpec(4, 2, 0.5, 0.2499, 77))
    state = sv.run(circ)
    targets = {
        "ZIII": PauliString.from_label("ZIII"),
        "ZZII": PauliString.from_label("ZZII"),
    }
    truths = {k: sv.expectation(state, PauliSum(4, [PauliTerm(1.0, p)]))
              for k, p in targets.items()}
    hits = {k: 0 for k in targets}
    for rep in range(100):
        shadows = collect_shadows(state, 40000, derive_seed(78, rep))
        for k, p in targets.items():
            if abs(estimate_pauli(shadows, p, groups=10) - truths[k]) <= 0.1:
                hits[k] += 1
    for k in targets:
        assert hits[k] >= 95

    shadows = collect_shadows(state, 30000, derive_seed(78, 1000))
    for label, k in (("ZIII", 1), ("ZZII", 2), ("ZZZI", 3)):
        vals = single_shot_values(shadows, PauliString.from_label(label))
        assert float(np.var(vals)) <= 1.5 * 3**k


def test_criterion_8_graph_analysis():
    path = LayerGraph(10, tuple((i, i + 1) for i in range(9)))
    star = LayerGraph(6, tuple((0, b) for b in range(1, 6)))
    cyc = LayerGraph(9, tuple((i, i + 1) for i in range(8)) + ((0, 8),))
    k6 = LayerGraph(6, tuple((a, b) for a in range(6) for b in range(a + 1, 6)))
    for g, tw in ((path, 1), (star, 1), (cyc, 2), (k6, 5)):
        assert degeneracy(g) == min_fill_width(g)[0] == tw

    means = {}
    for n in (50, 100, 200):
        widths = []
        for trial in range(20):
            g = sample_er_graph(n, math.log(n) / n, derive_seed(88, n, trial))
            width, _ = min_fill_width(g)
            assert degeneracy(g) <= width
            widths.append(width)
        means[n] = float(np.mean(widths))
    assert means[50] < means[100] < means[200]

    config = ExperimentConfig(experiment="lightcone", ns=(50, 100), layers=5,
                              trials=50, seed=89)
    rows = {r["n"]: r for r in lightcone_spread_experiment(config)}
    assert rows[100]["mean_frac"] >= rows[50]["mean_frac"]


def _masked_bytes(path):
    """File bytes; wall-time columns of CSVs are zeroed before comparison."""
    if path.endswith(".csv"):
        rows = read_csv(path)
        if rows and "wall_time_s" in rows[0]:
            for row in rows:
                row["wall_time_s"] = ""
            return repr(rows).encode()
    with open(path, "rb") as fh:
        return fh.read()


def test_criterion_9_cli_determinism(tmp_path):
    """Every command rerun with the same seed is byte-identical."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "subvolume", "ns": [4],
                                  "trials": 20, "seed": 3}))

    def one_pass(tag):
        d = tmp_path / tag
        d.mkdir()
        circ = str(d / "c.json")
        t = ["--quiet"]
        assert cli_main(["gen", "--n", "4", "--layers", "2", "--seed", "5",
                         "--trainable-depth", "1", "--out", circ] + t) == 0
        assert cli_main(["features", "--circuit", circ, "--samples", "4",
                         "--seed", "1", "--out", str(d / "f.csv")] + t) == 0
        assert cli_main(["experiment", "--config", str(config),
                         "--out-dir", str(d / "exp"), "--quiet"]) == 0
        assert cli_main(["pauliprop-bench", "--ns", "4,6", "--trials", "2",
                         "--layers", "1", "--seed", "2",
                         "--out", str(d / "bench.csv")] + t) == 0
        assert cli_main(["graph-stats", "--ns", "20", "--trials", "3",
                         "--seed", "4", "--out", str(d / "g.csv")] + t) == 0
        assert cli_main(["shadows", "--circuit", circ, "--shots", "200",
                         "--seed", "6", "--out", str(d / "s.csv")] + t) == 0
        assert cli_main(["plot", "--csv", str(d / "g.csv"), "--x", "n",
                         "--y", "minfill_ub", "--out", str(d / "p.svg")] + t) == 0
        files = ["c.json", "c.json.manifest.json", "f.csv",
                 os.path.join("exp", "subvolume.csv"),
                 os.path.join("exp", "subvolume.manifest.json"),
                 "bench.csv", "g.csv", "s.csv", "p.svg"]
        return {f: _masked_bytes(str(d / f)) for f in files}

    first = one_pass("run1")
    second = one_pass("run2")
    for name in first:
        assert first[name] == second[name], f"{name} differs between reruns"
