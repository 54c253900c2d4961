"""The four study workloads: unit loops, work counts, gates and parity checks.

A *unit* is one trial exactly as the matching experiment function in
qgenbench defines it, composed from the package's public functions with the
same seed derivation, so a unit loop reproduces that function's rows
(checked by ``parity``).  Every public call a unit makes sits in a span named
``<module>.<function>``; argument plumbing (``derive_seed``, observables,
``default_shift_param``) stays outside the spans and shows up as the unit's
residual self time.

Per workload:

* ``unit(tracer, seed, cfg, trial)`` runs one trial and returns its outputs;
* ``counts(out)`` gives the unit's exact work counts (pure functions of the
  seed, so they repeat exactly);
* ``check(seed, cfg, trial, out)`` is the correctness gate, run outside the
  timed pass; it returns a list of failure messages;
* ``parity(seed)`` reruns the experiment function on a reduced config and
  returns the rows the composed unit loop fails to reproduce.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from qgenbench.circuits import (TAU2_CONSTANT, GenerativeSpec, backward_lightcone,
                                build_generative, build_trainable, concatenate,
                                default_depth, resolve_tau2, sample_er_graph)
from qgenbench.experiments import (ExperimentConfig, default_shift_param,
                                   gradient_variance_experiment, lightcone_spread_experiment,
                                   subvolume_experiment, theorem_bound)
from qgenbench.graphs import degeneracy, min_fill_width, treewidth_trend, union_graph
from qgenbench.metrics import distinguishability, weak_subvolume_gap
from qgenbench.pauli import PauliString, PauliSum, PauliTerm
from qgenbench.propagation import (TruncationPolicy, benchmark_propagation, propagate,
                                   sine_cutoff_default)
from qgenbench.seeding import derive_seed
from qgenbench.shadows import collect_shadows, estimate_pauli, estimate_rdm
from qgenbench.statevector import (expectation, parameter_shift_gradient,
                                   reduced_density_matrix, run)

from tracing import NULL_TRACER

HERE = os.path.dirname(os.path.abspath(__file__))


def _layers(n: int) -> int:
    return max(1, math.ceil(math.log(n)))


def _z(n: int, q: int) -> PauliSum:
    return PauliSum(n, [PauliTerm(1.0, PauliString.single(n, q, "Z"))])


def gate_kind(gate) -> str:
    if gate.kind == "CZ":
        return "cz"
    return "1q" if len(gate.qubits) == 1 else "2q"


def gate_bytes(n: int) -> int:
    """Computed bytes one gate moves: one read and one write of 2**n complex128."""
    return 2 * 16 * 2**n


def _gate_counts(circuit, runs: int) -> Dict[str, int]:
    """Gates built into `circuit`, and gates applied by `runs` statevector runs."""
    kinds = {"1q": 0, "2q": 0, "cz": 0}
    for gate in circuit.gates():
        kinds[gate_kind(gate)] += 1
    counts = {f"gates_{k}": v * runs for k, v in kinds.items()}
    counts["gates_built"] = sum(kinds.values())
    counts["bytes_computed"] = counts["gates_built"] * runs * gate_bytes(circuit.n)
    return counts


def _report_counts(report) -> Dict[str, int]:
    return {"term_steps": sum(report.terms_per_step), "peak_terms": report.peak_terms,
            "final_terms": report.final_terms, "dropped_mass": report.dropped_mass}


def _compare_rows(label: str, got: List[dict], want: List[dict]) -> List[str]:
    """Rows must match exactly, key by key, except the wall-time column."""
    if len(got) != len(want):
        return [f"{label}: {len(got)} rows composed, {len(want)} expected"]
    bad = []
    for i, (g, w) in enumerate(zip(got, want)):
        keys = set(w) - {"wall_time_s"}
        if set(g) != keys:
            bad.append(f"{label} row {i}: columns {sorted(g)} != {sorted(keys)}")
        elif any(g[k] != w[k] for k in keys):
            bad.append(f"{label} row {i}: {g} != expected {w}")
    return bad


# --- gradvar -------------------------------------------------------------
# Parameter-shift gradients on the full model (criterion 4's hot path).

GRADVAR_NS = (4, 6, 8, 10, 12)
GRADVAR_LAYERS = 2
FD_STEP = 1e-4  # central-difference truncation error ~ h^2 |f'''| / 6 << 1e-6
FD_TOL = 1e-6
FD_ROUNDS = 1   # units of the first round get the finite-difference check


def gradvar_unit(tracer, seed, cfg, trial):
    n, depth = cfg
    tau2 = resolve_tau2("theorem", n, GRADVAR_LAYERS)
    obs = _z(n, n // 2)
    gen_seed = derive_seed(seed, n, depth, trial, 0)
    train_seed = derive_seed(seed, n, depth, trial, 1)
    with tracer.span("circuits.build_generative"):
        gen = build_generative(GenerativeSpec(n, GRADVAR_LAYERS, math.log(n) / n, tau2, gen_seed))
    with tracer.span("circuits.build_trainable"):
        train = build_trainable(n, depth, train_seed, "uniform")
    with tracer.span("circuits.concatenate"):
        circuit = concatenate(gen, train)
    param = default_shift_param(circuit)
    with tracer.span("statevector.parameter_shift_gradient"):
        grad = parameter_shift_gradient(circuit, param, obs)
    return {"circuit": circuit, "runs": 2, "param": param, "obs": obs, "grad": grad}


def gradvar_counts(out):
    return _gate_counts(out["circuit"], out["runs"])


def gradvar_check(seed, cfg, trial, out):
    grad = out["grad"]
    if not (math.isfinite(grad) and abs(grad) <= 2.0 + 1e-9):
        return [f"gradient {grad} outside [-2, 2]"]
    if trial >= FD_ROUNDS:
        return []
    circuit, param, obs = out["circuit"], out["param"], out["obs"]
    vals = []
    for step in (FD_STEP, -FD_STEP):
        theta = circuit.theta.copy()
        theta[param] += step
        vals.append(expectation(run(circuit, theta), obs))
    fd = (vals[0] - vals[1]) / (2 * FD_STEP)
    if abs(fd - grad) > FD_TOL:
        return [f"parameter shift {grad!r} vs finite difference {fd!r}"]
    return []


def gradvar_parity(seed):
    config = ExperimentConfig(experiment="gradvar", ns=(4, 6), layers=GRADVAR_LAYERS,
                              trials=3, seed=seed)
    arms = {"log_depth": default_depth, "linear_depth": lambda n: n}
    triples = {arm: [] for arm in arms}
    for arm, depth_of in arms.items():
        for n in config.ns:
            depth = depth_of(n)
            grads = np.array([gradvar_unit(NULL_TRACER, seed, (n, depth), t)["grad"]
                              for t in range(config.trials)])
            triples[arm].append((n, depth, float(grads.var(ddof=1))))
    rows = []
    for arm, arm_triples in triples.items():
        ns = np.array([t[0] for t in arm_triples], dtype=float)
        slope = float(np.polyfit(ns, np.log2([max(t[2], 1e-300) for t in arm_triples]), 1)[0])
        for n, depth, var in arm_triples:
            rows.append({"n": n, "depth": depth, "trials": config.trials, "variance": var,
                         "se": var * math.sqrt(2.0 / max(config.trials - 1, 1)),
                         "slope_fit": slope, "arm": arm})
    rows.sort(key=lambda r: (r["n"], r["arm"]))
    return _compare_rows("gradient_variance_experiment", rows,
                         gradient_variance_experiment(config))


# --- pauliprop -----------------------------------------------------------
# One truncated propagation of Z_0 per unit, as in benchmark_propagation.
# Without a term cap the per-circuit cost at n >= 20 is so heavy-tailed that
# the mean term count over a run's ~80 n=24 circuits differs by a quarter
# between seeds; the cap (pauliprop-bench --max-terms) bounds it while the
# merges still run on up to twice the cap.

PAULIPROP_NS = (16, 20, 24)
PAULIPROP_MAX_TERMS = 2**14
SV_CHECK_N = 16      # largest n checked against the statevector
SV_CHECK_ROUNDS = 8  # statevector checks cover the n <= 16 units of these rounds
# At the workload's sizes dropped_mass is well above 1, so the bound
# |E - exact| <= dropped_mass cannot fail.  Each statevector-checked unit is
# therefore also paired with an exact-mode propagation of the n=8 circuit of
# the same seed stream (at most 4**8 terms), which must equal the statevector.
EXACT_CHECK_N = 8
GOLDEN_PATH = os.path.join(HERE, "golden_pauliprop.json")


def _pauliprop_policy(n: int) -> TruncationPolicy:
    return TruncationPolicy(sine_cutoff=sine_cutoff_default(n), max_terms=PAULIPROP_MAX_TERMS)


def pauliprop_unit(tracer, seed, cfg, trial):
    (n,) = cfg
    obs = _z(n, 0)
    spec_seed = derive_seed(seed, n, trial, 0)
    with tracer.span("circuits.build_generative"):
        circuit = build_generative(GenerativeSpec(n, _layers(n), math.log(n) / n,
                                                  TAU2_CONSTANT, spec_seed))
    with tracer.span("propagation.propagate"):
        report = propagate(circuit, obs, _pauliprop_policy(n))
    return {"circuit": circuit, "obs": obs, "report": report}


def pauliprop_counts(out):
    counts = _report_counts(out["report"])
    counts["gates_built"] = sum(1 for _ in out["circuit"].gates())
    return counts


@functools.lru_cache(maxsize=1)
def _golden() -> Tuple[int, Dict[Tuple[int, int], dict]]:
    """The recorded seed, and the units recorded for it by (n, trial)."""
    with open(GOLDEN_PATH) as fh:
        data = json.load(fh)
    return data["seed"], {(u["n"], u["trial"]): u for u in data["units"]}


def pauliprop_check(seed, cfg, trial, out):
    (n,) = cfg
    report = out["report"]
    bad = []
    if not (math.isfinite(report.expectation) and report.dropped_mass >= 0.0
            and abs(report.expectation) <= 1.0 + report.dropped_mass + 1e-9):
        bad.append(f"expectation {report.expectation} / dropped_mass {report.dropped_mass}")
    if n <= SV_CHECK_N and trial < SV_CHECK_ROUNDS:
        exact = expectation(run(out["circuit"]), out["obs"])
        if abs(report.expectation - exact) > report.dropped_mass + 1e-9:
            bad.append(f"|{report.expectation} - statevector {exact}| exceeds "
                       f"dropped_mass {report.dropped_mass}")
        small = pauliprop_unit(NULL_TRACER, seed, (EXACT_CHECK_N,), trial)["circuit"]
        obs = _z(EXACT_CHECK_N, 0)
        got = propagate(small, obs, TruncationPolicy.exact_mode()).expectation
        want = expectation(run(small), obs)
        if abs(got - want) > 1e-9:
            bad.append(f"n={EXACT_CHECK_N} exact propagation {got!r} vs statevector {want!r}")
    golden_seed, golden = _golden()
    if seed == golden_seed:
        want = golden.get((n, trial))
        if want is not None:
            for key in ("expectation", "dropped_mass"):
                if abs(getattr(report, key) - want[key]) > 1e-9:
                    bad.append(f"{key} {getattr(report, key)!r} != recorded {want[key]!r}")
    return bad


def pauliprop_parity(seed):
    ns, trials, exact_max_n = (8, 16), 2, 12
    rows, want = [], []
    for n in ns:
        want += benchmark_propagation([n], _pauliprop_policy(n), trials, seed,
                                      exact_check_max_n=exact_max_n)
        for trial in range(trials):
            out = pauliprop_unit(NULL_TRACER, seed, (n,), trial)
            report = out["report"]
            err = None
            if n <= exact_max_n:
                err = abs(report.expectation - expectation(run(out["circuit"]), out["obs"]))
            rows.append({"n": n, "trial": trial,
                         "policy_id": f"sine{sine_cutoff_default(n)}-max{PAULIPROP_MAX_TERMS}",
                         "expectation": report.expectation, "error_vs_exact": err,
                         "peak_terms": report.peak_terms, "final_terms": report.final_terms,
                         "dropped_mass": report.dropped_mass})
    return _compare_rows("benchmark_propagation", rows, want)


# --- shadows -------------------------------------------------------------
# The measured subvolume check: exact state, exact-mode propagation cross-check,
# exact RDM metrics, then shadow collection and shadow estimates.

SHADOW_NS = (4, 6, 8, 10)
SHADOW_LAYERS = 2
SHADOW_SHOTS = 2000
SHADOW_SUBSYSTEM = (0, 1)
ENUMERATE_LIMIT = 20000  # collect_shadows enumerates basis combos while 3**n <= this
# A Z_0 shadow estimate is a median of 10 group means of 200 values in [-3, 3];
# by Hoeffding, one group mean is off by more than 1 with probability < 3e-5,
# so the median is off by more than 1 for no seed in practice.
SHADOW_TOL = 1.0


def shadows_unit(tracer, seed, cfg, trial):
    (n,) = cfg
    tau2 = resolve_tau2("theorem", n, SHADOW_LAYERS)
    z0 = PauliString.single(n, 0, "Z")
    obs = PauliSum(n, [PauliTerm(1.0, z0)])
    spec_seed = derive_seed(seed, n, trial)
    shot_seed = derive_seed(seed, n, trial, 1)
    with tracer.span("circuits.build_generative"):
        circuit = build_generative(GenerativeSpec(n, SHADOW_LAYERS, math.log(n) / n, tau2,
                                                  spec_seed))
    with tracer.span("statevector.run"):
        state = run(circuit)
    with tracer.span("statevector.expectation"):
        exact = expectation(state, obs)
    with tracer.span("propagation.propagate"):
        report = propagate(circuit, obs, TruncationPolicy.exact_mode())
    with tracer.span("statevector.reduced_density_matrix"):
        rho = reduced_density_matrix(state, SHADOW_SUBSYSTEM)
    with tracer.span("metrics.distinguishability"):
        dist = distinguishability(rho)
    with tracer.span("metrics.weak_subvolume_gap"):
        gap = weak_subvolume_gap(rho)
    with tracer.span("shadows.collect_shadows"):
        shadows = collect_shadows(state, SHADOW_SHOTS, shot_seed)
    with tracer.span("shadows.estimate_pauli"):
        z_est = estimate_pauli(shadows, z0)
    with tracer.span("shadows.estimate_rdm"):
        rho_shadow = estimate_rdm(shadows, SHADOW_SUBSYSTEM)
    with tracer.span("metrics.distinguishability"):
        dist_shadow = distinguishability(rho_shadow)
    with tracer.span("metrics.weak_subvolume_gap"):
        gap_shadow = weak_subvolume_gap(rho_shadow)
    return {"circuit": circuit, "runs": 1, "report": report, "exact": exact, "dist": dist,
            "gap": gap, "shadows": shadows, "z_est": z_est, "rho_shadow": rho_shadow,
            "dist_shadow": dist_shadow, "gap_shadow": gap_shadow}


def shadows_counts(out):
    counts = _gate_counts(out["circuit"], out["runs"])
    counts.update(_report_counts(out["report"]))
    shadows = out["shadows"]
    counts["shots"] = len(shadows)
    if 3 ** shadows.n <= ENUMERATE_LIMIT:
        counts["enumerated_combos"] = len(np.unique(shadows.bases, axis=0))
        counts["per_shot_shots"] = 0
    else:
        counts["enumerated_combos"] = 0
        counts["per_shot_shots"] = len(shadows)
    return counts


def shadows_check(seed, cfg, trial, out):
    bad = []
    if abs(out["report"].expectation - out["exact"]) > 1e-9:
        bad.append(f"exact propagation {out['report'].expectation!r} vs statevector "
                   f"{out['exact']!r}")
    rho = out["rho_shadow"]
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10 or abs(np.trace(rho).real - 1.0) > 1e-10:
        bad.append("shadow RDM is not Hermitian with unit trace")
    values = (out["dist"], out["gap"], out["dist_shadow"], out["gap_shadow"], out["z_est"])
    if not all(math.isfinite(v) for v in values):
        bad.append(f"non-finite metric in {values}")
    if abs(out["z_est"] - out["exact"]) > SHADOW_TOL:
        bad.append(f"shadow <Z_0> {out['z_est']} vs exact {out['exact']}")
    return bad


def shadows_parity(seed):
    config = ExperimentConfig(experiment="subvolume", ns=(4, 6), layers=SHADOW_LAYERS,
                              tau2_preset="theorem", subsystem=SHADOW_SUBSYSTEM,
                              trials=3, seed=seed)
    rows = []
    for n in config.ns:
        tr_sq = np.empty(config.trials)
        i_sq = np.empty(config.trials)
        gaps = np.empty(config.trials)
        for trial in range(config.trials):
            out = shadows_unit(NULL_TRACER, seed, (n,), trial)
            tr_sq[trial] = out["exact"] ** 2
            i_sq[trial] = out["dist"] ** 2
            gaps[trial] = out["gap"]
        tau2 = resolve_tau2("theorem", n, SHADOW_LAYERS)
        bound = theorem_bound(1, SHADOW_LAYERS, tau2)
        mean_tr = float(tr_sq.mean())
        se_tr = float(tr_sq.std(ddof=1) / math.sqrt(config.trials))
        rows.append({"n": n, "L": SHADOW_LAYERS, "tau2": tau2, "S": 1, "trials": config.trials,
                     "mean_tr_sq": mean_tr, "se_tr_sq": se_tr,
                     "mean_I2": float(i_sq.mean()),
                     "se_I2": float(i_sq.std(ddof=1) / math.sqrt(config.trials)),
                     "bound": bound, "pass": int(mean_tr + 2 * se_tr >= bound),
                     "mean_gap": float(gaps.mean())})
    return _compare_rows("subvolume_experiment", rows, subvolume_experiment(config))


# --- treewidth -----------------------------------------------------------
# One treewidth_trend trial plus the backward light cone of qubit 0 through a
# generative circuit of the same n (one lightcone_spread_experiment trial).

TREEWIDTH_NS = (50, 100, 200)


def treewidth_unit(tracer, seed, cfg, trial):
    (n,) = cfg
    L, p = _layers(n), math.log(n) / n
    samples = []
    for l in range(L):
        graph_seed = derive_seed(seed, n, trial, l)
        with tracer.span("circuits.sample_er_graph"):
            samples.append(sample_er_graph(n, p, graph_seed))
    with tracer.span("graphs.union_graph"):
        union = union_graph(samples)
    brackets = []
    for graph in (samples[0], union):
        with tracer.span("graphs.min_fill_width"):
            width, order = min_fill_width(graph)
        with tracer.span("graphs.degeneracy"):
            lower = degeneracy(graph)
        brackets.append((graph, width, order, lower))
    spec_seed = derive_seed(seed, n, trial)
    with tracer.span("circuits.build_generative"):
        circuit = build_generative(GenerativeSpec(n, L, p, resolve_tau2("theorem", n, L),
                                                  spec_seed))
    with tracer.span("circuits.backward_lightcone"):
        _, cone = backward_lightcone(circuit, {0})
    return {"L": L, "brackets": brackets, "cone": len(cone), "circuit": circuit}


def treewidth_counts(out):
    return {"edges": sum(len(g.edges) for g, _, _, _ in out["brackets"]),
            "width_sum": sum(w for _, w, _, _ in out["brackets"]),
            "gates_built": sum(1 for _ in out["circuit"].gates())}


def _replay_width(graph, order) -> int:
    """Width of eliminating `graph` in `order`: the largest live neighbourhood."""
    adj = [0] * graph.n
    for a, b in graph.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    width = 0
    for v in order:
        nbrs = adj[v]
        width = max(width, nbrs.bit_count())
        rest = nbrs
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            adj[u] = (adj[u] | nbrs) & ~low & ~(1 << v)
            rest ^= low
        adj[v] = 0
    return width


def treewidth_check(seed, cfg, trial, out):
    bad = []
    for graph, width, order, lower in out["brackets"]:
        if lower > width:
            bad.append(f"degeneracy {lower} exceeds min-fill width {width}")
        if sorted(order.order) != list(range(graph.n)) or order.width != width:
            bad.append("elimination order is not a permutation of the vertices")
        elif _replay_width(graph, order.order) != width:
            bad.append(f"replayed order gives width {_replay_width(graph, order.order)}, "
                       f"reported {width}")
    if not 1 <= out["cone"] <= cfg[0]:
        bad.append(f"light cone of size {out['cone']}")
    return bad


def treewidth_parity(seed):
    ns, trials = (20, 30), 2
    trend, cones = [], {}
    for n in ns:
        for trial in range(trials):
            out = treewidth_unit(NULL_TRACER, seed, (n,), trial)
            for label, (graph, width, _, lower) in zip(("single", "union"), out["brackets"]):
                trend.append({"n": n, "trial": trial,
                              "layers": 1 if label == "single" else out["L"],
                              "edges": len(graph.edges), "degeneracy_lb": lower,
                              "minfill_ub": width})
            cones.setdefault(n, []).append(out["cone"] / n)
    spread = [{"n": n, "L": _layers(n), "p": math.log(n) / n, "trials": trials,
               "mean_frac": float(np.array(fracs).mean()), "min_frac": float(np.array(fracs).min())}
              for n, fracs in cones.items()]
    config = ExperimentConfig(experiment="lightcone", ns=ns, trials=trials, seed=seed)
    return (_compare_rows("treewidth_trend", trend, treewidth_trend(ns, trials, seed))
            + _compare_rows("lightcone_spread_experiment", spread,
                            lightcone_spread_experiment(config)))


# --- registry ------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    heavy: str                  # the layer this workload is built to load
    configs: Tuple[tuple, ...]  # unit configs of one round, in run order
    unit: Callable
    counts: Callable
    check: Callable
    parity: Callable


WORKLOADS = {
    "gradvar": Workload("gradvar", "statevector",
                        tuple((n, d) for n in GRADVAR_NS for d in (default_depth(n), n)),
                        gradvar_unit, gradvar_counts, gradvar_check, gradvar_parity),
    "pauliprop": Workload("pauliprop", "propagation", tuple((n,) for n in PAULIPROP_NS),
                          pauliprop_unit, pauliprop_counts, pauliprop_check, pauliprop_parity),
    "shadows": Workload("shadows", "shadows", tuple((n,) for n in SHADOW_NS),
                        shadows_unit, shadows_counts, shadows_check, shadows_parity),
    "treewidth": Workload("treewidth", "graphs", tuple((n,) for n in TREEWIDTH_NS),
                          treewidth_unit, treewidth_counts, treewidth_check, treewidth_parity),
}
