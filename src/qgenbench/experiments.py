"""Reproducible experiment drivers and their CSV/manifest plumbing.

Each driver is a pure function of (config, master seed): per-trial generators
are derived with the documented SeedSequence mixing in :mod:`.seeding`, and
rows are emitted in (n, trial) order regardless of execution order.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .circuits import (BRICK_PARAMS, TAU2_CONSTANT, Circuit, BrickLayer, GenerativeSpec,
                       backward_lightcone, brick_pairs, build_generative, build_trainable,
                       concatenate, default_depth, default_layers, default_p, resolve_tau2)
from .metrics import distinguishability, weak_subvolume_gap
from .pauli import PauliString, PauliSum, PauliTerm
from .propagation import MAX_PROP_QUBITS, benchmark_propagation, study_policy
from .graphs import MAX_GRAPH_VERTICES, treewidth_trend
from .seeding import derive_seed, rng_for
from .statevector import (MAX_SV_QUBITS, expectation, parameter_shift_gradient,
                          reduced_density_matrix, run)


# The optional config fields each experiment reads, besides experiment, ns,
# trials and seed, which all of them read.  Any other field must keep its default.
READ_FIELDS = {
    "subvolume": ("layers", "p", "tau2", "tau2_preset", "subsystem", "sigma"),
    "gradvar": ("layers", "p", "tau2", "tau2_preset", "trainable_depth", "shift_param"),
    "lightcone": ("layers", "p", "subsystem"),
    "pauliprop": ("layers", "p", "tau2", "trainable_depth", "sine_cutoff"),
    "treewidth": ("layers", "p"),
}
EXPERIMENT_IDS = tuple(READ_FIELDS)
_TAU2_EXPERIMENTS = tuple(e for e, read in READ_FIELDS.items() if "tau2" in read)
_OPTIONAL_FIELDS = tuple(dict.fromkeys(f for read in READ_FIELDS.values() for f in read))


class ConfigError(ValueError):
    """Rejected input (exit code 2); `code` tags config failures, e.g. "bad-config"."""

    def __init__(self, message: str, code: Optional[str] = None):
        super().__init__(message)
        self.code = code


@dataclass
class ExperimentConfig:
    experiment: str
    ns: Tuple[int, ...]
    layers: Optional[int] = None       # default: ceil(ln n) per n (2 for subvolume)
    p: Optional[float] = None          # default: ln(n)/n per n
    tau2: Optional[float] = None       # explicit value, in place of a non-default preset
    tau2_preset: str = "theorem"
    subsystem: Tuple[int, ...] = (0,)
    sigma: Tuple[Tuple[int, str], ...] = ((0, "Z"),)
    trainable_depth: Optional[int] = None
    trials: int = 100
    seed: int = 0
    shift_param: Optional[int] = None
    sine_cutoff: Optional[int] = None  # pauliprop: None = ceil(log2 n) per n

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ConfigError(f"unknown experiment id {self.experiment!r}", "unknown-experiment")
        if not isinstance(self.ns, (list, tuple)) or not self.ns:
            raise ConfigError(f"ns must be a non-empty list, got {self.ns!r}", "bad-config")
        self.ns = tuple(check_size("ns", n, 1) for n in self.ns)
        try:
            self.subsystem = tuple(check_size("subsystem", q, 0) for q in self.subsystem)
            self.sigma = tuple((check_size("sigma", q, 0), l) for q, l in self.sigma)
        except (TypeError, ValueError) as exc:  # ValueError: a pair of the wrong length
            raise ConfigError(f"subsystem must list qubits and sigma [qubit, letter] pairs: "
                              f"{exc}", "bad-config") from exc
        if not self.subsystem:
            raise ConfigError("subsystem must name one or more qubits", "bad-config")
        if (not self.sigma or not all(l in ("X", "Y", "Z") for _, l in self.sigma)
                or len({q for q, _ in self.sigma}) < len(self.sigma)):
            raise ConfigError(f"sigma must pair one or more distinct qubits with X, Y or Z: "
                              f"{self.sigma}", "bad-config")
        unread = [f for f in _OPTIONAL_FIELDS if f not in READ_FIELDS[self.experiment]
                  and getattr(self, f) != self.__dataclass_fields__[f].default]
        if unread:
            raise ConfigError(f"{self.experiment} does not read {', '.join(unread)}; "
                              f"leave it out", "bad-config")
        # subvolume and gradvar report ddof=1 spreads, which need two trials
        self.trials = check_size("trials", self.trials,
                                 2 if self.experiment in ("subvolume", "gradvar") else 1)
        self.seed = check_size("seed", self.seed, 0)
        for name, least in (("layers", 1 if self.experiment == "treewidth" else 0),
                            ("trainable_depth", 0), ("shift_param", 0), ("sine_cutoff", 0)):
            if getattr(self, name) is not None:
                setattr(self, name, check_size(name, getattr(self, name), least))
        engine = {"subvolume": "statevector", "gradvar": "statevector",
                  "pauliprop": "propagation", "treewidth": "graphs"}.get(self.experiment)
        if engine:
            check_qubits(max(self.ns), engine)
        if self.experiment == "gradvar":
            shifted = self.shift_param or 0  # None: a middle parameter, so one must exist
            for n in self.ns:
                for depth in self.gradvar_depths(n).values():
                    count = BRICK_PARAMS * sum(len(brick_pairs(n, l)) for l in range(depth))
                    if depth and count <= shifted:
                        raise ConfigError(f"gradvar needs trainable parameter {shifted}; "
                                          f"n={n} at depth {depth} has {count}", "bad-config")
        check_p("p", self.p)
        if self.tau2 is not None:
            check_tau2("tau2", self.tau2)
            if self.tau2_preset != self.__dataclass_fields__["tau2_preset"].default:
                raise ConfigError(f"tau2 {self.tau2} and tau2_preset {self.tau2_preset!r} "
                                  f"both set; give one", "bad-config")
        referenced = set(self.subsystem) | {q for q, _ in self.sigma}
        if referenced and max(referenced) >= min(self.ns):
            raise ConfigError("referenced qubits must fit the smallest system size", "bad-config")
        if self.experiment in _TAU2_EXPERIMENTS:
            try:
                tau2s = {n: self.resolved_tau2(n) for n in self.ns}
            except ValueError as exc:  # unknown preset
                raise ConfigError(str(exc), "bad-config") from exc
            for n, tau2 in tau2s.items():
                check_tau2(f"tau2_preset {self.tau2_preset!r} at n={n}", tau2)

    @classmethod
    def from_json_obj(cls, obj) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"a config is a JSON object, got {type(obj).__name__}",
                              "bad-config")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(obj) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}", "bad-config")
        missing = {"experiment", "ns"} - set(obj)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}", "bad-config")
        return cls(**obj)

    def resolved_layers(self, n: int) -> int:
        if self.layers is not None:
            return self.layers
        if self.experiment == "subvolume":
            return 2
        return default_layers(n)

    def resolved_p(self, n: int) -> float:
        return self.p if self.p is not None else default_p(n)

    def gradvar_depths(self, n: int) -> Dict[str, int]:
        """Trainable depth of each gradvar arm at n."""
        return {"log_depth": (self.trainable_depth if self.trainable_depth is not None
                              else default_depth(n)),
                "linear_depth": n}

    def resolved_tau2(self, n: int) -> float:
        if self.tau2 is not None:
            return self.tau2
        if self.experiment == "pauliprop":  # reads no preset
            return TAU2_CONSTANT
        return resolve_tau2(self.tau2_preset, n, self.resolved_layers(n),
                            max_weight=len(self.sigma))


# The input checks of configs and CLI flags alike; `name` is the field or flag.

def check_size(name: str, value, least: int) -> int:
    """An integer of at least `least`; text, floats and bools are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}", "bad-config")
    return int(value)


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_p(name: str, value) -> None:
    """An edge probability in [0, 1]; None stands for the default ln(n)/n."""
    if value is not None and not (_real(value) and 0.0 <= value <= 1.0):  # also rejects NaN
        raise ConfigError(f"{name} must lie in [0, 1], got {value!r}", "bad-config")


def check_tau2(name: str, value) -> None:
    """An angle variance in (0, 1/4), the range of the small-angle bounds."""
    if not (_real(value) and 0.0 < value < 0.25):  # also rejects NaN and inf
        raise ConfigError(f"{name} must lie in (0, 1/4), got {value!r}", "bad-config")


def check_qubits(n: int, engine: str) -> None:
    """At most as many qubits as `engine` ("statevector", "propagation" or
    "graphs") handles."""
    cap = {"statevector": MAX_SV_QUBITS, "propagation": MAX_PROP_QUBITS,
           "graphs": MAX_GRAPH_VERTICES}[engine]
    if n > cap:
        raise ConfigError(f"the {engine} engine caps at {cap} qubits, got n={n}", "bad-config")


def theorem_bound(max_weight: int, layers: int, tau2: float) -> float:
    """Closed-form lower bound (4 tau^2)^S (1 - 4 tau^2)^(S (L+2)).

    `max_weight` is the weight S of the probe Pauli; valid for 0 < tau2 < 1/4.
    """
    if not 0.0 < tau2 < 0.25:
        raise ValueError("tau2 must lie in (0, 1/4)")
    return (4.0 * tau2) ** max_weight * (1.0 - 4.0 * tau2) ** (max_weight * (layers + 2))


def _sigma_string(config: ExperimentConfig, n: int) -> PauliString:
    x = z = 0
    for q, letter in config.sigma:
        s = PauliString.single(n, q, letter)
        x |= s.x
        z |= s.z
    return PauliString(n, x, z)


def subvolume_experiment(config: ExperimentConfig) -> List[dict]:
    """Monte-Carlo check of the distinguishability lower bound.

    Per n: E[Tr(sigma rho)^2] and E[I_Lambda^2] over generative seeds with
    standard errors, the closed-form bound, and a one-sided pass flag at two
    standard errors.
    """
    rows = []
    for n in config.ns:
        L = config.resolved_layers(n)
        tau2 = config.resolved_tau2(n)
        sigma = _sigma_string(config, n)
        obs = PauliSum(n, [PauliTerm(1.0, sigma)])
        weight = sigma.weight()
        tr_sq = np.empty(config.trials)
        i_sq = np.empty(config.trials)
        gaps = np.empty(config.trials)
        for trial in range(config.trials):
            spec = GenerativeSpec(n, L, config.resolved_p(n), tau2,
                                  derive_seed(config.seed, n, trial))
            state = run(build_generative(spec))
            tr_sq[trial] = expectation(state, obs) ** 2
            rho = reduced_density_matrix(state, config.subsystem)
            i_sq[trial] = distinguishability(rho) ** 2
            gaps[trial] = weak_subvolume_gap(rho)
        bound = theorem_bound(weight, L, tau2)
        mean_tr, se_tr = float(tr_sq.mean()), float(tr_sq.std(ddof=1) / math.sqrt(config.trials))
        mean_i, se_i = float(i_sq.mean()), float(i_sq.std(ddof=1) / math.sqrt(config.trials))
        rows.append({
            "n": n, "L": L, "tau2": tau2, "S": weight, "trials": config.trials,
            "mean_tr_sq": mean_tr, "se_tr_sq": se_tr,
            "mean_I2": mean_i, "se_I2": se_i,
            "bound": bound, "pass": int(mean_tr + 2 * se_tr >= bound),
            "mean_gap": float(gaps.mean()),
        })
    return rows


def default_shift_param(circuit: Circuit) -> int:
    """Middle brick layer that holds a brick, middle brick, first rotation of that brick."""
    brick_layers = [l for l in circuit.layers if isinstance(l, BrickLayer) and l.pairs]
    if not brick_layers:
        raise ValueError("circuit has no trainable bricks")
    layer = brick_layers[len(brick_layers) // 2]
    return layer.param_ids[len(layer.param_ids) // 2][0]


def _gradvar_arm(config: ExperimentConfig, n: int, depth: int) -> float:
    if depth == 0:
        return 0.0  # no trainable parameters, f is constant in theta
    obs = PauliSum(n, [PauliTerm(1.0, PauliString.single(n, n // 2, "Z"))])
    grads = np.empty(config.trials)
    for trial in range(config.trials):
        spec = GenerativeSpec(n, config.resolved_layers(n), config.resolved_p(n),
                              config.resolved_tau2(n),
                              derive_seed(config.seed, n, depth, trial, 0))
        gen = build_generative(spec)
        train = build_trainable(n, depth, derive_seed(config.seed, n, depth, trial, 1),
                                "uniform")
        circuit = concatenate(gen, train)
        param = config.shift_param if config.shift_param is not None \
            else default_shift_param(circuit)
        grads[trial] = parameter_shift_gradient(circuit, param, obs)
    return float(grads.var(ddof=1))


def gradient_variance_experiment(config: ExperimentConfig) -> List[dict]:
    """Gradient variance vs n for the log-depth ansatz and a depth-n control.

    Emits the least-squares slope of log2(Var) against n per arm; the
    log-depth arm decaying slower than the control is the trainability
    signature.
    """
    results: Dict[str, List[Tuple[int, int, float]]] = {"log_depth": [], "linear_depth": []}
    for arm, triples in results.items():
        for n in config.ns:
            depth = config.gradvar_depths(n)[arm]
            triples.append((n, depth, _gradvar_arm(config, n, depth)))
    rows = []
    for arm, triples in results.items():
        ns = np.array([t[0] for t in triples], dtype=float)
        log_var = np.log2([max(t[2], 1e-300) for t in triples])
        slope = float(np.polyfit(ns, log_var, 1)[0]) if len(ns) > 1 else 0.0
        for n, depth, var in triples:
            se = var * math.sqrt(2.0 / max(config.trials - 1, 1))
            rows.append({"n": n, "depth": depth, "trials": config.trials,
                         "variance": var, "se": se, "slope_fit": slope, "arm": arm})
    rows.sort(key=lambda r: (r["n"], r["arm"]))
    return rows


def lightcone_spread_experiment(config: ExperimentConfig) -> List[dict]:
    """Covered fraction of the backward light cone of the subsystem."""
    rows = []
    for n in config.ns:
        L = config.resolved_layers(n)
        p = config.resolved_p(n)
        fracs = np.empty(config.trials)
        for trial in range(config.trials):
            # the cone depends only on the CZ graphs, whose draws do not depend on tau2
            spec = GenerativeSpec(n, L, p, TAU2_CONSTANT, derive_seed(config.seed, n, trial))
            _, cone = backward_lightcone(build_generative(spec), set(config.subsystem))
            fracs[trial] = len(cone) / n
        rows.append({"n": n, "L": L, "p": p, "trials": config.trials,
                     "mean_frac": float(fracs.mean()), "min_frac": float(fracs.min())})
    return rows


def pauliprop_experiment(config: ExperimentConfig, max_terms: Optional[int] = None,
                         exact: bool = False) -> List[dict]:
    """Truncated propagation of Z_0 per (n, trial) under `study_policy`.

    Every n's policy is built before any circuit runs, so a policy that cannot
    be formed (`exact` with a sine cutoff) is rejected up front.
    """
    try:
        policies = [study_policy(n, config.sine_cutoff, max_terms, exact) for n in config.ns]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return [row for n, policy in zip(config.ns, policies)
            for row in benchmark_propagation([n], policy, config.trials, config.seed,
                                             layers=config.layers, p=config.p, tau2=config.tau2,
                                             trainable_depth=config.trainable_depth or 0)]


def treewidth_experiment(config: ExperimentConfig) -> List[dict]:
    """Degeneracy and min-fill brackets of single CZ layers and their unions."""
    return treewidth_trend(config.ns, config.trials, config.seed, p=config.p,
                           layers=config.layers)


# Experiment id -> driver; each takes a validated config and returns its CSV rows.
DRIVERS = {
    "subvolume": subvolume_experiment,
    "gradvar": gradient_variance_experiment,
    "lightcone": lightcone_spread_experiment,
    "pauliprop": pauliprop_experiment,
    "treewidth": treewidth_experiment,
}


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, rows: List[dict], columns: Optional[Sequence[str]] = None) -> None:
    """`rows` under `columns`, by default the first row's keys: every driver
    emits at least one row, with its columns in order."""
    columns = list(rows[0]) if columns is None else columns
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(c)) for c in columns])


def write_manifest(path: str, manifest: dict) -> None:
    """`manifest` as sorted, indented JSON, stamped with the package version."""
    with open(path, "w") as fh:
        json.dump({**manifest, "version": f"qgenbench-{__version__}"}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


def read_csv(path: str) -> List[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_experiment(config: ExperimentConfig, out_dir: str) -> Dict[str, str]:
    """Dispatch by experiment id; write `<id>.csv` and `<id>.manifest.json`.

    Returns the written paths.  Wall-time columns are excluded from the
    determinism contract; everything else is byte-stable for a fixed config.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write-probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"cannot write to {out_dir}: {exc}", "unwritable-output") from exc

    rows = DRIVERS[config.experiment](config)
    csv_path = os.path.join(out_dir, f"{config.experiment}.csv")
    write_csv(csv_path, rows)
    manifest_path = os.path.join(out_dir, f"{config.experiment}.manifest.json")
    write_manifest(manifest_path, {
        "config": asdict(config),
        "master_seed": config.seed,
        "seed_derivation": "default_rng(SeedSequence([master, *indices])); "
                           "indices are (n, trial[, sub-stream]) per row",
        "resolved_tau2": {str(n): config.resolved_tau2(n) for n in config.ns}
        if config.experiment in _TAU2_EXPERIMENTS else None,
        "rows": len(rows),
    })
    return {"csv": csv_path, "manifest": manifest_path}
