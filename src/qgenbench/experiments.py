"""Reproducible experiment drivers and their CSV/manifest plumbing.

Each driver is a pure function of (config, master seed): per-trial generators
are derived with the documented SeedSequence mixing in :mod:`.seeding`, and
rows are emitted in (n, trial) order regardless of execution order.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .circuits import (Circuit, BrickLayer, GenerativeSpec, backward_lightcone,
                       build_generative, build_trainable, concatenate, default_depth,
                       default_layers, default_p, resolve_tau2)
from .metrics import distinguishability, weak_subvolume_gap
from .pauli import PauliString, PauliSum, PauliTerm
from .propagation import MAX_PROP_QUBITS, TruncationPolicy, benchmark_propagation
from .graphs import treewidth_trend
from .seeding import derive_seed, rng_for
from .statevector import (expectation, parameter_shift_gradient,
                          reduced_density_matrix, run)

try:
    from importlib.metadata import version as _pkg_version
    VERSION = _pkg_version("qgenbench")
except Exception:  # pragma: no cover - not installed
    VERSION = "0.1.0+local"

EXPERIMENT_IDS = ("subvolume", "gradvar", "lightcone", "pauliprop", "treewidth")
_TAU2_EXPERIMENTS = ("subvolume", "gradvar", "lightcone")  # read resolved_tau2


class ConfigError(ValueError):
    """Config validation failure with a stable error code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class ExperimentConfig:
    experiment: str
    ns: Tuple[int, ...]
    layers: Optional[int] = None       # default: ceil(ln n) per n (2 for subvolume)
    p: Optional[float] = None          # default: ln(n)/n per n
    tau2: Optional[float] = None       # explicit value wins over the preset
    tau2_preset: str = "theorem"
    subsystem: Tuple[int, ...] = (0,)
    sigma: Tuple[Tuple[int, str], ...] = ((0, "Z"),)
    trainable_depth: Optional[int] = None
    trials: int = 100
    seed: int = 0
    shift_param: Optional[int] = None
    sine_cutoff: Optional[int] = None  # pauliprop: None = ceil(log2 n) per n

    def __post_init__(self):
        self.ns = tuple(int(n) for n in self.ns)
        self.subsystem = tuple(int(q) for q in self.subsystem)
        self.sigma = tuple((int(q), str(l)) for q, l in self.sigma)
        if self.experiment not in EXPERIMENT_IDS:
            raise ConfigError("unknown-experiment", f"unknown experiment id {self.experiment!r}")
        if not self.ns:
            raise ConfigError("bad-config", "ns must be non-empty")
        if min(self.ns) < 1:
            raise ConfigError("bad-config", "ns must be positive")
        if self.trials <= 0:
            raise ConfigError("bad-config", "trials must be positive")
        if self.experiment == "pauliprop" and max(self.ns) > MAX_PROP_QUBITS:
            raise ConfigError("bad-config", f"propagation caps at {MAX_PROP_QUBITS} qubits, "
                                            f"got n={max(self.ns)}")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ConfigError("bad-config", f"p must lie in [0, 1], got {self.p}")
        if self.tau2 is not None and not self.tau2 > 0:
            raise ConfigError("bad-config", f"tau2 must be positive, got {self.tau2}")
        referenced = set(self.subsystem) | {q for q, _ in self.sigma}
        if referenced and max(referenced) >= min(self.ns):
            raise ConfigError("bad-config",
                              "referenced qubits must fit the smallest system size")
        if self.experiment in _TAU2_EXPERIMENTS:
            try:
                tau2s = {n: self.resolved_tau2(n) for n in self.ns}
            except ValueError as exc:  # unknown preset
                raise ConfigError("bad-config", str(exc)) from exc
            for n, tau2 in tau2s.items():
                if not tau2 > 0:
                    raise ConfigError("bad-config", f"tau2_preset {self.tau2_preset!r} gives "
                                                    f"tau2 = {tau2} at n={n}; set tau2")

    def to_json_obj(self) -> dict:
        obj = asdict(self)
        obj["ns"] = list(self.ns)
        obj["subsystem"] = list(self.subsystem)
        obj["sigma"] = [[q, l] for q, l in self.sigma]
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(obj) - known
        if extra:
            raise ConfigError("bad-config", f"unknown config keys: {sorted(extra)}")
        missing = {"experiment", "ns"} - set(obj)
        if missing:
            raise ConfigError("bad-config", f"missing config keys: {sorted(missing)}")
        kwargs = dict(obj)
        kwargs["ns"] = tuple(kwargs["ns"])
        if "subsystem" in kwargs:
            kwargs["subsystem"] = tuple(kwargs["subsystem"])
        if "sigma" in kwargs:
            kwargs["sigma"] = tuple((q, l) for q, l in kwargs["sigma"])
        return cls(**kwargs)

    def resolved_layers(self, n: int) -> int:
        if self.layers is not None:
            return self.layers
        if self.experiment == "subvolume":
            return 2
        return default_layers(n)

    def resolved_p(self, n: int) -> float:
        return self.p if self.p is not None else default_p(n)

    def resolved_tau2(self, n: int) -> float:
        if self.tau2 is not None:
            return self.tau2
        return resolve_tau2(self.tau2_preset, n, self.resolved_layers(n),
                            max_weight=max(1, len(self.sigma)))


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
    """Middle brick layer, middle brick, first rotation of that brick."""
    brick_layers = [l for l in circuit.layers if isinstance(l, BrickLayer)]
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
    arms = {"log_depth": lambda n: (config.trainable_depth if config.trainable_depth
                                    is not None else default_depth(n)),
            "linear_depth": lambda n: n}
    results: Dict[str, List[Tuple[int, int, float]]] = {}
    for arm, depth_of in arms.items():
        results[arm] = [(n, depth_of(n), _gradvar_arm(config, n, depth_of(n)))
                        for n in config.ns]
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
    """Covered fraction of the backward light cone from one qubit."""
    rows = []
    start = min(config.subsystem) if config.subsystem else 0
    for n in config.ns:
        L = config.resolved_layers(n)
        p = config.resolved_p(n)
        fracs = np.empty(config.trials)
        for trial in range(config.trials):
            spec = GenerativeSpec(n, L, p, config.resolved_tau2(n),
                                  derive_seed(config.seed, n, trial))
            _, cone = backward_lightcone(build_generative(spec), {start})
            fracs[trial] = len(cone) / n
        rows.append({"n": n, "L": L, "p": p, "trials": config.trials,
                     "mean_frac": float(fracs.mean()), "min_frac": float(fracs.min())})
    return rows


CSV_COLUMNS = {
    "subvolume": ["n", "L", "tau2", "S", "trials", "mean_tr_sq", "se_tr_sq",
                  "mean_I2", "se_I2", "bound", "pass", "mean_gap"],
    "gradvar": ["n", "depth", "trials", "variance", "se", "slope_fit", "arm"],
    "lightcone": ["n", "L", "p", "trials", "mean_frac", "min_frac"],
    "pauliprop": ["n", "trial", "policy_id", "expectation", "error_vs_exact",
                  "peak_terms", "final_terms", "dropped_mass", "wall_time_s"],
    "treewidth": ["n", "trial", "layers", "edges", "degeneracy_lb", "minfill_ub"],
}


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, rows: List[dict], columns: List[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(c)) for c in columns])


def read_csv(path: str) -> List[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_experiment(config: ExperimentConfig, out_dir: str) -> Dict[str, str]:
    """Dispatch by experiment id; write `<id>.csv` and `<id>.manifest.json`.

    Returns the written paths.  Wall-time columns are excluded from the
    determinism contract; everything else is byte-stable for a fixed config.
    """
    drivers = {
        "subvolume": subvolume_experiment,
        "gradvar": gradient_variance_experiment,
        "lightcone": lightcone_spread_experiment,
        "pauliprop": lambda c: benchmark_propagation(
            c.ns, None if c.sine_cutoff is None else TruncationPolicy(sine_cutoff=c.sine_cutoff),
            c.trials, c.seed, layers=c.layers, p=c.p, tau2=c.tau2,
            trainable_depth=c.trainable_depth or 0),
        "treewidth": lambda c: treewidth_trend(c.ns, c.trials, c.seed, p=c.p, layers=c.layers),
    }
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write-probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        raise ConfigError("unwritable-output", f"cannot write to {out_dir}: {exc}") from exc

    rows = drivers[config.experiment](config)
    csv_path = os.path.join(out_dir, f"{config.experiment}.csv")
    write_csv(csv_path, rows, CSV_COLUMNS[config.experiment])
    manifest = {
        "version": f"qgenbench-{VERSION}",
        "config": config.to_json_obj(),
        "master_seed": config.seed,
        "seed_derivation": "default_rng(SeedSequence([master, *indices])); "
                           "indices are (n, trial[, sub-stream]) per row",
        "resolved_tau2": {str(n): config.resolved_tau2(n) for n in config.ns}
        if config.experiment in _TAU2_EXPERIMENTS else None,
        "rows": len(rows),
    }
    manifest_path = os.path.join(out_dir, f"{config.experiment}.manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"csv": csv_path, "manifest": manifest_path}
