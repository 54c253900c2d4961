"""Command-line entry point.

Subcommands: gen, features, experiment, plot, pauliprop-bench, graph-stats,
shadows.  Exit codes: 0 all outputs written, 2 invalid input/config/data,
1 unexpected failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .circuits import (Circuit, GenerativeSpec, RotationLayer, build_generative,
                       build_trainable, circuit_from_json, circuit_to_json,
                       concatenate, default_p, resolve_tau2)
from .experiments import (ConfigError, ExperimentConfig, check_p, check_qubits, check_size,
                          check_tau2, pauliprop_experiment, read_csv, run_experiment,
                          treewidth_experiment, write_csv, write_manifest)
from .pauli import PauliString, PauliSum, PauliTerm
from .propagation import ResourceLimitError, TruncationPolicy, propagate
from .seeding import derive_seed, rng_for
from .shadows import collect_shadows, shadows_to_csv
from .statevector import expectation, run

# Term bound of the exact propagation behind `features --backend propagation`:
# 2**20 terms are 17 MiB of term arrays (18 MiB past 255 rotation gates, where
# the sine counts take two bytes), a few times that while merging.
FEATURES_MAX_TERMS = 2**20


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message)


def resample_generative_angles(circuit: Circuit, tau2: float, seed: int) -> Circuit:
    """Fresh N(0, tau2) draw for every generative rotation layer."""
    rng = rng_for(seed)
    tau = math.sqrt(tau2)
    layers = []
    for layer in circuit.layers:
        if isinstance(layer, RotationLayer) and layer.role == "gen":
            angles = tuple(float(a) for a in rng.normal(0.0, tau, len(layer.angles)))
            layers.append(RotationLayer(layer.axis, layer.role, angles))
        else:
            layers.append(layer)
    return Circuit(circuit.n, tuple(layers), circuit.theta)


def _default_observables(n: int) -> List[PauliString]:
    obs = [PauliString.single(n, q, "Z") for q in range(n)]
    for q in range(n - 1):
        s = PauliString.single(n, q, "Z")
        t = PauliString.single(n, q + 1, "Z")
        obs.append(PauliString(n, 0, s.z | t.z))
    return obs


def _parse_observables(text: Optional[str], n: int) -> List[PauliString]:
    if not text:
        return _default_observables(n)
    out = []
    for label in text.split(","):
        label = label.strip()
        if len(label) != n:
            raise ConfigError(f"observable {label!r} must have exactly {n} letters")
        try:
            out.append(PauliString.from_label(label))
        except ValueError as exc:
            raise ConfigError(f"observable {label!r}: {exc}")
    return out


def cmd_gen(args) -> int:
    check_size("--n", args.n, 1)
    check_size("--layers", args.layers, 0)
    check_size("--trainable-depth", args.trainable_depth, 0)
    check_p("--p", args.p)
    # as in a config: an explicit tau2 takes the place of a non-default preset
    if args.tau2 is not None and args.tau2_preset != "constant":
        raise ConfigError(f"--tau2 and --tau2-preset {args.tau2_preset} both set; give one")
    if args.init != "uniform" and not args.trainable_depth:
        raise ConfigError(f"--init {args.init} needs a --trainable-depth of 1 or more")
    layers = args.layers
    p = args.p if args.p is not None else default_p(args.n)
    tau2 = args.tau2 if args.tau2 is not None else resolve_tau2(args.tau2_preset, args.n, layers)
    check_tau2("--tau2" if args.tau2 is not None else f"--tau2-preset {args.tau2_preset}", tau2)
    spec = GenerativeSpec(args.n, layers, p, tau2, args.seed)
    circuit = build_generative(spec)
    if args.trainable_depth:
        train = build_trainable(args.n, args.trainable_depth,
                                derive_seed(args.seed, 1), args.init)
        circuit = concatenate(circuit, train)
    with open(args.out, "w") as fh:
        fh.write(circuit_to_json(circuit) + "\n")
    write_manifest(args.out + ".manifest.json", {
        "n": args.n, "layers": layers, "p": p, "tau2": tau2,
        "tau2_preset": None if args.tau2 is not None else args.tau2_preset,
        "seed": args.seed, "trainable_depth": args.trainable_depth,
    })
    _info(args, f"wrote {args.out} (tau2={tau2:.6g})")
    return 0


def _load_circuit(path: str) -> Circuit:
    try:
        with open(path) as fh:
            return circuit_from_json(fh.read())
    except FileNotFoundError:
        raise ConfigError(f"circuit file not found: {path}")
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"malformed circuit file {path}: {exc}")


def _circuit_tau2(args) -> float:
    """--tau2, else the tau2 of the circuit's manifest; in (0, 1/4)."""
    if args.tau2 is not None:
        tau2, source = args.tau2, "--tau2"
    else:
        source = args.circuit + ".manifest.json"
        if not os.path.exists(source):
            raise ConfigError("pass --tau2 or keep the circuit's .manifest.json beside it")
        try:
            with open(source) as fh:
                tau2 = json.load(fh)["tau2"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"malformed manifest {source}: {exc!r}")
        source = f"tau2 in {source}"
    check_tau2(source, tau2)
    return tau2


def cmd_features(args) -> int:
    check_size("--samples", args.samples, 1)
    circuit = _load_circuit(args.circuit)
    check_qubits(circuit.n, args.backend)
    n = circuit.n
    observables = _parse_observables(args.observables, n)
    tau2 = _circuit_tau2(args)
    rows = []
    for i in range(args.samples):
        sampled = resample_generative_angles(circuit, tau2, derive_seed(args.seed, i))
        if args.backend == "statevector":
            state = run(sampled)
            feats = [expectation(state, PauliSum(n, [PauliTerm(1.0, o)])) for o in observables]
        else:
            policy = TruncationPolicy.exact_mode(FEATURES_MAX_TERMS)
            try:
                feats = [propagate(sampled, PauliSum(n, [PauliTerm(1.0, o)]),
                                   policy).expectation for o in observables]
            except ResourceLimitError as exc:
                raise ConfigError(f"sample {i}: {exc}")
        row = {"sample": i}
        row.update({o.label(): f for o, f in zip(observables, feats)})
        rows.append(row)
    columns = ["sample"] + [o.label() for o in observables]
    write_csv(args.out, rows, columns)
    _info(args, f"wrote {args.out} ({len(rows)} rows x {len(observables)} features)")
    return 0


def cmd_experiment(args) -> int:
    try:
        with open(args.config) as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if args.seed is not None and isinstance(obj, dict):
        obj["seed"] = args.seed
    paths = run_experiment(ExperimentConfig.from_json_obj(obj), args.out_dir)
    _info(args, f"wrote {paths['csv']} and {paths['manifest']}")
    return 0


def cmd_plot(args) -> int:
    try:
        rows = read_csv(args.csv)
    except OSError as exc:
        raise ConfigError(f"cannot read {args.csv}: {exc.strerror}")
    if not rows:
        raise ConfigError("no rows")
    if args.x not in rows[0] or args.y not in rows[0]:
        raise ConfigError(f"columns not found; available: {sorted(rows[0])}")
    try:
        points = sorted((float(r[args.x]), float(r[args.y])) for r in rows
                        if r[args.x] != "" and r[args.y] != "")
        if not all(math.isfinite(v) for point in points for v in point):
            raise ValueError
    except (TypeError, ValueError):  # TypeError: a row shorter than the header
        raise ConfigError(f"columns {args.x!r}/{args.y!r} must be finite numbers")
    if not points:
        raise ConfigError("no numeric points to plot")
    svg = _line_chart_svg(points, args.x, args.y)
    with open(args.out, "w") as fh:
        fh.write(svg)
    _info(args, f"wrote {args.out} ({len(points)} points)")
    return 0


def _line_chart_svg(points, xlabel: str, ylabel: str,
                    width: int = 640, height: int = 420) -> str:
    margin = 60
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def sx(v):
        return margin + (v - x0) / xspan * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y0) / yspan * (height - 2 * margin)

    poly = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<polyline points="{poly}" fill="none" stroke="steelblue" stroke-width="2"/>',
    ]
    for x, y in points:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="steelblue"/>')
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 15}" '
                 f'text-anchor="middle" font-size="14">{xlabel}</text>')
    parts.append(f'<text x="18" y="{height / 2:.0f}" text-anchor="middle" font-size="14" '
                 f'transform="rotate(-90 18 {height / 2:.0f})">{ylabel}</text>')
    parts.append(f'<text x="{margin}" y="{height - margin + 18}" font-size="11">{x0:g}</text>')
    parts.append(f'<text x="{width - margin}" y="{height - margin + 18}" '
                 f'text-anchor="end" font-size="11">{x1:g}</text>')
    parts.append(f'<text x="{margin - 6}" y="{height - margin}" text-anchor="end" '
                 f'font-size="11">{y0:g}</text>')
    parts.append(f'<text x="{margin - 6}" y="{margin + 4}" text-anchor="end" '
                 f'font-size="11">{y1:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _parse_ns(text: str) -> List[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad n list {text!r}; expected comma-separated integers")


def cmd_pauliprop_bench(args) -> int:
    config = ExperimentConfig("pauliprop", _parse_ns(args.ns), layers=args.layers, p=args.p,
                              trainable_depth=args.trainable_depth, trials=args.trials,
                              seed=args.seed, sine_cutoff=args.sine_cutoff)
    if args.max_terms is not None:
        check_size("--max-terms", args.max_terms, 1)
    try:
        rows = pauliprop_experiment(config, args.max_terms, args.exact)
    except ResourceLimitError as exc:
        raise ConfigError(str(exc))
    write_csv(args.out, rows)
    _info(args, f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_graph_stats(args) -> int:
    config = ExperimentConfig("treewidth", _parse_ns(args.ns), layers=args.layers, p=args.p,
                              trials=args.trials, seed=args.seed)
    rows = treewidth_experiment(config)
    write_csv(args.out, rows)
    _info(args, f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_shadows(args) -> int:
    check_size("--shots", args.shots, 1)
    circuit = _load_circuit(args.circuit)
    check_qubits(circuit.n, "statevector")
    state = run(circuit)
    shadows = collect_shadows(state, args.shots, args.seed)
    with open(args.out, "w") as fh:
        fh.write(shadows_to_csv(shadows))
    _info(args, f"wrote {args.out} ({args.shots} shots)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qgenbench")
    parser.add_argument("--version", action="version", version=f"qgenbench {__version__}")

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--quiet", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build a circuit and write its JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--p", type=float, default=None, help="CZ edge probability (default ln(n)/n)")
    p.add_argument("--tau2-preset", choices=["constant", "theorem"], default="constant")
    p.add_argument("--tau2", type=float, default=None)
    p.add_argument("--trainable-depth", type=int, default=0)
    p.add_argument("--init", choices=["uniform", "zeros"], default="uniform")
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("features", help="sample feature vectors from a circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--observables", default=None,
                   help="comma-separated Pauli labels (default Z_i and Z_i Z_{i+1})")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--tau2", type=float, default=None)
    p.add_argument("--backend", choices=["statevector", "propagation"],
                   default="statevector")
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    add_common(p)
    p.set_defaults(func=cmd_experiment, seed=None)  # None keeps the config's seed

    p = sub.add_parser("plot", help="CSV to SVG line chart")
    p.add_argument("--csv", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--quiet", action="store_true")  # plot draws no random numbers
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("pauliprop-bench", help="propagation scaling benchmark")
    p.add_argument("--ns", required=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--trainable-depth", type=int, default=0)
    p.add_argument("--sine-cutoff", type=int, default=None)
    p.add_argument("--max-terms", type=int, default=None)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=cmd_pauliprop_bench)

    p = sub.add_parser("graph-stats", help="treewidth bracket trends")
    p.add_argument("--ns", required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=cmd_graph_stats)

    p = sub.add_parser("shadows", help="collect Pauli-basis shadow samples")
    p.add_argument("--circuit", required=True)
    p.add_argument("--shots", type=int, default=10000)
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=cmd_shadows)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:  # None: plot, or experiment's default
            check_size("--seed", args.seed, 0)
        return args.func(args)
    except ConfigError as exc:
        code = f"[{exc.code}] " if exc.code else ""
        print(f"error: {code}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
