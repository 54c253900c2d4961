"""Benchmark of qgenbench's four desk-scale studies.

    python3 perfbench/run.py --workload pauliprop --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, default seed, as a table

Each workload runs in worker processes of its own with the BLAS/OpenMP pools
pinned to one thread; one process sends one unit at a time (a closed loop).
With ``--trace 0`` the end-to-end metrics are measured: ``setup_s`` is the
median over several workers of process start to first timed unit, the rest
come from one timed pass.  With ``--trace 1`` a fixed window of rounds is
run repeatedly, traced, for the per-layer metrics (medians over the
repetitions), and the spans are written as JSONL under ``perfbench/out/``.

Every time metric is reported at a nominal machine speed, because a shared
host's speed can drift by a fifth for minutes at a time.  The worker runs a
fixed reference kernel between rounds, and each time of the measured pass is
divided by the run's slowdown against that kernel's nominal chunk time (each
rate multiplied by it).  Set-up follows process start-up instead: each set-up
sample is divided by a bare ``python -c "import numpy"`` run just before it
and multiplied by that start's nominal time.  The raw values are kept in the
run record.

Every unit passes a correctness gate outside its timed region; the composed
unit loops are checked against qgenbench's experiment functions; and the work
counts of round 0 must repeat exactly on a rerun.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units come from ``BENCHMARK.json``.  A run record with the environment
(nproc, CPU model, Python, numpy, seed, thread settings) and the exact work
counts goes to ``perfbench/out/``.  Without qgenbench's sources next to this
directory the run exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

SETUP_SAMPLES = 5   # set-up is measured in this many workers; setup_s is their median
BARE_START = ["-c", "import numpy"]  # reference start-up, run before each set-up sample
BARE_NOMINAL_S = 0.18  # nominal BARE_START time: median on a 2-vCPU x86-64 KVM guest
DEADLINE_S = 170.0  # the whole run, set-up samples included, ends within this
DEFAULT_SEED = 0
DEFAULT_SECONDS = 20
SPEED_POWER = {"s": -1, "ms": -1, "1/s": 1, "GB/s": 1}  # by metric unit
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    """The run could not produce a result."""


def _spec() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def _python(argv, deadline: float):
    """Run the interpreter on `argv` to completion; returns (monotonic start, stdout)."""
    env = {**os.environ, **PINNED}
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(argv)} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n{err[-3000:]}")
    return start, out


def _spawn(args, deadline: float):
    """Run one worker to completion; returns (monotonic start, its JSON record)."""
    start, out = _python([WORKER, *args], deadline)
    try:
        return start, json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker {' '.join(args)} printed no record") from exc


def _bare_start_s(deadline: float) -> float:
    """Seconds a bare interpreter takes to start, import numpy and exit."""
    start, _ = _python(BARE_START, deadline)
    return time.monotonic() - start


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups, bares = [], []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            bares.append(_bare_start_s(deadline))
            start, rec = _spawn(args + ["--setup-only"], deadline)
            setups.append(rec["first_unit_monotonic"] - start)
        bares.append(_bare_start_s(deadline))
    start, record = _spawn(args, deadline)
    setups.append(record["first_unit_monotonic"] - start)

    values = dict(record["per_layer"]) if trace else dict(record["end_to_end"])
    if not trace:
        # Set-up time follows the speed of process start-up, not the reference
        # kernel's: each sample is scaled by the bare start paired with it.
        values["setup_s"] = BARE_NOMINAL_S * statistics.median(
            s / b for s, b in zip(setups, bares))
        record.update(setup_samples_s=setups, bare_start_s=bares)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"{name}: no value for {missing}")
    record["raw_metrics"] = {m["name"]: values[m["name"]] for m in listed}
    if not trace:
        record["raw_metrics"]["setup_s"] = statistics.median(setups)
    # Times of the measured pass are reported at the nominal machine speed:
    # divided by the run's slowdown (rates multiplied by it), as measured by
    # the worker's reference kernel.
    record["metrics"] = {}
    for m in listed:
        power = 0 if m["name"] == "setup_s" else SPEED_POWER.get(m["unit"], 0)
        record["metrics"][m["name"]] = {"value": values[m["name"]] * record["slowdown"] ** power,
                                        "unit": m["unit"]}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"run-{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return record


def _print_record(name: str, record: dict) -> None:
    for metric, m in record["metrics"].items():
        note = ""
        if metric == "unit_tail_ms":
            e2e = record["end_to_end"]
            note = f"  (p{e2e['tail_percentile']:.1f} of {record['attempted']} units)"
        print(f"{name:<10} {metric:<30} {m['value']:>16.6g} {m['unit']}{note}")
    if "per_layer" in record:
        heavy = record["heavy_layer"]
        print(f"{name:<10} heavy layer {heavy}: {record['per_layer'][f'share.{heavy}']:.1%} "
              f"of unit self time")
    print(f"{name:<10} correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']} rounds={record['rounds']} "
          f"slowdown={record['slowdown']:.3f}")
    for problem in record["failures"] + record["parity_failures"]:
        print(f"{name:<10} FAIL {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="one workload; default: all, printed as a table")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        spec = _spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            ap.error(f"unknown workload {args.workload!r}; choose from {names}")
        if args.workload is None:
            ok = True
            for name in names:
                record = run_workload(name, args.seed, args.seconds, args.trace, spec)
                _print_record(name, record)
                ok &= record["correct"]
            return 0 if ok else 1
        record = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    _print_record(args.workload, record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
