"""Run one workload in this process and print its record as one JSON line.

Started by run.py, once per set-up sample and once for the measured run, so
that peak memory and set-up time belong to this workload alone.  The thread
pools are pinned through the environment run.py passes in.

Modes:
  --setup-only   import, build inputs, warm up, report the time, exit;
  --trace 0      one timed pass, untraced;
  --trace 1      the first WINDOW_ROUNDS rounds, repeated until the untraced
                 half reaches half the time: each round untraced, then traced
                 on the same inputs; per-layer metrics are medians over the
                 repetitions, so they describe a fixed amount of work.  The
                 spans of every repetition are written as JSONL.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict

from tracing import NULL_TRACER, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

MIN_ROUNDS = 5      # every pass completes these rounds, whatever --seconds says
WINDOW_ROUNDS = 5   # work counts of these rounds are recorded; they repeat exactly
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WARMUP_SEED = 0
# Machine-speed reference.  A shared host's speed can drift by a fifth for
# minutes at a time, and every workload drifts with it.  A fixed kernel that
# does not touch qgenbench runs between rounds for about REF_SHARE of the unit
# time; its mean chunk time over the run divided by REF_CHUNK_S is the run's
# slowdown, and run.py scales the time metrics of the pass by it.
REF_SHARE = 0.1
REF_CHUNK_S = 0.025  # nominal chunk time: median on a 2-vCPU x86-64 KVM guest
LAYERS = ("circuits", "statevector", "propagation", "metrics", "shadows", "graphs")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def reference_chunk() -> float:
    """Run one chunk of the reference kernel; returns its seconds.

    Interpreter work (dict and integer arithmetic), then 1-qubit gates on a
    12-qubit state by numpy tensor contraction, like the units' mix.
    """
    import numpy as np
    state = np.random.default_rng(0).standard_normal((2,) * 12) + 0j
    gate = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(60000):
        table[i & 1023] = table.get(i & 1023, 0) + i
        acc += i * i % 7
    for q in range(24):
        state = np.moveaxis(np.tensordot(gate, state, axes=([1], [q % 12])), 0, q % 12)
    return time.perf_counter() - t0


class Pass:
    """One closed-loop pass: one unit at a time, post-processed between units.

    Counting, gating and replay run between units, outside each unit's
    latency, so the pass's time is the sum of unit latencies.
    """

    def __init__(self, workload, seed, tracer, replay=False):
        self.wl, self.seed, self.tracer, self.replay = workload, seed, tracer, replay
        self.latency = []
        self.cpu_s = 0.0
        self.rounds = 0
        self.failures = []         # (unit id, message)
        self.counts = defaultdict(int)
        self.window = defaultdict(int)
        self.round0 = []           # counts of each round-0 unit, for the repeat check
        self.prop_wall_s = 0.0
        self.replay_s = defaultdict(float)
        self.replay_bytes = 0
        self.ref_s = 0.0
        self.ref_chunks = 0

    def done(self, seconds) -> bool:
        return self.rounds >= MIN_ROUNDS and sum(self.latency) >= seconds

    def run_round(self):
        for cfg in self.wl.configs:
            self._unit(cfg, self.rounds)
        self.rounds += 1
        while self.ref_s < REF_SHARE * sum(self.latency):
            self.ref_s += reference_chunk()
            self.ref_chunks += 1

    def _unit(self, cfg, trial):
        uid = len(self.latency)
        out, error = None, None
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            with self.tracer.unit_span(uid):
                out = self.wl.unit(self.tracer, self.seed, cfg, trial)
        except Exception:  # a failing unit is counted, and the pass goes on
            error = traceback.format_exc(limit=4)
        self.latency.append(time.perf_counter() - t0)
        self.cpu_s += _cpu_seconds() - cpu0
        if error is not None:
            self.failures.append((uid, error))
            return
        try:
            counts = self.wl.counts(out)
            problems = self.wl.check(self.seed, cfg, trial, out)
        except Exception:
            counts, problems = {}, [traceback.format_exc(limit=4)]
        if problems:
            self.failures.append((uid, "; ".join(problems)))
        for key, value in counts.items():
            merge = max if key == "peak_terms" else operator.add
            self.counts[key] = merge(self.counts[key], value)
            if trial < WINDOW_ROUNDS:
                self.window[key] = merge(self.window[key], value)
        if trial == 0:
            self.round0.append((uid, cfg, counts))
        if "report" in out:
            self.prop_wall_s += out["report"].wall_time
        if self.replay and "runs" in out:
            self._replay(out["circuit"])

    def _replay(self, circuit):
        """Time each gate of the unit's circuit by kind through apply_gate."""
        from qgenbench.statevector import StateVector, apply_gate
        from workloads import gate_bytes, gate_kind
        state = StateVector.zero(circuit.n)
        for gate in circuit.gates():
            t0 = time.perf_counter()
            state = apply_gate(state, gate)
            self.replay_s[gate_kind(gate)] += time.perf_counter() - t0
            self.replay_bytes += gate_bytes(circuit.n)

    def repeat_failures(self):
        """Rerun round 0 untraced; its work counts must repeat exactly."""
        bad = []
        for uid, cfg, want in self.round0:
            got = self.wl.counts(self.wl.unit(NULL_TRACER, self.seed, cfg, 0))
            if got != want:
                bad.append((uid, f"work counts changed on rerun: {want} -> {got}"))
        return bad

    def end_to_end(self):
        n = len(self.latency)
        ordered = sorted(self.latency)
        tail_rank = max(0, n - 11)  # the highest order statistic with >= 10 units beyond it
        return {
            "units_per_s": n / sum(self.latency),
            "unit_tail_ms": ordered[tail_rank] * 1e3,
            "tail_percentile": 100.0 * (tail_rank + 1) / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cpu_s_per_unit": self.cpu_s / n,
        }


def per_layer(traced: Pass, untraced: Pass) -> dict:
    """Per-layer metrics of one traced pass of WINDOW_ROUNDS rounds.

    Layer times are span self times.  ``statevector.gates_*`` and
    ``.bytes_computed`` count the gates the units applied; ``.gate_*_s`` and
    ``.gbytes_per_s`` come from replaying each unit's circuit once through
    ``apply_gate``, outside the unit spans.
    """
    tracer = traced.tracer
    by_name = tracer.layer_totals()
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for name, row in by_name.items():
        layer = name.split(".")[0]
        if layer in self_s:
            self_s[layer] += row["self_s"]
            calls[layer] += row["calls"]
    unit_s = by_name["unit"]["total_s"]
    residual_s = by_name["unit"]["self_s"]

    def total(name):
        return by_name[name]["total_s"] if name in by_name else 0.0

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    c = traced.counts
    replay_total = sum(traced.replay_s.values())
    graph_s = total("graphs.min_fill_width") + total("graphs.degeneracy")
    out = {
        "circuits.self_s": self_s["circuits"], "circuits.calls": calls["circuits"],
        "circuits.gates_built": c["gates_built"],
        "statevector.self_s": self_s["statevector"], "statevector.calls": calls["statevector"],
        "statevector.gates_1q": c["gates_1q"], "statevector.gates_2q": c["gates_2q"],
        "statevector.gates_cz": c["gates_cz"],
        "statevector.gate_1q_s": traced.replay_s["1q"],
        "statevector.gate_2q_s": traced.replay_s["2q"],
        "statevector.gate_cz_s": traced.replay_s["cz"],
        "statevector.bytes_computed": c["bytes_computed"],
        "statevector.gbytes_per_s": ratio(traced.replay_bytes, replay_total) / 1e9,
        "propagation.self_s": self_s["propagation"], "propagation.calls": calls["propagation"],
        "propagation.prologue_s": total("propagation.propagate") - traced.prop_wall_s,
        "propagation.term_steps": c["term_steps"],
        "propagation.term_steps_per_s": ratio(c["term_steps"], self_s["propagation"]),
        "propagation.peak_terms_max": c["peak_terms"],
        "propagation.final_terms": c["final_terms"],
        "propagation.dropped_mass": c["dropped_mass"],
        "metrics.self_s": self_s["metrics"], "metrics.calls": calls["metrics"],
        "shadows.self_s": self_s["shadows"],
        "shadows.collect_s": total("shadows.collect_shadows"),
        "shadows.estimate_pauli_s": total("shadows.estimate_pauli"),
        "shadows.estimate_rdm_s": total("shadows.estimate_rdm"),
        "shadows.shots": c["shots"], "shadows.enumerated_combos": c["enumerated_combos"],
        "shadows.per_shot_shots": c["per_shot_shots"],
        "shadows.shots_per_s": ratio(c["shots"], total("shadows.collect_shadows")),
        "graphs.self_s": self_s["graphs"],
        "graphs.min_fill_s": total("graphs.min_fill_width"),
        "graphs.degeneracy_s": total("graphs.degeneracy"), "graphs.calls": calls["graphs"],
        "graphs.edges": c["edges"], "graphs.width_sum": c["width_sum"],
        "graphs.edges_per_s": ratio(c["edges"], graph_s),
        "unit.residual_s": residual_s,
        "trace.overhead_frac": sum(traced.latency) / sum(untraced.latency) - 1.0,
    }
    for layer in LAYERS:
        out[f"share.{layer}"] = ratio(self_s[layer], unit_s)
    out["share.residual"] = ratio(residual_s, unit_s)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qgenbench", "__init__.py")):
        print(f"qgenbench sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    # Warm-up (lazy imports, first-call paths) on a fixed input, so that set-up
    # does the same work whatever the run's seed.
    wl.unit(NULL_TRACER, WARMUP_SEED, wl.configs[0], 0)
    first_unit = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_unit_monotonic": first_unit}))
        return 0

    record = {"workload": wl.name, "heavy_layer": wl.heavy, "env": environment(args.seed)}
    if args.trace:
        # Rounds 0..WINDOW_ROUNDS-1 run again and again, each round untraced
        # then traced on the same inputs, so every repetition does the same
        # work and drift in machine speed cancels out of trace.overhead_frac.
        # Per-layer figures are medians over the repetitions.
        passes, layers = [], []
        while not layers or sum(sum(p.latency) for p in passes[::2]) < args.seconds / 2:
            untraced = Pass(wl, args.seed, NULL_TRACER)
            traced = Pass(wl, args.seed, Tracer(), replay=True)
            for _ in range(WINDOW_ROUNDS):
                untraced.run_round()
                traced.run_round()
            passes += [untraced, traced]
            layers.append(per_layer(traced, untraced))
        record["per_layer"] = {key: statistics.median(rep[key] for rep in layers)
                               for key in layers[0]}
        record["repetitions"] = len(layers)
    else:
        passes = [Pass(wl, args.seed, NULL_TRACER)]
        while not passes[0].done(args.seconds):
            passes[0].run_round()
        record["end_to_end"] = passes[0].end_to_end()
    main_pass = passes[-1]
    failures = [(i, uid, msg) for i, p in enumerate(passes) for uid, msg in p.failures]
    failures += [(0, uid, msg) for uid, msg in passes[0].repeat_failures()]
    failed = len({(i, uid) for i, uid, _ in failures})
    attempted = sum(len(p.latency) for p in passes)
    record["slowdown"] = (sum(p.ref_s for p in passes) / sum(p.ref_chunks for p in passes)
                          / REF_CHUNK_S)
    if not args.trace:
        record["end_to_end"]["ok_frac"] = 1.0 - failed / attempted
    parity = wl.parity(args.seed)
    record.update({
        "first_unit_monotonic": first_unit, "rounds": main_pass.rounds,
        "attempted": attempted, "failed": failed,
        "failures": [f"pass {i} unit {uid}: {msg}" for i, uid, msg in failures[:20]],
        "parity_failures": parity[:20],
        "work_counts": {"rounds": min(WINDOW_ROUNDS, main_pass.rounds),
                        **dict(sorted(main_pass.window.items()))},
    })
    record["correct"] = failed == 0 and not parity
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.jsonl")
        with open(spans, "w") as fh:
            for rep, p in enumerate(passes[1::2]):
                p.tracer.write_jsonl(fh, rep)
        record["spans"] = os.path.relpath(spans, ROOT)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
