import dataclasses
import json
import math
import os

import numpy as np
import pytest

from qgenbench.circuits import circuit_from_json
from qgenbench import cli
from qgenbench.cli import main
from qgenbench.experiments import ExperimentConfig, read_csv, write_csv
from qgenbench.propagation import benchmark_propagation


def run_cli(*argv):
    return main(list(argv))


def test_gen_writes_circuit_and_manifest(tmp_path):
    out = str(tmp_path / "circ.json")
    assert run_cli("gen", "--n", "4", "--layers", "2", "--seed", "3",
                   "--out", out, "--quiet") == 0
    circ = circuit_from_json(open(out).read())
    assert circ.n == 4
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["tau2"] == 0.2499
    assert manifest["seed"] == 3


def test_gen_with_trainable(tmp_path):
    out = str(tmp_path / "c.json")
    run_cli("gen", "--n", "4", "--layers", "1", "--trainable-depth", "2",
            "--out", out, "--quiet")
    circ = circuit_from_json(open(out).read())
    assert circ.num_params == 45


def test_features_roundtrip(tmp_path):
    circ = str(tmp_path / "c.json")
    feats = str(tmp_path / "f.csv")
    run_cli("gen", "--n", "3", "--layers", "1", "--out", circ, "--quiet")
    assert run_cli("features", "--circuit", circ, "--samples", "5",
                   "--out", feats, "--quiet") == 0
    rows = read_csv(feats)
    assert len(rows) == 5
    # default observables: 3 single-Z and 2 neighbor ZZ
    assert len(rows[0]) == 1 + 3 + 2
    for row in rows:
        for key, val in row.items():
            if key != "sample":
                assert -1.0 - 1e-9 <= float(val) <= 1.0 + 1e-9


def test_features_backends_agree(tmp_path):
    circ = str(tmp_path / "c.json")
    run_cli("gen", "--n", "4", "--layers", "2", "--out", circ, "--quiet")
    out_sv = str(tmp_path / "sv.csv")
    out_pp = str(tmp_path / "pp.csv")
    run_cli("features", "--circuit", circ, "--samples", "3", "--out", out_sv,
            "--backend", "statevector", "--quiet")
    run_cli("features", "--circuit", circ, "--samples", "3", "--out", out_pp,
            "--backend", "propagation", "--quiet")
    a, b = read_csv(out_sv), read_csv(out_pp)
    for ra, rb in zip(a, b):
        for key in ra:
            if key != "sample":
                assert float(ra[key]) == pytest.approx(float(rb[key]), abs=1e-9)


def test_features_requires_tau2_without_manifest(tmp_path):
    circ = str(tmp_path / "c.json")
    run_cli("gen", "--n", "3", "--layers", "1", "--out", circ, "--quiet")
    os.remove(circ + ".manifest.json")
    assert run_cli("features", "--circuit", circ, "--samples", "1",
                   "--out", str(tmp_path / "f.csv"), "--quiet") == 2
    assert run_cli("features", "--circuit", circ, "--samples", "1", "--tau2", "0.1",
                   "--out", str(tmp_path / "f.csv"), "--quiet") == 0


def test_features_bad_observable(tmp_path):
    circ = str(tmp_path / "c.json")
    run_cli("gen", "--n", "3", "--layers", "1", "--out", circ, "--quiet")
    assert run_cli("features", "--circuit", circ, "--observables", "ZZ",
                   "--out", str(tmp_path / "f.csv"), "--quiet") == 2


def test_missing_circuit_is_exit_2(tmp_path):
    assert run_cli("features", "--circuit", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "f.csv"), "--quiet") == 2


def test_malformed_circuit_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("shadows", "--circuit", str(bad),
                   "--out", str(tmp_path / "s.csv"), "--quiet") == 2


def test_out_of_range_edge_is_exit_2(tmp_path):
    circ = tmp_path / "c.json"
    circ.write_text(json.dumps({"n": 4, "theta": [], "layers": [
        {"type": "rot", "axis": "X", "role": "gen", "angles": [0.1] * 4},
        {"type": "cz", "edges": [[0, 9]]}]}))
    assert run_cli("features", "--circuit", str(circ), "--tau2", "0.1",
                   "--out", str(tmp_path / "f.csv"), "--quiet") == 2


_ROT4 = {"type": "rot", "axis": "X", "role": "gen", "angles": [0.1] * 4}
_BRICK_IDS = list(range(15))


@pytest.mark.parametrize("circuit", [
    {"n": 4, "theta": [], "layers": [_ROT4, {"type": "cz", "edges": [[0, 1.5]]}]},
    {"n": 4, "theta": [], "layers": [_ROT4, {"type": "cz", "edges": [[True, 2]]}]},
    {"n": 4, "theta": [0.0] * 15, "layers": [
        _ROT4, {"type": "brick", "pairs": [[0, 1]], "param_ids": [[0.0] + _BRICK_IDS[1:]]}]},
    {"n": 2.0, "theta": [], "layers": []},
    {"n": -1, "theta": [], "layers": []},
    {"n": 0, "theta": [], "layers": []},
    {"n": 4, "theta": [], "layers": [{**_ROT4, "role": "zzz"}]},
    {"n": 4, "theta": [[0.0] * 15], "layers": [_ROT4]},
    {"n": 4, "theta": [], "layers": [{**_ROT4, "angles": [True, False, 0.1, 0.1]}]},
    {"n": 4, "theta": [True] + [0.0] * 14, "layers": [
        _ROT4, {"type": "brick", "pairs": [[0, 1]], "param_ids": [_BRICK_IDS]}]},
    {"n": 4, "theta": [], "layers": [_ROT4, {"type": "cz", "edges": [[1, 1]]}]},
    {"n": 4, "theta": [], "layers": [_ROT4, {"type": "cz", "edges": [[0, 1], [1, 0]]}]},
    {"n": 4, "theta": [0.0] * 30, "layers": [
        _ROT4, {"type": "brick", "pairs": [[0, 1], [1, 2]],
                "param_ids": [_BRICK_IDS, list(range(15, 30))]}]},
    {"n": 4, "theta": [0.0] * 15, "layers": [
        _ROT4, {"type": "brick", "pairs": [[0, 1]], "param_ids": [_BRICK_IDS[:14]]}]},
    {"n": 4, "theta": [0.0] * 30, "layers": [
        _ROT4, {"type": "brick", "pairs": [[0, 1], [2, 3]], "param_ids": [_BRICK_IDS]}]},
    {"n": 4, "theta": [], "layers": [_ROT4, {"type": "cz", "edges": [[0, 1]],
                                             "weights": [0.5]}]},
    {"n": 4, "theta": [], "layers": [_ROT4, {"type": "swap", "pairs": [[0, 1]]}]},
    {"n": 4, "theta": [], "layers": [{"type": "rot", "axis": "X", "role": "gen"}]},
], ids=["float_edge", "bool_edge", "float_param_id", "float_n", "negative_n", "zero_n",
        "unknown_role", "2d_theta", "bool_angles", "bool_theta", "self_loop",
        "reversed_duplicate_edge", "overlapping_bricks", "14_ids", "id_groups_ne_pairs",
        "extra_key", "unknown_type", "missing_key"])
@pytest.mark.parametrize("command", [["features", "--tau2", "0.1", "--samples", "2"],
                                     ["features", "--tau2", "0.1", "--samples", "2",
                                      "--backend", "propagation"],
                                     ["shadows", "--shots", "10"]],
                         ids=["statevector", "propagation", "shadows"])
def test_malformed_circuit_ir_is_exit_2(tmp_path, capsys, circuit, command):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(circuit))
    out = tmp_path / "out.csv"
    assert run_cli(*command, "--circuit", str(path), "--out", str(out), "--quiet") == 2
    assert capsys.readouterr().err.startswith("error: malformed circuit file")
    assert not out.exists()


def test_experiment_command(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "lightcone", "ns": [10, 20],
                                  "trials": 5}))
    out_dir = str(tmp_path / "out")
    assert run_cli("experiment", "--config", str(config), "--out-dir", out_dir,
                   "--quiet") == 0
    rows = read_csv(os.path.join(out_dir, "lightcone.csv"))
    assert len(rows) == 2
    # the light cone does not depend on the angles, so no tau2 is resolved
    manifest = json.load(open(os.path.join(out_dir, "lightcone.manifest.json")))
    assert manifest["resolved_tau2"] is None


def test_experiment_bad_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "lightcone"}))
    assert run_cli("experiment", "--config", str(config),
                   "--out-dir", str(tmp_path / "o"), "--quiet") == 2
    config.write_text("{oops")
    assert run_cli("experiment", "--config", str(config),
                   "--out-dir", str(tmp_path / "o"), "--quiet") == 2
    assert run_cli("experiment", "--config", str(tmp_path / "absent.json"),
                   "--out-dir", str(tmp_path / "o"), "--quiet") == 2


# A valid config of each experiment, and one field per case that the
# experiment does not read, set to a value other than its default.  gradvar's
# n = 2 linear arm has an empty middle brick layer (offset 1).
UNREAD_BASES = {"subvolume": {"ns": [4], "trials": 2}, "gradvar": {"ns": [2, 4], "trials": 2},
                "lightcone": {"ns": [20], "trials": 1}, "pauliprop": {"ns": [4], "trials": 1},
                "treewidth": {"ns": [20], "trials": 1}}
UNREAD_FIELDS = [
    ("subvolume", "trainable_depth", 1), ("subvolume", "shift_param", 0),
    ("subvolume", "sine_cutoff", 3),
    ("gradvar", "subsystem", [1]), ("gradvar", "sine_cutoff", 3),
    ("lightcone", "trainable_depth", 1), ("lightcone", "shift_param", 0),
    ("lightcone", "sine_cutoff", 3),
    ("gradvar", "sigma", [[0, "X"]]), ("lightcone", "tau2", 0.1),
    ("lightcone", "tau2_preset", "constant"), ("lightcone", "sigma", [[0, "X"]]),
    ("pauliprop", "tau2_preset", "constant"), ("pauliprop", "subsystem", [1]),
    ("pauliprop", "sigma", [[0, "X"]]), ("pauliprop", "shift_param", 3),
    ("treewidth", "tau2", 0.1), ("treewidth", "tau2_preset", "constant"),
    ("treewidth", "subsystem", [1]), ("treewidth", "sigma", [[0, "X"]]),
    ("treewidth", "trainable_depth", 1), ("treewidth", "shift_param", 0),
    ("treewidth", "sine_cutoff", 3),
]


@pytest.mark.parametrize("experiment", sorted(UNREAD_BASES))
def test_unread_fields_at_default_accepted(tmp_path, experiment):
    # every optional field written out at its default, read or not
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)
                if f.name not in ("experiment", "ns", "trials", "seed")}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": experiment, **UNREAD_BASES[experiment],
                                  **defaults}))
    assert run_cli("experiment", "--config", str(config), "--out-dir", str(tmp_path / "o"),
                   "--quiet") == 0


@pytest.mark.parametrize("obj", [
    {"experiment": "pauliprop", "ns": [33], "trials": 1},
    {"experiment": "pauliprop", "ns": [4, 40], "trials": 1},
    {"experiment": "treewidth", "ns": [20], "p": 2.0, "trials": 1},
    {"experiment": "lightcone", "ns": [20], "tau2": 0.0, "trials": 1},
    {"experiment": "subvolume", "ns": [1, 4], "trials": 2},
    {"experiment": "lightcone", "ns": [20], "tau2_preset": "bogus", "trials": 1},
    {"experiment": "treewidth", "ns": [0, 20], "subsystem": [], "sigma": [], "trials": 1},
    {"experiment": "treewidth", "ns": [20], "layers": 0, "trials": 1},
    {"experiment": "lightcone", "ns": "ab", "trials": 1},
    {"experiment": "lightcone", "ns": [20], "trials": "3"},
    {"experiment": "gradvar", "ns": [4], "trainable_depth": -1, "trials": 2},
    {"experiment": "gradvar", "ns": [4], "shift_param": 999, "trials": 2},
    {"experiment": "pauliprop", "ns": [4], "layers": -2, "trials": 1},
    {"experiment": "gradvar", "ns": [4], "trials": 1},
    {"experiment": "subvolume", "ns": [4], "trials": 1},
    {"experiment": "gradvar", "ns": [1], "tau2": 0.1, "trials": 2},
    {"experiment": "lightcone", "ns": [20], "seed": -1, "trials": 1},
    {"experiment": "treewidth", "ns": [20], "p": "x", "trials": 1},
    {"experiment": "pauliprop", "ns": [4], "sine_cutoff": -1, "trials": 1},
    {"experiment": "lightcone", "ns": [20], "subsystem": ["a"], "trials": 1},
    {"experiment": "subvolume", "ns": [4], "sigma": [[0, "Q"]], "trials": 2},
    {"experiment": "subvolume", "ns": [4], "sigma": ["Z0"], "trials": 2},
    {"experiment": "lightcone", "ns": [20], "subsystem": 0, "trials": 1},
    {"experiment": "subvolume", "ns": [4], "tau2": 0.3, "trials": 2},
    {"experiment": "gradvar", "ns": [4], "tau2": 0.3, "trials": 2},
    {"experiment": "pauliprop", "ns": [4], "tau2": 0.3, "trials": 1},
    {"experiment": "pauliprop", "ns": [4], "tau2": 5.0, "trials": 1},
    {"experiment": "subvolume", "ns": [4], "tau2_preset": "bogus", "trials": 2},
    {"experiment": "subvolume", "ns": [4], "sigma": [[0, "X"], [0, "Z"]], "trials": 2},
    {"experiment": "subvolume", "ns": [4], "sigma": [], "trials": 2},
    {"experiment": "subvolume", "ns": [25], "trials": 2},
    {"experiment": "subvolume", "ns": [4], "tau2": 0.1, "tau2_preset": "bogus", "trials": 2},
    {"experiment": "gradvar", "ns": [4], "tau2": 0.1, "tau2_preset": "constant", "trials": 2},
    {"experiment": "lightcone", "ns": [20], "subsystem": [], "trials": 1},
    {"experiment": "subvolume", "ns": [4], "subsystem": [], "trials": 2},
    {"experiment": "treewidth", "ns": [20, 5000], "trials": 1},
    None, 5, [{}], [1],
] + [{"experiment": e, **UNREAD_BASES[e], f: v} for e, f, v in UNREAD_FIELDS],
   ids=["pauliprop_ns_33", "pauliprop_ns_4_40", "treewidth_p_2", "lightcone_tau2_0",
        "subvolume_theorem_n_1", "lightcone_unknown_preset", "treewidth_ns_0",
        "treewidth_layers_0", "ns_text", "trials_text", "gradvar_trainable_depth_-1",
        "gradvar_shift_param_999", "pauliprop_layers_-2", "gradvar_trials_1",
        "subvolume_trials_1", "gradvar_n_1_no_bricks", "seed_-1", "p_text",
        "pauliprop_sine_cutoff_-1", "subsystem_text", "sigma_letter_Q",
        "sigma_not_pairs", "subsystem_not_list", "subvolume_tau2_0.3", "gradvar_tau2_0.3",
        "pauliprop_tau2_0.3", "pauliprop_tau2_5", "subvolume_unknown_preset",
        "sigma_qubit_twice", "sigma_empty", "subvolume_ns_25",
        "subvolume_tau2_with_bogus_preset", "gradvar_tau2_with_constant_preset",
        "lightcone_subsystem_empty", "subvolume_subsystem_empty", "treewidth_ns_5000",
        "config_null",
        "config_number", "config_list", "config_list_seed_override"]
   + [f"{e}_unread_{f}" for e, f, _ in UNREAD_FIELDS])
def test_experiment_rejected_config_exit_2(tmp_path, capsys, obj):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(obj))
    out_dir = tmp_path / "o"
    # a list config also gets a --seed, which the CLI writes into an object config
    seed = ["--seed", "3"] if isinstance(obj, list) else []
    assert run_cli("experiment", "--config", str(config), "--out-dir", str(out_dir),
                   *seed, "--quiet") == 2
    assert not out_dir.exists()
    assert capsys.readouterr().err.startswith("error: [bad-config] ")


def test_experiment_seed_override(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "treewidth", "ns": [12],
                                  "trials": 2, "seed": 0}))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_cli("experiment", "--config", str(config), "--out-dir", out1, "--quiet")
    run_cli("experiment", "--config", str(config), "--out-dir", out2,
            "--seed", "99", "--quiet")
    assert open(os.path.join(out1, "treewidth.csv")).read() != \
        open(os.path.join(out2, "treewidth.csv")).read()


def test_experiment_seed_defaults_to_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "treewidth", "ns": [12],
                                  "trials": 2, "seed": 5}))
    csvs = []
    for i, extra in enumerate([[], ["--seed", "5"], ["--seed", "0"]]):
        out = str(tmp_path / str(i))
        assert run_cli("experiment", "--config", str(config), "--out-dir", out,
                       *extra, "--quiet") == 0
        csvs.append(open(os.path.join(out, "treewidth.csv")).read())
    assert csvs[0] == csvs[1] != csvs[2]


def test_pauliprop_bench_command(tmp_path):
    out = str(tmp_path / "bench.csv")
    assert run_cli("pauliprop-bench", "--ns", "4,6", "--trials", "2",
                   "--layers", "1", "--exact", "--out", out, "--quiet") == 0
    rows = read_csv(out)
    assert len(rows) == 4
    assert all(float(r["error_vs_exact"]) < 1e-9 for r in rows)


def test_pauliprop_bench_max_terms_alone_caps(tmp_path):
    out = str(tmp_path / "bench.csv")
    assert run_cli("pauliprop-bench", "--ns", "8,12", "--trials", "2", "--max-terms", "8",
                   "--out", out, "--quiet") == 0
    rows = read_csv(out)
    assert [r["policy_id"] for r in rows] == ["sine3-max8"] * 2 + ["sine4-max8"] * 2
    assert all(int(r["peak_terms"]) <= 8 for r in rows)


def test_pauliprop_bench_default_policy_matches_driver(tmp_path):
    # without a policy flag each n gets the driver's default sine cutoff
    out = str(tmp_path / "bench.csv")
    assert run_cli("pauliprop-bench", "--ns", "8,12,8", "--trials", "2", "--seed", "3",
                   "--out", out, "--quiet") == 0
    want = str(tmp_path / "want.csv")
    write_csv(want, benchmark_propagation([8, 12, 8], None, 2, 3))
    masked = [{**r, "wall_time_s": None} for r in read_csv(out)]
    assert masked == [{**r, "wall_time_s": None} for r in read_csv(want)]


@pytest.mark.parametrize("argv, obj", [
    (["graph-stats", "--ns", "20,40", "--trials", "3", "--seed", "4"],
     {"experiment": "treewidth", "ns": [20, 40], "trials": 3, "seed": 4}),
    (["graph-stats", "--ns", "12", "--trials", "2", "--layers", "2", "--p", "0.2"],
     {"experiment": "treewidth", "ns": [12], "trials": 2, "layers": 2, "p": 0.2}),
    (["pauliprop-bench", "--ns", "4,6,9", "--trials", "2", "--layers", "1", "--seed", "2"],
     {"experiment": "pauliprop", "ns": [4, 6, 9], "trials": 2, "layers": 1, "seed": 2}),
    (["pauliprop-bench", "--ns", "5,4", "--trials", "2", "--p", "0.5", "--trainable-depth", "1",
      "--sine-cutoff", "2"],
     {"experiment": "pauliprop", "ns": [5, 4], "trials": 2, "p": 0.5, "trainable_depth": 1,
      "sine_cutoff": 2}),
], ids=["graph_stats", "graph_stats_layers_p", "pauliprop", "pauliprop_sine_cutoff"])
def test_study_command_matches_experiment(tmp_path, argv, obj):
    # the flag front end and the config front end run one driver per study
    out = str(tmp_path / "flags.csv")
    assert run_cli(*argv, "--out", out, "--quiet") == 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(obj))
    assert run_cli("experiment", "--config", str(config), "--out-dir", str(tmp_path / "o"),
                   "--quiet") == 0
    want = str(tmp_path / "o" / f"{obj['experiment']}.csv")
    masked = [[{**r, "wall_time_s": None} for r in read_csv(path)] for path in (out, want)]
    assert masked[0] == masked[1]


def test_pauliprop_bad_ns(tmp_path):
    assert run_cli("pauliprop-bench", "--ns", "4,x",
                   "--out", str(tmp_path / "b.csv"), "--quiet") == 2


def test_graph_stats_command(tmp_path):
    out = str(tmp_path / "g.csv")
    assert run_cli("graph-stats", "--ns", "20", "--trials", "3",
                   "--out", out, "--quiet") == 0
    rows = read_csv(out)
    assert len(rows) == 6
    assert all(int(r["degeneracy_lb"]) <= int(r["minfill_ub"]) for r in rows)


def test_shadows_command(tmp_path):
    circ = str(tmp_path / "c.json")
    run_cli("gen", "--n", "3", "--layers", "1", "--out", circ, "--quiet")
    out = str(tmp_path / "s.csv")
    assert run_cli("shadows", "--circuit", circ, "--shots", "50",
                   "--out", out, "--quiet") == 0
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 51


def test_plot_command(tmp_path):
    out = str(tmp_path / "g.csv")
    run_cli("graph-stats", "--ns", "15,25", "--trials", "2", "--out", out, "--quiet")
    svg = str(tmp_path / "p.svg")
    assert run_cli("plot", "--csv", out, "--x", "n", "--y", "minfill_ub",
                   "--out", svg, "--quiet") == 0
    text = open(svg).read()
    assert text.startswith("<svg") and "polyline" in text
    assert run_cli("plot", "--csv", out, "--x", "n", "--y", "zzz",
                   "--out", svg, "--quiet") == 2


def test_plot_empty_csv(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("a,b\n")
    assert run_cli("plot", "--csv", str(empty), "--x", "a", "--y", "b",
                   "--out", str(tmp_path / "p.svg"), "--quiet") == 2


def test_determinism_across_threads(tmp_path):
    """Two reruns with the same seed write byte-identical CSVs."""
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (out1, out2):
        assert run_cli("graph-stats", "--ns", "15", "--trials", "2", "--seed", "5",
                       "--out", out, "--quiet") == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_plot_seed_flag_rejected(tmp_path, capsys):
    data = tmp_path / "g.csv"
    data.write_text("n,w\n1,2\n2,3\n")
    out = tmp_path / "p.svg"
    with pytest.raises(SystemExit) as exc:
        run_cli("plot", "--csv", str(data), "--x", "n", "--y", "w", "--seed", "1",
                "--out", str(out), "--quiet")
    assert exc.value.code == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert [l for l in err if "error:" in l] == [
        "qgenbench: error: unrecognized arguments: --seed 1"]


def test_threads_flag_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("graph-stats", "--ns", "15", "--threads", "2",
                "--out", str(tmp_path / "g.csv"), "--quiet")
    assert exc.value.code == 2


# A features or shadows case names a circuit from gen: 3 qubits, or as many as
# N25 and N33 say.  Its manifest keeps gen's tau2, or has tau2 replaced, or
# removed (None).
FEATURES_MANIFESTS = {"CIRCUIT": {}, "NEGATIVE_TAU2": {"tau2": -1.0},
                      "TEXT_TAU2": {"tau2": "wide"}, "NO_TAU2": {"tau2": None},
                      "WIDE_TAU2": {"tau2": 0.3}, "N25": {}, "N33": {}}
# A plot case names a CSV with these contents, or a missing one (None).
PLOT_CSVS = {"MISSING": None, "NAN": "a,b\n1,2\n2,nan\n", "INF": "a,b\n1,2\n2,inf\n",
             "SHORT_ROW": "a,b\n1,2\n2\n"}


def features_circuit(tmp_path, name):
    circ = str(tmp_path / "c.json")
    n = name[1:] if name in ("N25", "N33") else "3"
    assert run_cli("gen", "--n", n, "--layers", "1", "--out", circ, "--quiet") == 0
    with open(circ + ".manifest.json") as fh:
        manifest = json.load(fh)
    manifest.update(FEATURES_MANIFESTS[name])
    manifest = {k: v for k, v in manifest.items() if v is not None}
    with open(circ + ".manifest.json", "w") as fh:
        json.dump(manifest, fh)
    return circ


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "0", "--layers", "1"],
    ["gen", "--n", "4", "--layers", "-2"],
    ["gen", "--n", "4", "--layers", "1", "--trainable-depth", "-1"],
    ["pauliprop-bench", "--ns", "33"],
    ["pauliprop-bench", "--ns", "4,0"],
    ["pauliprop-bench", "--ns", "4", "--trials", "0"],
    ["graph-stats", "--ns", "0"],
    ["graph-stats", "--ns", "20", "--trials", "0"],
    ["graph-stats", "--ns", "20", "--layers", "0"],
    ["graph-stats", "--ns", "5000"],
    ["gen", "--n", "4", "--layers", "1", "--p", "2"],
    ["gen", "--n", "4", "--layers", "1", "--p", "-0.5"],
    ["gen", "--n", "4", "--layers", "1", "--tau2", "0"],
    ["gen", "--n", "4", "--layers", "1", "--tau2", "-0.1"],
    ["gen", "--n", "1", "--layers", "1", "--tau2-preset", "theorem"],
    ["pauliprop-bench", "--ns", "4", "--p", "1.5"],
    ["pauliprop-bench", "--ns", "4", "--p", "nan"],
    ["pauliprop-bench", "--ns", "4", "--exact", "--max-terms", "0"],
    ["pauliprop-bench", "--ns", "4", "--sine-cutoff", "-1"],
    ["pauliprop-bench", "--ns", "8", "--trials", "1", "--exact", "--max-terms", "4"],
    ["pauliprop-bench", "--ns", "4", "--exact", "--sine-cutoff", "1"],
    ["pauliprop-bench", "--ns", "4", "--exact", "--sine-cutoff", "0"],
    ["graph-stats", "--ns", "20", "--p", "2"],
    ["graph-stats", "--ns", "20", "--p", "-0.5"],
    ["features", "--circuit", "CIRCUIT", "--tau2", "-1"],
    ["features", "--circuit", "CIRCUIT", "--tau2", "0"],
    ["features", "--circuit", "CIRCUIT", "--tau2", "nan"],
    ["features", "--circuit", "CIRCUIT", "--tau2", "inf"],
    ["features", "--circuit", "CIRCUIT", "--samples", "0"],
    ["features", "--circuit", "CIRCUIT", "--samples", "-3"],
    ["features", "--circuit", "NEGATIVE_TAU2"],
    ["features", "--circuit", "TEXT_TAU2"],
    ["features", "--circuit", "NO_TAU2"],
    ["shadows", "--circuit", "CIRCUIT", "--shots", "-5"],
    ["shadows", "--circuit", "CIRCUIT", "--shots", "0"],
    ["shadows", "--circuit", "N25"],
    ["features", "--circuit", "N25", "--backend", "statevector"],
    ["features", "--circuit", "N33", "--backend", "propagation"],
    ["features", "--circuit", "CIRCUIT", "--observables", "ZQZ"],
    ["gen", "--n", "4", "--layers", "1", "--tau2", "0.3"],
    ["gen", "--n", "4", "--layers", "1", "--tau2", "0.1", "--tau2-preset", "theorem"],
    ["gen", "--n", "4", "--layers", "1", "--init", "zeros"],
    ["features", "--circuit", "CIRCUIT", "--tau2", "0.3"],
    ["features", "--circuit", "WIDE_TAU2"],
    ["gen", "--n", "4", "--layers", "1", "--seed", "-1"],
    ["shadows", "--circuit", "CIRCUIT", "--seed", "-1"],
    ["plot", "--csv", "MISSING", "--x", "a", "--y", "b"],
    ["plot", "--csv", "NAN", "--x", "a", "--y", "b"],
    ["plot", "--csv", "INF", "--x", "a", "--y", "b"],
    ["plot", "--csv", "SHORT_ROW", "--x", "a", "--y", "b"],
], ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
def test_bad_sizes_exit_2_before_work(tmp_path, capsys, argv):
    if argv[0] in ("features", "shadows"):
        argv = [features_circuit(tmp_path, a) if a in FEATURES_MANIFESTS else a for a in argv]
        capsys.readouterr()
    for name, text in PLOT_CSVS.items():
        if name in argv:
            data = tmp_path / f"{name}.csv"
            if text is not None:
                data.write_text(text)
            argv = [str(data) if a == name else a for a in argv]
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out), "--quiet") == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag, field, value, argv", [
    ("--p", "p", 1.5, ["pauliprop-bench", "--ns", "4"]),
    ("--tau2", "tau2", 0.3, ["gen", "--n", "4", "--layers", "1"]),
    ("--layers", "layers", -1, ["pauliprop-bench", "--ns", "4"]),
    ("--trials", "trials", 0, ["pauliprop-bench", "--ns", "4"]),
    ("--ns", "ns", 0, ["pauliprop-bench"]),
    ("--sine-cutoff", "sine_cutoff", -1, ["pauliprop-bench", "--ns", "4"]),
], ids=["p", "tau2", "layers", "trials", "ns", "sine_cutoff"])
def test_flag_and_config_field_share_check(tmp_path, capsys, flag, field, value, argv):
    # a CLI flag and its config field reject the same value through the same check
    out = tmp_path / "out"
    assert run_cli(*argv, flag, str(value), "--out", str(out), "--quiet") == 2
    assert not out.exists()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "pauliprop", "ns": [4], "trials": 1,
                                  field: [value] if field == "ns" else value}))
    assert run_cli("experiment", "--config", str(config), "--out-dir", str(tmp_path / "o"),
                   "--quiet") == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and all(e.startswith("error: [bad-config] ") for e in errors)


def test_features_propagation_term_bound_exit_2(tmp_path, capsys, monkeypatch):
    circ = features_circuit(tmp_path, "CIRCUIT")
    out = tmp_path / "f.csv"
    monkeypatch.setattr(cli, "FEATURES_MAX_TERMS", 2)
    capsys.readouterr()
    assert run_cli("features", "--circuit", circ, "--backend", "propagation",
                   "--out", str(out), "--quiet") == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: sample 0: exact mode exceeded max_terms=2")
    assert err.count("\n") == 1


def test_features_propagation_runs_past_statevector_cap(tmp_path):
    circ = features_circuit(tmp_path, "N25")
    out = tmp_path / "f.csv"
    assert run_cli("features", "--circuit", circ, "--backend", "propagation",
                   "--samples", "1", "--observables", "Z" + "I" * 24,
                   "--out", str(out), "--quiet") == 0
    assert len(read_csv(str(out))) == 1
