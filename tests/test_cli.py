import json
import math
import os

import numpy as np
import pytest

from qgenbench.circuits import circuit_from_json
from qgenbench.cli import main
from qgenbench.experiments import read_csv


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


def test_experiment_command(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "lightcone", "ns": [10, 20],
                                  "trials": 5}))
    out_dir = str(tmp_path / "out")
    assert run_cli("experiment", "--config", str(config), "--out-dir", out_dir,
                   "--quiet") == 0
    rows = read_csv(os.path.join(out_dir, "lightcone.csv"))
    assert len(rows) == 2


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


@pytest.mark.parametrize("obj", [
    {"experiment": "pauliprop", "ns": [33], "trials": 1},
    {"experiment": "pauliprop", "ns": [4, 40], "trials": 1},
    {"experiment": "treewidth", "ns": [20], "p": 2.0, "trials": 1},
    {"experiment": "lightcone", "ns": [20], "tau2": 0.0, "trials": 1},
    {"experiment": "subvolume", "ns": [1, 4], "trials": 2},
    {"experiment": "lightcone", "ns": [20], "tau2_preset": "bogus", "trials": 1},
    {"experiment": "treewidth", "ns": [0, 20], "subsystem": [], "sigma": [], "trials": 1},
], ids=["pauliprop_ns_33", "pauliprop_ns_4_40", "treewidth_p_2", "lightcone_tau2_0",
        "subvolume_theorem_n_1", "lightcone_unknown_preset", "treewidth_ns_0"])
def test_experiment_rejected_config_exit_2(tmp_path, capsys, obj):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(obj))
    out_dir = tmp_path / "o"
    assert run_cli("experiment", "--config", str(config), "--out-dir", str(out_dir),
                   "--quiet") == 2
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


def test_pauliprop_bench_command(tmp_path):
    out = str(tmp_path / "bench.csv")
    assert run_cli("pauliprop-bench", "--ns", "4,6", "--trials", "2",
                   "--layers", "1", "--exact", "--out", out, "--quiet") == 0
    rows = read_csv(out)
    assert len(rows) == 4
    assert all(float(r["error_vs_exact"]) < 1e-9 for r in rows)


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


def test_threads_flag_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("graph-stats", "--ns", "15", "--threads", "2",
                "--out", str(tmp_path / "g.csv"), "--quiet")
    assert exc.value.code == 2


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
    ["gen", "--n", "4", "--layers", "1", "--p", "2"],
    ["gen", "--n", "4", "--layers", "1", "--p", "-0.5"],
    ["gen", "--n", "4", "--layers", "1", "--tau2", "0"],
    ["gen", "--n", "4", "--layers", "1", "--tau2", "-0.1"],
    ["gen", "--n", "1", "--layers", "1", "--tau2-preset", "theorem"],
    ["pauliprop-bench", "--ns", "4", "--p", "1.5"],
    ["pauliprop-bench", "--ns", "4", "--p", "nan"],
    ["graph-stats", "--ns", "20", "--p", "2"],
    ["graph-stats", "--ns", "20", "--p", "-0.5"],
], ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
def test_bad_sizes_exit_2_before_work(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out), "--quiet") == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
