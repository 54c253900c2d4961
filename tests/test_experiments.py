import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qgenbench
from qgenbench.circuits import TAU2_CONSTANT, build_trainable
from qgenbench.experiments import (DRIVERS, EXPERIMENT_IDS, READ_FIELDS, ConfigError,
                                   ExperimentConfig, default_shift_param,
                                   gradient_variance_experiment,
                                   lightcone_spread_experiment, read_csv,
                                   run_experiment, subvolume_experiment,
                                   theorem_bound, write_csv)


def cfg(**kw):
    base = dict(experiment="subvolume", ns=(4,), trials=5, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


def test_theorem_bound_values():
    assert theorem_bound(1, 2, 0.1) == pytest.approx(0.05184, abs=1e-12)
    assert theorem_bound(2, 0, 0.05) == pytest.approx(0.016384, abs=1e-12)
    with pytest.raises(ValueError):
        theorem_bound(1, 2, 0.3)


def test_config_validation():
    with pytest.raises(ConfigError) as err:
        cfg(experiment="nope")
    assert err.value.code == "unknown-experiment"
    with pytest.raises(ConfigError):
        cfg(ns=())
    with pytest.raises(ConfigError):
        cfg(trials=0)
    with pytest.raises(ConfigError):
        cfg(ns=(4,), sigma=((7, "Z"),))


def test_read_fields_table_matches_config():
    # a config field cannot land without saying which experiments read it
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    read = {name for fields in READ_FIELDS.values() for name in fields}
    assert read <= names
    assert names - {"experiment", "ns", "trials", "seed"} <= read
    assert EXPERIMENT_IDS == tuple(READ_FIELDS)
    assert set(DRIVERS) == set(EXPERIMENT_IDS)


def test_config_json_round_trip():
    c = cfg(ns=(4, 6), sigma=((0, "Z"), (1, "X")), tau2=0.1)
    back = ExperimentConfig.from_json_obj(dataclasses.asdict(c))
    assert back == c
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json_obj({"experiment": "subvolume"})
    assert "ns" in str(err.value)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json_obj({"experiment": "subvolume", "ns": [4],
                                        "bogus": 1})
    assert "bogus" in str(err.value)


def test_resolved_defaults():
    c = cfg()
    assert c.resolved_layers(8) == 2  # subvolume default
    assert cfg(experiment="lightcone").resolved_layers(8) == math.ceil(math.log(8))
    assert c.resolved_p(8) == pytest.approx(math.log(8) / 8)
    assert c.resolved_tau2(8) == pytest.approx(min(0.2499, math.log(8) / 64))
    assert cfg(tau2=0.01).resolved_tau2(8) == 0.01


def test_subvolume_rows_pass_bound():
    rows = subvolume_experiment(cfg(ns=(4, 6), trials=400))
    assert [r["n"] for r in rows] == [4, 6]
    for row in rows:
        assert row["pass"] == 1
        assert row["mean_I2"] >= row["mean_tr_sq"] - 1e-12
        assert row["mean_gap"] >= 0.0
        assert row["S"] == 1


def test_subvolume_deterministic():
    a = subvolume_experiment(cfg(trials=20))
    b = subvolume_experiment(cfg(trials=20))
    assert a == b


def test_default_shift_param():
    circ = build_trainable(6, 3, seed=0)
    param = default_shift_param(circ)
    assert 0 <= param < circ.num_params
    with pytest.raises(ValueError):
        default_shift_param(build_trainable(6, 0, seed=0))


def test_gradvar_rows_and_arms():
    c = cfg(experiment="gradvar", ns=(4, 6), trials=20, trainable_depth=1)
    rows = gradient_variance_experiment(c)
    arms = {r["arm"] for r in rows}
    assert arms == {"log_depth", "linear_depth"}
    assert len(rows) == 4
    for r in rows:
        assert r["variance"] >= 0.0
        if r["arm"] == "linear_depth":
            assert r["depth"] == r["n"]
        else:
            assert r["depth"] == 1
    slopes = {r["arm"]: r["slope_fit"] for r in rows}
    assert np.isfinite(list(slopes.values())).all()


def test_gradvar_depth_zero():
    c = cfg(experiment="gradvar", ns=(4,), trials=5, trainable_depth=0)
    rows = gradient_variance_experiment(c)
    for r in rows:
        if r["arm"] == "log_depth":
            assert r["variance"] == 0.0


def test_lightcone_rows():
    c = cfg(experiment="lightcone", ns=(20, 60), trials=20)
    rows = lightcone_spread_experiment(c)
    assert len(rows) == 2
    for r in rows:
        assert 0.0 < r["mean_frac"] <= 1.0
        assert r["min_frac"] <= r["mean_frac"]


def test_lightcone_grows_from_the_whole_subsystem():
    def mean_frac(subsystem):
        c = cfg(experiment="lightcone", ns=(10,), trials=20, seed=4, subsystem=subsystem)
        return lightcone_spread_experiment(c)[0]["mean_frac"]

    assert mean_frac((0, 7)) > mean_frac((0,))  # equal if qubit 7 were ignored


def test_write_read_csv_round_trip(tmp_path):
    rows = [{"a": 1, "b": 0.1, "c": "x"}, {"a": 2, "b": float("1e-17"), "c": ""}]
    path = str(tmp_path / "t.csv")
    write_csv(path, rows, ["a", "b", "c"])
    back = read_csv(path)
    assert back[0]["a"] == "1"
    assert float(back[1]["b"]) == 1e-17  # repr() keeps full precision
    assert back[1]["c"] == ""


def test_run_experiment_writes_artifacts(tmp_path):
    out = str(tmp_path / "out")
    paths = run_experiment(cfg(trials=10), out)
    assert os.path.exists(paths["csv"])
    with open(paths["manifest"]) as fh:
        manifest = json.load(fh)
    assert manifest["master_seed"] == 0
    assert manifest["config"]["experiment"] == "subvolume"
    assert "4" in manifest["resolved_tau2"]
    assert manifest["rows"] == 1


def test_run_experiment_byte_identical(tmp_path):
    c = cfg(experiment="treewidth", ns=(15,), trials=3)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    p1 = run_experiment(c, out1)
    p2 = run_experiment(c, out2)
    for key in ("csv", "manifest"):
        with open(p1[key], "rb") as f1, open(p2[key], "rb") as f2:
            assert f1.read() == f2.read()


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_manifests_stamp_the_package_version(tmp_path):
    # importing importlib.metadata costs every process start-up about 15 ms
    code = ("import sys, qgenbench.cli as cli, qgenbench.experiments as e\n"
            f"cli.main(['gen', '--n', '3', '--layers', '1', '--quiet', "
            f"'--out', {str(tmp_path / 'c.json')!r}])\n"
            f"e.run_experiment(e.ExperimentConfig('treewidth', (5,), trials=1), {str(tmp_path)!r})\n"
            "print('importlib.metadata' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert out.stdout.split() == ["False"]
    for manifest in ("c.json.manifest.json", "treewidth.manifest.json"):
        with open(tmp_path / manifest) as fh:
            assert json.load(fh)["version"] == f"qgenbench-{qgenbench.__version__}"


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == qgenbench.__version__


def test_run_experiment_unwritable(tmp_path):
    target = tmp_path / "file"
    target.write_text("x")
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg(trials=2), str(target / "sub"))
    assert err.value.code == "unwritable-output"


def test_pauliprop_dispatch(tmp_path):
    c = cfg(experiment="pauliprop", ns=(4,), trials=2, layers=1)
    paths = run_experiment(c, str(tmp_path))
    rows = read_csv(paths["csv"])
    assert len(rows) == 2
    assert set(rows[0]) == {"n", "trial", "policy_id", "expectation",
                            "error_vs_exact", "peak_terms", "final_terms",
                            "dropped_mass", "wall_time_s"}


def test_pauliprop_manifest_records_its_tau2(tmp_path):
    # pauliprop reads tau2 but no preset; by default its circuits use the
    # constant preset, and the manifest must say so rather than null
    base = dict(experiment="pauliprop", ns=(4, 5), trials=1, layers=1)
    rows = {}
    for name, extra in (("default", {}), ("explicit", {"tau2": TAU2_CONSTANT})):
        paths = run_experiment(cfg(**base, **extra), str(tmp_path / name))
        with open(paths["manifest"]) as fh:
            assert json.load(fh)["resolved_tau2"] == {"4": TAU2_CONSTANT, "5": TAU2_CONSTANT}
        rows[name] = [{k: v for k, v in r.items() if k != "wall_time_s"}
                      for r in read_csv(paths["csv"])]
    assert rows["default"] == rows["explicit"]
