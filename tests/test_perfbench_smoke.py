"""Smoke test of the benchmark in perfbench/: its workloads still run on the package.

The benchmark's workloads call the package's public API directly, so an API
change that breaks them shows up here rather than in a benchmark run.  The
directory is only read: no bytecode cache is written there.
"""

import json
import os
import sys

import pytest

from qgenbench.seeding import derive_seed
from qgenbench.statevector import run
from shadows_reference import reference_collect

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

sys.path.insert(0, PERFBENCH)
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    from tracing import NULL_TRACER
    from workloads import GOLDEN_PATH, WORKLOADS
finally:
    sys.dont_write_bytecode = _dont_write
    sys.path.remove(PERFBENCH)

# The recorded pauliprop units and their seed, so that their comparison runs too.
with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)
GOLDEN_SEED = GOLDEN["seed"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_parity(name):
    assert WORKLOADS[name].parity(GOLDEN_SEED) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_round_passes_check(name):
    workload = WORKLOADS[name]
    for cfg in workload.configs:
        out = workload.unit(NULL_TRACER, GOLDEN_SEED, cfg, 0)
        assert workload.check(GOLDEN_SEED, cfg, 0, out) == [], cfg
        assert workload.counts(out)


@pytest.mark.parametrize("unit", GOLDEN["units"], ids=lambda u: f"n{u['n']}-trial{u['trial']}")
def test_golden_pauliprop_unit_replays(unit):
    # every recorded unit, not only round 0, through the workload's policy
    out = WORKLOADS["pauliprop"].unit(NULL_TRACER, GOLDEN_SEED, (unit["n"],), unit["trial"])
    for key in ("expectation", "dropped_mass"):
        assert abs(getattr(out["report"], key) - unit[key]) <= 1e-9, key


@pytest.mark.parametrize("unit", GOLDEN["units"], ids=lambda u: f"n{u['n']}-trial{u['trial']}")
def test_golden_pauliprop_unit_replays_bitwise(unit):
    # the recorded floats round-trip through JSON, so the replay must equal them
    out = WORKLOADS["pauliprop"].unit(NULL_TRACER, GOLDEN_SEED, (unit["n"],), unit["trial"])
    for key in ("expectation", "dropped_mass"):
        assert getattr(out["report"], key) == unit[key], key


def test_shadows_round0_matches_reference_sampler():
    # the benchmark's shots, replayed through the former CDF sampler
    workload = WORKLOADS["shadows"]
    for cfg in workload.configs:
        out = workload.unit(NULL_TRACER, GOLDEN_SEED, cfg, 0)
        (n,) = cfg
        shadows = out["shadows"]
        bases, outcomes = reference_collect(run(out["circuit"]), len(shadows),
                                            derive_seed(GOLDEN_SEED, n, 0, 1))
        assert shadows.bases.tobytes() == bases.tobytes(), cfg
        assert shadows.outcomes.tobytes() == outcomes.tobytes(), cfg
