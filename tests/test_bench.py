"""The helpers of ``scripts/bench.py``: the paired timing order, the LP
tables it collects, and the engine plan it takes from the benchmark
workloads."""

import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

import stokolmo

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench.py"

# a 3-species community whose boundary discovery solves one LP: the margin
# bounds of one face straddle the decision gate
STRADDLING = {"n": 3, "lv": {"a": [1.0, 2.8, -0.4],
                             "B": [[-1.1, -0.2, 0.1], [-0.9, -0.9, 0.1], [-0.3, 0.6, -1.1]],
                             "g": [1.0, 1.0, 1.0]},
              "sigma": [[1.4, 0.0, 0.0], [0.0, 0.7, 0.0], [0.0, 0.0, 0.8]]}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # the script prepends its paths
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_rounds_flip_the_first_package_by_name_and_round(bench):
    calls = []
    seconds, results = bench.paired_rounds(
        ["this", "other"], ["x", "y"], 2,
        lambda pkg, k, name: calls.append((pkg, name)) or (k, name))
    assert calls == [("this", "x"), ("other", "x"), ("other", "y"), ("this", "y"),
                     ("other", "x"), ("this", "x"), ("this", "y"), ("other", "y")]
    assert seconds.shape == (2, 2, 2)
    assert results == {(k, name): (k, name) for k in (0, 1) for name in ("x", "y")}


def test_collect_tables_keeps_every_table_solve_maximin_receives(bench, monkeypatch):
    received = []
    solve = importlib.import_module("stokolmo.simplex").solve_maximin

    def recorded(rates):
        received.append(np.array(rates, dtype=float))
        return solve(rates)

    for module in ("stokolmo.measures", "stokolmo.classify"):
        monkeypatch.setattr(importlib.import_module(module), "solve_maximin", recorded)
    tables = bench.collect_tables([STRADDLING])
    assert len(tables) == len(received) == 3
    assert all(t.shape == r.shape and t.tobytes() == r.tobytes()
               for t, r in zip(tables, received))
    _, discoveries = bench.traced_classify(
        stokolmo, stokolmo.parse_model(json.dumps(STRADDLING)))
    assert [inside for _, inside in discoveries] == [1]


def test_engine_plan_is_the_first_seed_of_each_verify_workload_model(bench):
    from workloads import VERIFY_PLAN
    assert bench.ENGINE_PLAN == tuple((name, horizon, seeds[0])
                                      for name, horizon, seeds in VERIFY_PLAN)
