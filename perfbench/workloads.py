"""The three workloads: inputs made from a seed, the timed operations, their checks.

Every workload is a fixed list of operations.  An operation is one call
into the program, through ``stokolmo.cli.main`` in-process or through
the documented library entry points, always looked up by module
attribute at call time so a traced run sees it.  The benchmark seed
picks the inputs; the same seed always gives the same inputs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import stokolmo
import stokolmo.cli

import checks
import oracle


@dataclass
class Op:
    name: str
    run: Callable[[], Any]             # the timed call into the program
    collect: Callable[[Any], Any]      # untimed: the call's result as checkable output
    check: Callable[[Any], list]       # problems with that output; empty when right
    known_fault: str = ""              # why the op fails today, for the kept faults


@dataclass
class Workload:
    ops: list
    warmup: Callable[[], Any]


def run_cli(argv: list[str]) -> dict:
    """`stokolmo <argv>` in this process; an exception escaping main is recorded."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = stokolmo.cli.main(argv)
    except Exception as exc:   # an escaping traceback is one of the faults measured
        return {"rc": None, "exception": f"{type(exc).__name__}: {str(exc)[:200]}",
                "stderr": err.getvalue()}
    return {"rc": rc, "stderr": err.getvalue()}


# Outputs are kept as text until the checks run: one object per output
# adds nothing to the garbage collector's work in later passes, which a
# parsed 700 kB report would.

def _read_report(path: str, res: dict) -> dict:
    """Attach the report text written to ``path`` and remove the file, so no pass sees a stale one."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            res["report"] = fh.read()
        os.remove(path)
    return res


def _parsed(res: dict) -> dict:
    return {**res, "doc": json.loads(res["report"])} if "report" in res else res


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def lv_doc(a, B, s) -> dict:
    """LV model document with g = 1 and diagonal noise covariance s."""
    return {"n": len(a), "lv": {"a": [float(v) for v in a],
                                "B": [[float(v) for v in row] for row in B],
                                "g": [1.0] * len(a)},
            "sigma": np.diag(np.asarray(s, float)).tolist()}


def general_doc(a, B) -> dict:
    """The LV system f = a + B x, g = 1, sigma = I written as expression strings."""
    fs = []
    for ai, row in zip(a, B):
        terms = [repr(float(ai))]
        terms += [f"{'-' if c < 0 else '+'} {abs(float(c))!r}*x{j + 1}"
                  for j, c in enumerate(row) if c != 0.0]
        fs.append(" ".join(terms))
    n = len(a)
    return {"n": n, "general": {"f": fs, "g": ["1"] * n}, "sigma": np.eye(n).tolist()}


# ---------------------------------------------------------------------------
# verify_ensemble

VERIFY_PATHS = 128
# model, horizon T, and the two verify seeds it was checked to pass at.
# Horizons are chosen so the operations cost about the same, which keeps
# the median operation time from resting on one or two of them.
VERIFY_PLAN = (
    ("logistic", 60.0, (0, 1)),
    ("lv_coexist", 40.0, (1, 3)),
    ("predprey", 40.0, (0, 1)),
    ("holling2d", 60.0, (0, 1)),
    ("lv_single_extinct", 40.0, (0, 1)),
    ("lv_bistable", 40.0, (0, 1)),
    ("two_pred_one_prey", 30.0, (0, 1)),
    ("coop_blowup", 30.0, (0, 1)),
)


def verify_expectation(name: str, doc: dict) -> dict:
    """Verdict kind and the closed-form numbers its evidence must match."""
    if name == "holling2d":
        rates = oracle.holling2d_rates()
        t, _ = oracle.maximin(np.array(list(rates.values())))
        return {"kind": "Persistent" if t > oracle.TOL else "Extinction", "moments": None}
    lv = oracle.LVSystem.from_doc(doc)
    if oracle.lv_blows_up(lv):
        return {"kind": "BlowUpRisk"}
    if lv.n == 1:
        sigma = lv.sigma[0, 0] * lv.g[0] ** 2
        return {"kind": "Persistent",
                "moments": [oracle.logistic_mean(lv.a[0], -lv.B[0, 0], sigma)]}
    lat = oracle.lv_lattice(lv)
    if lat.kind == "Persistent":
        return {"kind": "Persistent", "moments": lv.face_moments(tuple(range(lv.n)))}
    return {"kind": lat.kind, "rates": {k: lat.rates[k] for k in lat.sinks}}


def verify_ensemble(root: str, work: str, seed: int) -> Workload:
    ops = []
    for name, horizon, seeds in VERIFY_PLAN:
        model = os.path.join(root, "models", f"{name}.json")
        out = os.path.join(work, f"{name}.report.json")
        argv = ["verify", model, "--t", repr(horizon), "--paths", str(VERIFY_PATHS),
                "--seed", str(seeds[seed % 2]), "--out", out]
        with open(model, encoding="utf-8") as fh:
            expect = functools.cache(functools.partial(verify_expectation, name, json.load(fh)))
        ops.append(Op(name, functools.partial(run_cli, argv),
                      functools.partial(_read_report, out),
                      lambda res, expect=expect: checks.check_verify(_parsed(res), expect())))
    warm = os.path.join(work, "warmup.report.json")
    warm_argv = ["verify", os.path.join(root, "models", "logistic.json"),
                 "--t", "2", "--paths", "64", "--out", warm]
    return Workload(ops, functools.partial(run_cli, warm_argv))


# ---------------------------------------------------------------------------
# lattice_screen

LATTICE_SIZES = range(3, 11)
# Eight more 4-species communities put ten operations of 13-17 ms around
# the median, so job_s_p50 rests on many samples, not on one or two
# short operations, each of which varies by 20 % from call to call here.
SMALL_COMMUNITIES = 4
# the smallest |value| a generated community may put under a sign decision
SEPARATION = 0.02


def competitive_community(rng: np.random.Generator, n: int) -> dict:
    """Weak random competition, so every face carries a measure.

    r0 = a - s/2 >= 1.4 and off-diagonal competition below 0.3/n keep
    every face equilibrium above 0.3 and every invasion rate above 0.38
    (each rate loses at most 0.3/n times the sum of at most n face
    moments, each at most 2.7/0.8), so the table is well clear of zero.
    """
    a = rng.uniform(2.0, 3.0, n)
    s = rng.uniform(0.6, 1.2, n)
    B = -rng.uniform(0.0, 0.3 / n, (n, n))
    np.fill_diagonal(B, -rng.uniform(0.8, 1.2, n))
    return lv_doc(a, B, s)


def food_chain(rng: np.random.Generator, n: int) -> dict:
    """Prey, then n - 1 predator levels each eating the one below.

    Only chain prefixes can carry a measure, so most faces carry none.
    Draws are repeated until every rate and moment of the prefix
    measures is at least SEPARATION away from zero.  Each predator
    gains less than its prey loses, so unit weights bound the dynamics.
    """
    while True:
        a = np.concatenate([[rng.uniform(3.0, 5.0)], -rng.uniform(0.2, 0.8, n - 1)])
        s = rng.uniform(0.6, 1.2, n)
        B = np.diag(-rng.uniform(0.3, 0.8, n))
        B[0, 0] = -rng.uniform(0.8, 1.2)
        for k in range(1, n):
            loss = rng.uniform(0.8, 1.2)
            B[k - 1, k] = -loss
            B[k, k - 1] = loss * rng.uniform(0.5, 0.95)
        doc = lv_doc(a, B, s)
        if _chain_separation(oracle.LVSystem.from_doc(doc)) >= SEPARATION:
            return doc


def _chain_separation(lv: oracle.LVSystem) -> float:
    vals = [abs(v) for v in lv.r0]
    for depth in range(1, lv.n + 1):
        face = tuple(range(depth))
        m = lv.face_moments(face)
        r = lv.rates(m)
        vals += [m[i] for i in face] + [abs(r[i]) for i in range(depth, lv.n)]
        if depth == lv.n or r[depth] < 0.0:
            break
    return min(vals)


# the three operations kept although they fail today; see README.md
KNOWN_FAULTS = (
    ("weight_floor",
     {"n": 2, "lv": {"a": [1.5, 1.0], "B": [[-1, 0], [-0.5004, -1]], "g": [1, 1]},
      "sigma": [[1, 0], [0, 1]]},
     "solve_maximin keeps every weight >= 1e-6, so t* = -4e-10 falls inside "
     "decision_tol and the verdict is Inconclusive instead of Extinction"),
    ("deep_parentheses",
     {"n": 1, "general": {"f": ["(" * 3000 + "1" + ")" * 3000], "g": ["1"]},
      "sigma": [[1]]},
     "the recursive-descent parser raises RecursionError, which escapes cli.main"),
    ("long_unary_minus",
     {"n": 1, "general": {"f": ["2 - " + "-" * 4999 + "x1"], "g": ["1"]},
      "sigma": [[1]]},
     "the recursive-descent parser raises RecursionError, which escapes cli.main"),
)


def lattice_inputs(seed: int) -> list[tuple[str, dict]]:
    rng = np.random.default_rng(seed)
    models = [(f"competitive_{n}", competitive_community(rng, n)) for n in LATTICE_SIZES]
    models += [(f"chain_{n}", food_chain(rng, n)) for n in LATTICE_SIZES]
    models += [(f"small_competitive_{k}", competitive_community(rng, 4))
               for k in range(SMALL_COMMUNITIES)]
    models += [(f"small_chain_{k}", food_chain(rng, 4)) for k in range(SMALL_COMMUNITIES)]
    return models


def lattice_screen(root: str, work: str, seed: int) -> Workload:
    ops = []
    faults = {name: (doc, why) for name, doc, why in KNOWN_FAULTS}
    inputs = lattice_inputs(seed) + [(name, doc) for name, (doc, _) in faults.items()]
    for name, doc in inputs:
        path = _write_json(os.path.join(work, f"{name}.json"), doc)
        out = os.path.join(work, f"{name}.report.json")
        if "lv" in doc:
            lat = functools.cache(functools.partial(
                oracle.lv_lattice, oracle.LVSystem.from_doc(doc)))
            check = lambda res, lat=lat: checks.check_classify(_parsed(res), lat())
        else:
            check = checks.check_cli_error
        ops.append(Op(name, functools.partial(run_cli, ["classify", path, "--out", out]),
                      functools.partial(_read_report, out), check,
                      known_fault=faults.get(name, (None, ""))[1]))
    return Workload(ops, lambda: ops[0].collect(ops[0].run()))


# ---------------------------------------------------------------------------
# face_mc

FACE_SIM = dict(n_paths=4, t_max=100.0, dt=1e-2, burn_in=10.0)
# name, LV coefficients (g = 1, sigma = I), face-simulation seeds checked to
# classify cleanly.  The models have 3, 2 and 1 Monte Carlo faces, so their
# costs sit apart and the median operation is always two_predators3.
FACE_MC_PLAN = (
    ("competitive3", [3.0, 3.0, 3.0],
     [[-2.0, -0.5, -0.5], [-0.5, -2.0, -0.5], [-0.5, -0.5, -2.0]], (0, 1, 2, 4)),
    ("two_predators3", [4.0, -0.5, -0.5],
     [[-1.0, -1.0, -1.0], [1.5, -1.0, 0.0], [1.5, 0.0, -1.0]], (0, 1, 2, 4)),
    ("mutualist3", [3.0, -0.5, 1.0],
     [[-1.0, -1.0, -1.0], [1.5, -1.0, 0.0], [-0.3, 1.5, -1.0]], (0, 1, 2, 4)),
)


def classify_file(path: str, budget) -> Any:
    return stokolmo.classify(stokolmo.load_model(path), budget)


def face_mc(root: str, work: str, seed: int) -> Workload:
    ops = []
    for name, a, B, seeds in FACE_MC_PLAN:
        path = _write_json(os.path.join(work, f"{name}.json"), general_doc(a, B))
        budget = stokolmo.AnalysisBudget(face_sim=stokolmo.SimConfig(
            **FACE_SIM, seed=seeds[seed % len(seeds)]))
        lat = functools.cache(functools.partial(
            oracle.lv_lattice, oracle.LVSystem(np.array(a), np.array(B), np.ones(3), np.eye(3))))
        ops.append(Op(name, functools.partial(classify_file, path, budget),
                      lambda verdict: json.dumps(verdict.to_json_dict(), default=float),
                      lambda text, lat=lat: checks.check_face_mc(json.loads(text), lat())))
    warm = stokolmo.AnalysisBudget(face_sim=stokolmo.SimConfig(
        n_paths=4, t_max=6.0, dt=1e-2, burn_in=1.0))
    first = os.path.join(work, f"{FACE_MC_PLAN[0][0]}.json")
    return Workload(ops, functools.partial(classify_file, first, warm))


WORKLOADS = {
    "verify_ensemble": verify_ensemble,
    "lattice_screen": lattice_screen,
    "face_mc": face_mc,
}
