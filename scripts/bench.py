#!/usr/bin/env python3
"""LP layer benchmark: microseconds per maximin table, by table shape.

Run from the repository root:

    python3 scripts/bench.py --label lp                 # writes BENCH_lp.json
    python3 scripts/bench.py --label lp --against ../other-checkout

It classifies seeded competitive and food-chain Lotka-Volterra
communities of 3-10 species and keeps every table handed to
``solve_maximin`` (the script wraps ``measures.solve_maximin`` and
``classify.solve_maximin``; the library itself is untouched).  Then it
times each kept table alone, takes the fastest of REPEATS solves, and
reports per (rows, species) shape the median over that shape's tables
(at most MAX_TIMED of them, spread evenly), with the machine it ran on.

Timings taken in separate runs drift with the host's speed.  --against
CHECKOUT loads that checkout's ``src/stokolmo/simplex.py`` beside this
one and times both on every table back to back, in alternating order,
so each shape also gets that solver's median and the median over its
tables of the per-table time ratio.
"""

import argparse
import collections
import importlib.util
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import stokolmo  # noqa: E402

# the package exports a function named classify, so fetch the modules
classify_mod = importlib.import_module("stokolmo.classify")
measures = importlib.import_module("stokolmo.measures")

SIZES = range(3, 11)
SEEDS = (1, 2)
REPEATS = 9         # solves per table; the fastest counts
MAX_TIMED = 60


def lv_doc(a, B, s) -> dict:
    return {"n": len(a), "lv": {"a": list(map(float, a)), "B": B.tolist(),
                                "g": [1.0] * len(a)},
            "sigma": np.diag(s).tolist()}


def competitive(rng, n) -> dict:
    """Weak competition: every face carries a measure, tables of 2^n - 1 rows."""
    a = rng.uniform(2.0, 3.0, n)
    s = rng.uniform(0.6, 1.2, n)
    B = -rng.uniform(0.0, 0.3 / n, (n, n))
    np.fill_diagonal(B, -rng.uniform(0.8, 1.2, n))
    return lv_doc(a, B, s)


def food_chain(rng, n) -> dict:
    """A prey under n - 1 predator levels: few faces carry a measure."""
    a = np.concatenate([[rng.uniform(3.0, 5.0)], -rng.uniform(0.2, 0.8, n - 1)])
    s = rng.uniform(0.6, 1.2, n)
    B = np.diag(-rng.uniform(0.3, 0.8, n))
    B[0, 0] = -rng.uniform(0.8, 1.2)
    for k in range(1, n):
        loss = rng.uniform(0.8, 1.2)
        B[k - 1, k] = -loss
        B[k, k - 1] = loss * rng.uniform(0.5, 0.95)
    return lv_doc(a, B, s)


def collect_tables(seeds) -> list:
    tables = []
    solve = measures.solve_maximin

    def keep(rates, *args, **kwargs):
        tables.append(np.array(rates, dtype=float))
        return solve(rates, *args, **kwargs)

    measures.solve_maximin = classify_mod.solve_maximin = keep
    try:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            docs = [make(rng, n) for make in (competitive, food_chain) for n in SIZES]
            for doc in docs:
                stokolmo.classify(stokolmo.parse_model(json.dumps(doc)), stokolmo.AnalysisBudget())
    finally:
        measures.solve_maximin = classify_mod.solve_maximin = solve
    return tables


def time_shapes(tables, solvers: list) -> dict:
    """Per shape and solver, the median over the shape's tables of the
    fastest solve.  Every round times every table once with each solver,
    so a slow spell of the machine cannot land on one shape or solver."""
    by_shape = collections.defaultdict(list)
    for t in tables:
        by_shape[t.shape].append(t)
    timed = [(shape, t) for shape, group in sorted(by_shape.items())
             for t in group[::max(1, len(group) // MAX_TIMED)][:MAX_TIMED]]
    best = np.full((len(solvers), len(timed)), np.inf)
    order = list(range(len(solvers)))
    for _ in range(REPEATS):
        order.reverse()
        for i, (_, t) in enumerate(timed):
            for s in order:
                t0 = time.perf_counter()
                solvers[s](t)
                best[s, i] = min(best[s, i], time.perf_counter() - t0)
    out = {}
    for shape in sorted(by_shape):
        cols = [i for i, (sh, _) in enumerate(timed) if sh == shape]
        med = [round(1e6 * float(np.median(best[s, cols])), 1) for s in range(len(solvers))]
        row = {"calls": len(by_shape[shape]), "timed": len(cols), "median_us": med[0]}
        if len(solvers) > 1:      # the ratio is paired: the median of per-table ratios
            row["against_median_us"] = med[1]
            row["ratio"] = round(float(np.median(best[0, cols] / best[1, cols])), 3)
        out["%dx%d" % shape] = row
    return out


def git_rev(root) -> str | None:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def load_simplex(checkout: pathlib.Path):
    path = checkout / "src" / "stokolmo" / "simplex.py"
    spec = importlib.util.spec_from_file_location("against_simplex", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.solve_maximin


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--against", help="another checkout whose solver is timed alongside")
    args = ap.parse_args()

    tables = collect_tables(SEEDS)
    solvers = [measures.solve_maximin]
    if args.against:
        solvers.append(load_simplex(pathlib.Path(args.against)))
    shapes = time_shapes(tables, solvers)
    est = sum(v["calls"] * v["median_us"] for v in shapes.values()) * 1e-6
    doc = {"label": args.label,
           "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                       "python": platform.python_version(), "numpy": np.__version__},
           "git": git_rev(ROOT), "seeds": list(SEEDS), "repeats": REPEATS,
           "lp_calls": len(tables), "lp_s_estimate": round(est, 3), "shapes": shapes}
    if args.against:
        doc["against_git"] = git_rev(args.against)
        doc["against_lp_s_estimate"] = round(1e-6 * sum(
            v["calls"] * v["against_median_us"] for v in shapes.values()), 3)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{path.name}: {len(tables)} tables, {len(shapes)} shapes, "
          f"estimated LP time {est:.2f} s")
    for key, v in shapes.items():
        print(f"{key:>8} {v['median_us']:>11.1f}"
              + (f" {v['against_median_us']:>11.1f} {v['ratio']:6.2f}" if args.against else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
