#!/usr/bin/env python3
"""Layer benchmarks: the maximin LP by table shape, classify by model, or
the engine by model.

Run from the repository root:

    python3 scripts/bench.py --label lp                 # writes BENCH_lp.json
    python3 scripts/bench.py --label lp --against ../other-checkout
    python3 scripts/bench.py --section classify --label classify --against ../other
    python3 scripts/bench.py --section engine --label engine --against ../other
    python3 scripts/bench.py --section verify --label verify --against ../other
    python3 scripts/bench.py --section faces --label faces --against ../other

--section lp (the default) classifies seeded competitive and food-chain
Lotka-Volterra communities of 3-10 species and keeps the block of every
face discovery examines (rebuilt from the final table: a face's rows are
the measures on its proper subfaces, all found before it), whether or
not discovery solved an LP there, and every table the verdict tests hand
to ``solve_maximin`` after discovery (the script wraps
``measures.solve_maximin``, ``classify.solve_maximin`` and
``classify.discover_boundary``; the library itself is untouched).  Then
it times each kept table alone, takes the fastest of REPEATS solves, and
reports per (rows, species) shape the median over that shape's tables
(at most MAX_TIMED of them, spread evenly), with the machine it ran on.

--section classify times ``classify`` on each of those communities and
on the 12-species competitive community from ``default_rng(0)``,
CLASSIFY_ROUNDS times, and reports the median time per model with its LP
calls, the faces discovery examined and how many of them it decided
without an LP.

--section engine times ``simulate_ensemble`` on each model of the
``verify_ensemble`` benchmark workload at 128 paths, with the horizon,
burn-in and seed ``stokolmo verify`` uses there, ENGINE_ROUNDS times,
and reports the median time as million path-steps per second (path-steps
count each path up to its halt).

--section verify times ``classify`` plus ``verify_verdict`` on each
model ``scripts/run_examples.py`` runs, at its quick budget (64 paths,
T = 240) with the burn-in ``stokolmo verify`` takes, min(50, T / 10),
and seed 0, VERIFY_ROUNDS times, and reports the median time per model
with the verdict kind and verification status (an Inconclusive verdict
is classified only).

--section faces times ``classify`` on the three 3-species Lotka-Volterra
communities written as expressions that the ``face_mc`` benchmark
workload classifies, at its Monte Carlo face budget (4 paths, T = 100,
dt = 1e-2, burn-in 10) and face seed 0, FACES_ROUNDS times, and reports
the median time per model with its count of Monte Carlo faces.

Timings taken in separate runs drift with the host's speed.  --against
CHECKOUT loads that checkout's package beside this one and times both
on every table or model back to back, in alternating order.  An LP shape
also gets that solver's median and the median over its tables of the
per-table time ratio; a classify, engine, verify or faces model gets the
other time, the median over rounds of the time ratio (this checkout over
the other) and whether both gave the same verdict document, the same bits
in every array of the ensemble statistics and the same path errors, or
the same canonical JSON of the verdict (and verification) documents.
"""

import argparse
import collections
import importlib.util
import itertools
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

measures = importlib.import_module("stokolmo.measures")

SIZES = range(3, 11)
SEEDS = (1, 2)
REPEATS = 9         # solves per table; the fastest counts
MAX_TIMED = 60
CLASSIFY_ROUNDS = 8  # classify calls per model and checkout; the median counts

ENGINE_PATHS = 128
ENGINE_DT = 1e-3
ENGINE_ROUNDS = 5   # ensembles per model and checkout; the median counts
# model, horizon T and verify seed, as the verify_ensemble workload runs them
ENGINE_PLAN = (
    ("logistic", 60.0, 0),
    ("lv_coexist", 40.0, 1),
    ("predprey", 40.0, 0),
    ("holling2d", 60.0, 0),
    ("lv_single_extinct", 40.0, 0),
    ("lv_bistable", 40.0, 0),
    ("two_pred_one_prey", 30.0, 0),
    ("coop_blowup", 30.0, 0),
)

VERIFY_PATHS = 64
VERIFY_T = 240.0
VERIFY_ROUNDS = 5   # classify + verify runs per model and checkout; the median counts

FACES_ROUNDS = 8    # classify runs per model and checkout; the median counts
FACES_SEED = 0


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


def communities(seeds) -> list:
    """(label, model document) of every seeded community, in a fixed order."""
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        out += [(f"{make.__name__}_{n}_seed{seed}", make(rng, n))
                for make in (competitive, food_chain) for n in SIZES]
    return out


def twelve_species() -> dict:
    """The 12-species competitive community from ``default_rng(0)``."""
    rng = np.random.default_rng(0)
    a = rng.uniform(1.0, 2.0, 12)
    B = -rng.uniform(0.0, 1.0 / 12.0, (12, 12))
    np.fill_diagonal(B, -1.0)
    return lv_doc(a, B, np.ones(12))


def face_blocks(disc) -> list:
    """The pinned rate block of every face discovery examined, in order.
    Faces above an unresolved face are skipped unexamined, and a block with
    an entry of unknown sign is never solved; neither is kept."""
    table = disc.table
    n = table.n_species
    bad = np.array([measures.face_mask(face) for face, _ in disc.unresolved], dtype=np.int64)
    blocks = []
    for size in range(1, n):
        for face in itertools.combinations(range(n), size):
            if measures.proper_subsets(bad, measures.face_mask(face)).size:
                continue
            rates, _, unknown = table.lp_view(table.rows_below(face), face)
            if unknown is None:
                blocks.append(rates)
    return blocks


def wrap_lps(pkg, on_table, on_discovery):
    """Route ``pkg``'s LP calls through ``on_table(rates, discovering)`` and
    each discovery result through ``on_discovery(disc, lps_inside)``;
    returns the function that undoes it."""
    meas = importlib.import_module(pkg.__name__ + ".measures")
    cls = importlib.import_module(pkg.__name__ + ".classify")
    solve, discover = meas.solve_maximin, cls.discover_boundary
    state = {"calls": 0, "discovering": False}

    def counted(rates):
        state["calls"] += 1
        on_table(rates, state["discovering"])
        return solve(rates)

    def discover_counted(*args, **kwargs):
        before = state["calls"]
        state["discovering"] = True
        try:
            disc = discover(*args, **kwargs)
        finally:
            state["discovering"] = False
        on_discovery(disc, state["calls"] - before)
        return disc

    meas.solve_maximin = cls.solve_maximin = counted
    cls.discover_boundary = discover_counted

    def undo():
        meas.solve_maximin = cls.solve_maximin = solve
        cls.discover_boundary = discover
    return undo


def collect_tables(seeds) -> list:
    tables = []

    def keep(rates, discovering):
        if not discovering:     # discovery's tables are kept as face blocks
            tables.append(np.array(rates, dtype=float))

    undo = wrap_lps(stokolmo, keep, lambda disc, _: tables.extend(face_blocks(disc)))
    try:
        for _, doc in communities(seeds):
            stokolmo.classify(stokolmo.parse_model(json.dumps(doc)), stokolmo.AnalysisBudget())
    finally:
        undo()
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


def load_package(checkout: pathlib.Path):
    """Import another checkout's ``src/stokolmo`` as package ``against_stokolmo``."""
    init = checkout / "src" / "stokolmo" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        "against_stokolmo", init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def lp_section(against) -> dict:
    tables = collect_tables(SEEDS)
    solvers = [measures.solve_maximin]
    if against:
        load_package(pathlib.Path(against))
        solvers.append(importlib.import_module("against_stokolmo.simplex").solve_maximin)
    shapes = time_shapes(tables, solvers)
    est = sum(v["calls"] * v["median_us"] for v in shapes.values()) * 1e-6
    doc = {"seeds": list(SEEDS), "repeats": REPEATS,
           "lp_calls": len(tables), "lp_s_estimate": round(est, 3), "shapes": shapes}
    if against:
        doc["against_lp_s_estimate"] = round(1e-6 * sum(
            v["calls"] * v["against_median_us"] for v in shapes.values()), 3)
    print(f"{len(tables)} tables, {len(shapes)} shapes, estimated LP time {est:.2f} s")
    for key, v in shapes.items():
        print(f"{key:>8} {v['median_us']:>11.1f}"
              + (f" {v['against_median_us']:>11.1f} {v['ratio']:6.2f}" if against else ""))
    return doc


def paired_rounds(packages, names, rounds, run):
    """Time ``run(pkg, k, name)`` for package ``k`` and every name, once per
    package in each of ``rounds`` rounds.  Which package goes first flips
    from name to name and from round to round.  Returns the seconds, shaped
    (package, name, round), and each (k, name)'s last result."""
    seconds = np.zeros((len(packages), len(names), rounds))
    results = {}
    order = list(range(len(packages)))
    for r in range(rounds):
        for m, name in enumerate(names):
            for k in (order if (r + m) % 2 == 0 else order[::-1]):
                t0 = time.perf_counter()
                results[k, name] = run(packages[k], k, name)
                seconds[k, m, r] = time.perf_counter() - t0
    return seconds, results


def lp_counts(pkg, model) -> dict:
    """LP calls of one classify, faces discovery examined, and how many of
    those it decided without an LP."""
    found = {}

    def on_discovery(disc, lps_inside):
        found["faces"] = len(face_blocks(disc))
        found["faces_by_bound"] = found["faces"] - lps_inside

    calls = []
    undo = wrap_lps(pkg, lambda rates, _: calls.append(rates.shape), on_discovery)
    try:
        pkg.classify(model, pkg.AnalysisBudget())
    finally:
        undo()
    return {"lp_calls": len(calls), **found}


def classify_section(against) -> dict:
    """Median ``classify`` time per model (rounds as in :func:`paired_rounds`)."""
    packages = [stokolmo] + ([load_package(pathlib.Path(against))] if against else [])
    plan = communities(SEEDS) + [("competitive_12", twelve_species())]
    models = {(k, name): pkg.parse_model(json.dumps(doc))
              for k, pkg in enumerate(packages) for name, doc in plan}
    seconds, results = paired_rounds(
        packages, [name for name, _ in plan], CLASSIFY_ROUNDS,
        lambda pkg, k, name: pkg.classify(models[k, name], pkg.AnalysisBudget()))
    verdicts = {key: json.dumps(v.to_json_dict(), default=float) for key, v in results.items()}
    out = {}
    for m, (name, _) in enumerate(plan):
        med = [float(np.median(seconds[k, m])) for k in range(len(packages))]
        row = {"median_s": round(med[0], 4), **lp_counts(stokolmo, models[0, name])}
        if against:
            row["against_median_s"] = round(med[1], 4)
            row["ratio"] = round(float(np.median(seconds[0, m] / seconds[1, m])), 3)
            row["against"] = lp_counts(packages[1], models[1, name])
            row["same_verdict"] = verdicts[0, name] == verdicts[1, name]
        out[name] = row
        print(f"{name:>24} {row['median_s']:>8.3f} lp {row['lp_calls']:>5}"
              f" bound {row['faces_by_bound']:>4}/{row['faces']:<4}"
              + (f" {row['against_median_s']:>8.3f} lp {row['against']['lp_calls']:>5}"
                 f" {row['ratio']:6.2f}"
                 f" {'same verdict' if row['same_verdict'] else 'VERDICT DIFFERS'}"
                 if against else ""))
    totals = {"median_s": round(sum(v["median_s"] for v in out.values()), 3),
              "lp_calls": sum(v["lp_calls"] for v in out.values()),
              "faces": sum(v["faces"] for v in out.values()),
              "faces_by_bound": sum(v["faces_by_bound"] for v in out.values())}
    if against:
        totals["against_median_s"] = round(sum(v["against_median_s"] for v in out.values()), 3)
        totals["against_lp_calls"] = sum(v["against"]["lp_calls"] for v in out.values())
    return {"seeds": list(SEEDS), "rounds": CLASSIFY_ROUNDS, "totals": totals, "models": out}


def ensemble_arrays(stats) -> list:
    """Every array of an ``EnsembleStats``, in a fixed order."""
    return [stats.y_end, stats.t_end, stats.y_burn, stats.blowup_time,
            stats.extinct_time, stats.exponents, stats.histogram.masses,
            *(w.masses for w in stats.window_histograms),
            stats.mean_state, stats.path_mean_state]


def same_bits(a, b) -> bool:
    """Whether two ensembles hold the same bits in every array and the same
    path errors."""
    xs, ys = ensemble_arrays(a), ensemble_arrays(b)
    return (len(xs) == len(ys) and a.path_errors == b.path_errors
            and all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(xs, ys)))


def engine_section(against) -> dict:
    """Median Mpath-steps/s of ``simulate_ensemble`` per model (rounds as
    in :func:`paired_rounds`)."""
    packages = [stokolmo] + ([load_package(pathlib.Path(against))] if against else [])
    models, cfgs = {}, {}
    for k, pkg in enumerate(packages):
        for name, horizon, seed in ENGINE_PLAN:
            models[k, name] = pkg.load_model(str(ROOT / "models" / f"{name}.json"))
            cfgs[k, name] = pkg.SimConfig(dt=ENGINE_DT, t_max=horizon, n_paths=ENGINE_PATHS,
                                          burn_in=min(50.0, 0.1 * horizon), seed=seed)
    seconds, results = paired_rounds(
        packages, [name for name, _, _ in ENGINE_PLAN], ENGINE_ROUNDS,
        lambda pkg, k, name: pkg.simulate_ensemble(models[k, name],
                                                   np.ones(models[k, name].n), cfgs[k, name]))
    out = {}
    for m, (name, horizon, seed) in enumerate(ENGINE_PLAN):
        stats = results[0, name]
        steps = int(np.rint(stats.t_end / ENGINE_DT).sum())
        med = [float(np.median(seconds[k, m])) for k in range(len(packages))]
        row = {"t_max": horizon, "seed": seed, "path_steps": steps,
               "median_s": round(med[0], 4), "msteps_per_s": round(steps / med[0] * 1e-6, 3)}
        if against:
            other = results[1, name]
            row["against_median_s"] = round(med[1], 4)
            row["against_msteps_per_s"] = round(steps / med[1] * 1e-6, 3)
            row["ratio"] = round(float(np.median(seconds[0, m] / seconds[1, m])), 3)
            row["bit_identical"] = same_bits(stats, other)
        out[name] = row
        print(f"{name:>18} {row['msteps_per_s']:>8.3f}"
              + (f" {row['against_msteps_per_s']:>8.3f} {row['ratio']:6.2f}"
                 f" {'same bits' if row['bit_identical'] else 'BITS DIFFER'}" if against else ""))
    return {"paths": ENGINE_PATHS, "dt": ENGINE_DT, "rounds": ENGINE_ROUNDS, "models": out}


def verify_section(against) -> dict:
    """Median ``classify`` + ``verify_verdict`` time per model (rounds as in
    :func:`paired_rounds`)."""
    sys.path.insert(0, str(ROOT / "scripts"))
    from run_examples import MODELS
    packages = [stokolmo] + ([load_package(pathlib.Path(against))] if against else [])
    models = {(k, name): pkg.load_model(str(ROOT / "models" / f"{name}.json"))
              for k, pkg in enumerate(packages) for name in MODELS}
    cfgs = [pkg.SimConfig(t_max=VERIFY_T, burn_in=min(50.0, 0.1 * VERIFY_T),
                          n_paths=VERIFY_PATHS, seed=0) for pkg in packages]

    def run(pkg, k, name):
        verdict = pkg.classify(models[k, name], pkg.AnalysisBudget())
        ver = (None if verdict.kind == "Inconclusive"
               else pkg.verify_verdict(models[k, name], verdict, cfgs[k]))
        return verdict, ver

    seconds, results = paired_rounds(packages, MODELS, VERIFY_ROUNDS, run)
    reports = {key: (verdict.kind, ver and ver.status, packages[key[0]].canonical_json(
                         {"verdict": verdict.to_json_dict(),
                          "verification": ver and ver.to_json_dict()}))
               for key, (verdict, ver) in results.items()}
    out = {}
    for m, name in enumerate(MODELS):
        kind, status, _ = reports[0, name]
        med = [float(np.median(seconds[k, m])) for k in range(len(packages))]
        row = {"verdict": kind, "status": status, "median_s": round(med[0], 3)}
        if against:
            row["against_median_s"] = round(med[1], 3)
            row["ratio"] = round(float(np.median(seconds[0, m] / seconds[1, m])), 3)
            row["same_report"] = reports[0, name][2] == reports[1, name][2]
        out[name] = row
        print(f"{name:>18} {kind:>12} {status or '-':>7} {row['median_s']:>8.3f}"
              + (f" {row['against_median_s']:>8.3f} {row['ratio']:6.2f}"
                 f" {'same report' if row['same_report'] else 'REPORT DIFFERS'}"
                 if against else ""))
    return {"paths": VERIFY_PATHS, "t_max": VERIFY_T, "seed": 0,
            "rounds": VERIFY_ROUNDS, "models": out}


def faces_section(against) -> dict:
    """Median ``classify`` time per ``face_mc`` community (rounds as in
    :func:`paired_rounds`)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import FACE_MC_PLAN, FACE_SIM, general_doc
    packages = [stokolmo] + ([load_package(pathlib.Path(against))] if against else [])
    names = [name for name, *_ in FACE_MC_PLAN]
    models = {(k, name): pkg.parse_model(json.dumps(general_doc(a, B)))
              for k, pkg in enumerate(packages) for name, a, B, _ in FACE_MC_PLAN}
    budgets = [pkg.AnalysisBudget(face_sim=pkg.SimConfig(**FACE_SIM, seed=FACES_SEED))
               for pkg in packages]
    seconds, results = paired_rounds(
        packages, names, FACES_ROUNDS,
        lambda pkg, k, name: pkg.classify(models[k, name], budgets[k]))
    reports = {key: packages[key[0]].canonical_json(verdict.to_json_dict())
               for key, verdict in results.items()}
    out = {}
    for m, name in enumerate(names):
        verdict = results[0, name]
        med = [float(np.median(seconds[k, m])) for k in range(len(packages))]
        row = {"verdict": verdict.kind,
               "mc_faces": sum(mu.kind == "empirical"
                               for mu in (verdict.discovery.measures if verdict.discovery else [])),
               "median_s": round(med[0], 4)}
        if against:
            row["against_median_s"] = round(med[1], 4)
            row["ratio"] = round(float(np.median(seconds[0, m] / seconds[1, m])), 3)
            row["same_report"] = reports[0, name] == reports[1, name]
        out[name] = row
        print(f"{name:>16} {row['verdict']:>12} mc {row['mc_faces']} {row['median_s']:>8.3f}"
              + (f" {row['against_median_s']:>8.3f} {row['ratio']:6.2f}"
                 f" {'same report' if row['same_report'] else 'REPORT DIFFERS'}"
                 if against else ""))
    return {"face_sim": FACE_SIM, "seed": FACES_SEED, "rounds": FACES_ROUNDS, "models": out}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--section", choices=("lp", "classify", "engine", "verify", "faces"),
                    default="lp",
                    help="the layer to time (default: lp)")
    ap.add_argument("--against", help="another checkout timed alongside")
    args = ap.parse_args()

    doc = {"label": args.label,
           "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                       "python": platform.python_version(), "numpy": np.__version__},
           "git": git_rev(ROOT)}
    if args.against:
        doc["against_git"] = git_rev(args.against)
    section = {"lp": lp_section, "classify": classify_section,
               "engine": engine_section, "verify": verify_section,
               "faces": faces_section}[args.section]
    doc.update(section(args.against))
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
