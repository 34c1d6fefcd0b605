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
Lotka-Volterra communities of 3-10 species and keeps every table
``solve_maximin`` receives, inside boundary discovery (only where its
closed-form bounds straddle the decision gate) and in the verdict tests
after it (the script wraps ``measures.solve_maximin`` and
``classify.solve_maximin``; the library itself is untouched).  Then it
times each kept table alone, takes the fastest of REPEATS solves, and
reports per (rows, species) shape the median over that shape's tables,
with the machine it ran on.

--section classify times ``classify`` on each of those communities and
on the 12-species competitive community from ``default_rng(0)``,
CLASSIFY_ROUNDS times, and reports the median time per model with its LP
calls, the faces discovery examined and how many of them it decided
without an LP.

--section engine times ``simulate_ensemble`` on each model of the
``verify_ensemble`` benchmark workload at 128 paths, with the horizon,
burn-in and first seed ``stokolmo verify`` uses there, ENGINE_ROUNDS
times, and reports the median time as million path-steps per second
(path-steps count each path up to its halt).

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
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import stokolmo  # noqa: E402
from workloads import FACE_MC_PLAN, FACE_SIM, VERIFY_PLAN, general_doc  # noqa: E402

measures = importlib.import_module("stokolmo.measures")

SIZES = range(3, 11)
SEEDS = (1, 2)
REPEATS = 9         # solves per table; the fastest counts
CLASSIFY_ROUNDS = 8  # classify calls per model and checkout; the median counts

ENGINE_PATHS = 128
ENGINE_DT = 1e-3
ENGINE_ROUNDS = 5   # ensembles per model and checkout; the median counts
# model, horizon T and first verify seed, as the verify_ensemble workload runs them
ENGINE_PLAN = tuple((name, horizon, seeds[0]) for name, horizon, seeds in VERIFY_PLAN)

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


def traced_classify(pkg, model) -> tuple[list, list]:
    """Classify ``model`` with ``pkg`` at the default budget.  Returns a
    copy of every table ``solve_maximin`` received, in order, and each
    discovery result with the number of those tables it passed."""
    meas = importlib.import_module(pkg.__name__ + ".measures")
    cls = importlib.import_module(pkg.__name__ + ".classify")
    solve, discover = meas.solve_maximin, cls.discover_boundary
    tables, discoveries = [], []

    def traced(rates):
        tables.append(np.array(rates, dtype=float))
        return solve(rates)

    def traced_discover(*args, **kwargs):
        before = len(tables)
        disc = discover(*args, **kwargs)
        discoveries.append((disc, len(tables) - before))
        return disc

    meas.solve_maximin = cls.solve_maximin = traced
    cls.discover_boundary = traced_discover
    try:
        pkg.classify(model, pkg.AnalysisBudget())
    finally:
        meas.solve_maximin = cls.solve_maximin = solve
        cls.discover_boundary = discover
    return tables, discoveries


def collect_tables(docs) -> list:
    """Every table ``solve_maximin`` receives while classifying each model
    document, in order."""
    return [t for doc in docs
            for t in traced_classify(stokolmo, stokolmo.parse_model(json.dumps(doc)))[0]]


def lp_counts(pkg, model) -> dict:
    """LP calls of one classify, faces discovery examined, and how many of
    those it decided without an LP."""
    tables, discoveries = traced_classify(pkg, model)
    counts = {"lp_calls": len(tables)}
    for disc, inside in discoveries:
        counts["faces"] = len(face_blocks(disc))
        counts["faces_by_bound"] = counts["faces"] - inside
    return counts


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


def checkouts(against) -> list:
    """This checkout's package, then the other checkout's if there is one."""
    return [stokolmo] + ([load_package(pathlib.Path(against))] if against else [])


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


def lp_section(against) -> dict:
    tables = collect_tables(doc for _, doc in communities(SEEDS))
    solvers = [importlib.import_module(pkg.__name__ + ".simplex").solve_maximin
               for pkg in checkouts(against)]
    seconds, _ = paired_rounds(solvers, range(len(tables)), REPEATS,
                               lambda solve, k, i: solve(tables[i]))
    best = seconds.min(axis=2)      # (solver, table): the fastest solve
    by_shape = collections.defaultdict(list)
    for i, t in enumerate(tables):
        by_shape[t.shape].append(i)
    shapes = {}
    for shape, cols in sorted(by_shape.items()):
        row = {"calls": len(cols), "median_us": round(1e6 * float(np.median(best[0, cols])), 1)}
        if against:               # the ratio is paired: the median of per-table ratios
            row["against_median_us"] = round(1e6 * float(np.median(best[1, cols])), 1)
            row["ratio"] = round(float(np.median(best[0, cols] / best[1, cols])), 3)
        shapes["%dx%d" % shape] = row
    doc = {"seeds": list(SEEDS), "repeats": REPEATS, "lp_calls": len(tables),
           "lp_s_estimate": round(float(best[0].sum()), 3), "shapes": shapes}
    if against:
        doc["against_lp_s_estimate"] = round(float(best[1].sum()), 3)
    print(f"{len(tables)} tables, {len(shapes)} shapes, LP time {doc['lp_s_estimate']:.3f} s")
    for key, v in shapes.items():
        print(f"{key:>8} {v['median_us']:>11.1f}"
              + (f" {v['against_median_us']:>11.1f} {v['ratio']:6.2f}" if against else ""))
    return doc


def paired_models(against, names, rounds, inputs, run, fingerprint, same, fields,
                  against_fields=lambda *_: {}) -> dict:
    """One row per name, timing ``run(pkg, *inputs(pkg, name))`` for this
    checkout and the ``against`` one in :func:`paired_rounds`.  A row holds
    ``fields(pkg, inputs, result, median_s)`` and the median seconds of this
    checkout; with ``against``, also the other's median seconds, the median
    over rounds of the time ratio, ``against_fields`` (called as ``fields``)
    of the other, and under key ``same`` whether both results have the same
    ``fingerprint(pkg, result)``."""
    packages = checkouts(against)
    args = {(k, name): inputs(pkg, name) for k, pkg in enumerate(packages) for name in names}
    seconds, results = paired_rounds(packages, names, rounds,
                                     lambda pkg, k, name: run(pkg, *args[k, name]))
    out = {}
    for m, name in enumerate(names):
        med = [float(np.median(seconds[k, m])) for k in range(len(packages))]
        row = {**fields(stokolmo, args[0, name], results[0, name], med[0]),
               "median_s": round(med[0], 4)}
        if against:
            row["against_median_s"] = round(med[1], 4)
            row["ratio"] = round(float(np.median(seconds[0, m] / seconds[1, m])), 3)
            row.update(against_fields(packages[1], args[1, name], results[1, name], med[1]))
            row[same] = (fingerprint(stokolmo, results[0, name])
                         == fingerprint(packages[1], results[1, name]))
        out[name] = row
        print(f"{name:>24} " + " ".join(f"{key}={v}" for key, v in row.items()))
    return out


def classify_section(against) -> dict:
    """Median ``classify`` time per model (rounds as in :func:`paired_rounds`)."""
    plan = dict(communities(SEEDS) + [("competitive_12", twelve_species())])
    out = paired_models(
        against, list(plan), CLASSIFY_ROUNDS,
        inputs=lambda pkg, name: (pkg.parse_model(json.dumps(plan[name])),),
        run=lambda pkg, model: pkg.classify(model, pkg.AnalysisBudget()),
        fingerprint=lambda pkg, verdict: pkg.canonical_json(verdict.to_json_dict()),
        same="same_verdict",
        fields=lambda pkg, args, *_: lp_counts(pkg, *args),
        against_fields=lambda pkg, args, *_: {"against": lp_counts(pkg, *args)})
    rows = out.values()
    totals = {"median_s": round(sum(v["median_s"] for v in rows), 3),
              **{key: sum(v[key] for v in rows) for key in ("lp_calls", "faces", "faces_by_bound")}}
    if against:
        totals["against_median_s"] = round(sum(v["against_median_s"] for v in rows), 3)
        totals["against_lp_calls"] = sum(v["against"]["lp_calls"] for v in rows)
    return {"seeds": list(SEEDS), "rounds": CLASSIFY_ROUNDS, "totals": totals, "models": out}


def ensemble_fingerprint(stats):
    """The path errors and the shape and bits of every array of an
    ``EnsembleStats``."""
    arrays = [stats.y_end, stats.t_end, stats.y_burn, stats.blowup_time,
              stats.extinct_time, stats.exponents, stats.histogram.masses,
              *(w.masses for w in stats.window_histograms),
              stats.mean_state, stats.path_mean_state]
    return stats.path_errors, [(x.shape, x.tobytes()) for x in arrays]


def engine_section(against) -> dict:
    """Median Mpath-steps/s of ``simulate_ensemble`` per model (rounds as
    in :func:`paired_rounds`)."""
    plan = {name: (horizon, seed) for name, horizon, seed in ENGINE_PLAN}

    def inputs(pkg, name):
        model = pkg.load_model(str(ROOT / "models" / f"{name}.json"))
        horizon, seed = plan[name]
        return model, np.ones(model.n), pkg.SimConfig(
            dt=ENGINE_DT, t_max=horizon, n_paths=ENGINE_PATHS,
            burn_in=min(50.0, 0.1 * horizon), seed=seed)

    def path_steps(stats):
        return int(np.rint(stats.t_end / ENGINE_DT).sum())

    out = paired_models(
        against, list(plan), ENGINE_ROUNDS, inputs,
        run=lambda pkg, *args: pkg.simulate_ensemble(*args),
        fingerprint=lambda pkg, stats: ensemble_fingerprint(stats),
        same="bit_identical",
        fields=lambda pkg, args, stats, median_s: {
            "t_max": args[2].t_max, "seed": args[2].seed,
            "path_steps": path_steps(stats),
            "msteps_per_s": round(path_steps(stats) / median_s * 1e-6, 3)},
        against_fields=lambda pkg, args, stats, median_s: {
            "against_msteps_per_s": round(path_steps(stats) / median_s * 1e-6, 3)})
    return {"paths": ENGINE_PATHS, "dt": ENGINE_DT, "rounds": ENGINE_ROUNDS, "models": out}


def verify_section(against) -> dict:
    """Median ``classify`` + ``verify_verdict`` time per model (rounds as in
    :func:`paired_rounds`)."""
    sys.path.insert(0, str(ROOT / "scripts"))
    from run_examples import MODELS

    def run(pkg, model, cfg):
        verdict = pkg.classify(model, pkg.AnalysisBudget())
        ver = (None if verdict.kind == "Inconclusive"
               else pkg.verify_verdict(model, verdict, cfg))
        return verdict, ver

    out = paired_models(
        against, MODELS, VERIFY_ROUNDS,
        inputs=lambda pkg, name: (
            pkg.load_model(str(ROOT / "models" / f"{name}.json")),
            pkg.SimConfig(t_max=VERIFY_T, burn_in=min(50.0, 0.1 * VERIFY_T),
                          n_paths=VERIFY_PATHS, seed=0)),
        run=run,
        fingerprint=lambda pkg, res: pkg.canonical_json(
            {"verdict": res[0].to_json_dict(), "verification": res[1] and res[1].to_json_dict()}),
        same="same_report",
        fields=lambda pkg, args, res, _: {"verdict": res[0].kind,
                                          "status": res[1] and res[1].status})
    return {"paths": VERIFY_PATHS, "t_max": VERIFY_T, "seed": 0,
            "rounds": VERIFY_ROUNDS, "models": out}


def faces_section(against) -> dict:
    """Median ``classify`` time per ``face_mc`` community (rounds as in
    :func:`paired_rounds`)."""
    plan = {name: general_doc(a, B) for name, a, B, _ in FACE_MC_PLAN}
    out = paired_models(
        against, list(plan), FACES_ROUNDS,
        inputs=lambda pkg, name: (
            pkg.parse_model(json.dumps(plan[name])),
            pkg.AnalysisBudget(face_sim=pkg.SimConfig(**FACE_SIM, seed=FACES_SEED))),
        run=lambda pkg, *args: pkg.classify(*args),
        fingerprint=lambda pkg, verdict: pkg.canonical_json(verdict.to_json_dict()),
        same="same_report",
        fields=lambda pkg, args, verdict, _: {
            "verdict": verdict.kind,
            "mc_faces": sum(mu.kind == "empirical"
                            for mu in (verdict.discovery.measures if verdict.discovery else []))})
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
