#!/usr/bin/env python3
"""Classify and verify every bundled model; print a one-line summary each.

Run from the repository root:

    python scripts/run_examples.py            # quick budgets
    python scripts/run_examples.py --full     # full budgets (slower)

Reports land in reports/<name>.json; the food chains also print their
depth analysis.  Exit code is the number of models whose verification
FAILED (Inconclusive verdicts are expected for the borderline cases and
do not count).
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from stokolmo import (AnalysisBudget, RunReport, SimConfig, classify,
                      classify_food_chain, load_food_chain, load_model,
                      verify_verdict, write_report, __version__)

MODELS = [
    "logistic", "lv_coexist", "lv_single_extinct", "lv_bistable",
    "lv_total_extinct", "coop_blowup", "predprey", "two_pred_one_prey",
    "holling2d", "linear1d",
]
CHAINS = ["foodchain3_persist", "foodchain3_apex"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--full", action="store_true",
                    help="full simulation budgets (200 paths, T=500)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    outdir = root / "reports"
    outdir.mkdir(exist_ok=True)

    if args.full:
        paths, horizon = 200, 500.0
    else:
        paths, horizon = 64, 240.0
    # the total-extinction instance decays at rate 0.1, so its paths need
    # roughly t=200 just to reach the extinction threshold
    slow = {"lv_total_extinct": 400.0}

    failures = 0
    for name in MODELS:
        model = load_model(str(root / "models" / f"{name}.json"))
        t0 = time.perf_counter()
        verdict = classify(model, AnalysisBudget())
        line = f"{name:18s} {verdict.kind:12s}"
        verification = None
        cfg = SimConfig(n_paths=paths, t_max=max(horizon, slow.get(name, 0.0)),
                        burn_in=50.0, seed=args.seed)
        if verdict.kind != "Inconclusive":
            verification = verify_verdict(model, verdict, cfg)
            line += f" verification {verification.status}"
            if verification.status == "FAILED":
                failures += 1
        else:
            line += f" ({verdict.refusal.reason[:60]})"
        line += f"  [{time.perf_counter() - t0:.1f}s]"
        print(line)
        report = RunReport(
            model=model.to_json_dict(), verdict=verdict.to_json_dict(),
            seed=cfg.seed, tool_version=__version__,
            verification=None if verification is None else verification.to_json_dict())
        write_report(report, str(outdir / f"{name}.json"))

    for name in CHAINS:
        params = load_food_chain(str(root / "models" / f"{name}.json"))
        fc = classify_food_chain(params)
        print(f"{name:18s} {fc.kind:12s} j*={fc.j_star} "
              f"rates={['%.4g' % v for v in fc.invasion_rates]}")

    print(f"\nreports written to {outdir}/")
    return failures


if __name__ == "__main__":
    sys.exit(main())
