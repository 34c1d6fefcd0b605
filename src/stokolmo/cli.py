"""Command-line front end.

Five subcommands: `check` prints the assumption report, `classify` the
verdict with its measure table, `simulate` a trajectory, `verify` the
full classify-then-validate run report, and `foodchain` the chain fast
path.  Exit codes: 0 success, 1 when the outcome is Inconclusive or the
Monte Carlo validation FAILED, 2 on a `CLIError` (bad flags, unreadable
or unwritable files: `"error": "input"`) or a `StokolmoError`, the
library's one error base (`"error"` names its class).  Either leaves a
single JSON diagnostic on stderr so wrappers never have to parse prose;
any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .assumptions import run_assumption_checks
from .classify import classify
from .engine import EXTINCT_LOG_THRESHOLD, EngineError, SimConfig, simulate_path
from .errors import StokolmoError
from .foodchain import FoodChainError, classify_food_chain, load_food_chain
from .measures import AnalysisBudget
from .model import KolmogorovModel, ModelError, load_model
from .report import RunReport, canonical_json, write_report
from .verify import verify_verdict


class CLIError(Exception):
    """Bad input; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # route argparse's own failures through our JSON path
        raise CLIError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="stokolmo",
                description="Classify and verify stochastic population models")
    sub = p.add_subparsers(dest="command", required=True)

    def add_sim_flags(sp, t_default):
        sp.add_argument("--t", type=float, default=t_default,
                        help=f"time horizon (default {t_default:g})")
        sp.add_argument("--dt", type=float, default=1e-3,
                        help="integrator step (default 1e-3)")
        sp.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (default 0)")

    sp = sub.add_parser("check", help="run the assumption checks only")
    sp.add_argument("model", help="model JSON file")
    sp.add_argument("--out", help="write the report here instead of stdout")

    sp = sub.add_parser("classify", help="compute the verdict")
    sp.add_argument("model", help="model JSON file")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for any Monte Carlo face measures (default 0)")
    sp.add_argument("--out", help="write the report here instead of stdout")

    sp = sub.add_parser("simulate", help="integrate one trajectory")
    sp.add_argument("model", help="model JSON file")
    sp.add_argument("--x0", default=None,
                    help="comma-separated starting state (default all ones)")
    add_sim_flags(sp, t_default=50.0)
    sp.add_argument("--out", help="write the trajectory here instead of stdout")
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="trajectory format (default csv)")

    sp = sub.add_parser("verify", help="classify, then validate by simulation")
    sp.add_argument("model", help="model JSON file")
    sp.add_argument("--x0", default=None,
                    help="comma-separated starting state (default all ones)")
    add_sim_flags(sp, t_default=500.0)
    sp.add_argument("--paths", type=int, default=200,
                    help="ensemble size (default 200)")
    sp.add_argument("--out", help="write the run report here instead of stdout")
    sp.add_argument("--format", choices=("json", "csv"), default="json",
                    help="json: report only; csv: also emit histogram/exponent "
                         "CSVs next to --out")

    sp = sub.add_parser("foodchain", help="chain fast path")
    sp.add_argument("chain", help="food chain JSON file")
    sp.add_argument("--out", help="write the report here instead of stdout")
    return p


def _parse_x0(text: str | None, model: KolmogorovModel) -> np.ndarray:
    if text is None:
        return np.ones(model.n)
    try:
        vals = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise CLIError(f"--x0: expected comma-separated numbers, got {text!r}")
    if vals.shape != (model.n,):
        raise CLIError(f"--x0: expected {model.n} values, got {vals.shape[0]}")
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise CLIError("--x0: every component must be positive and finite")
    return vals


def _sim_config(args, n_paths: int) -> SimConfig:
    try:
        burn = min(50.0, 0.1 * args.t)
        return SimConfig(dt=args.dt, t_max=args.t, burn_in=burn,
                         n_paths=n_paths, seed=args.seed)
    except EngineError as exc:
        raise CLIError(str(exc))


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CLIError(f"cannot write {out}: {exc}")


def _load(path: str) -> KolmogorovModel:
    try:
        return load_model(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CLIError(f"cannot read model: {exc}")
    except ModelError as exc:
        raise CLIError(f"invalid model: {exc}")


def _cmd_check(args) -> int:
    model = _load(args.model)
    rep = run_assumption_checks(model)
    doc = {"model": model.to_json_dict(), "assumptions": rep.to_json_dict(),
           "tool_version": __version__}
    _emit(canonical_json(doc) + "\n", args.out)
    return 0


def _cmd_classify(args) -> int:
    model = _load(args.model)
    budget = AnalysisBudget(face_sim=replace(AnalysisBudget().face_sim, seed=args.seed))
    verdict = classify(model, budget)
    doc = {"model": model.to_json_dict(), "seed": args.seed,
           "tool_version": __version__, **verdict.to_json_dict()}
    _emit(canonical_json(doc) + "\n", args.out)
    return 1 if verdict.kind == "Inconclusive" else 0


def _trajectory_csv(traj, model: KolmogorovModel) -> str:
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(model.n)) + ",flags"]
    X = np.exp(traj.log_states)
    for k in range(traj.times.shape[0]):
        tags = [f"x{i + 1}-extinct" for i in range(model.n)
                if traj.log_states[k, i] < EXTINCT_LOG_THRESHOLD]
        if traj.blowup_time is not None and k == traj.times.shape[0] - 1:
            tags.append("blowup")
        row = "%.6f," % traj.times[k]
        row += ",".join("%.12g" % v for v in X[k])
        lines.append(row + "," + "|".join(tags))
    return "\n".join(lines) + "\n"


def _cmd_simulate(args) -> int:
    model = _load(args.model)
    x0 = _parse_x0(args.x0, model)
    cfg = _sim_config(args, n_paths=1)
    traj = simulate_path(model, x0, cfg, path_id=0)
    if args.format == "csv":
        _emit(_trajectory_csv(traj, model), args.out)
    else:
        doc = {
            "model": model.to_json_dict(), "x0": x0.tolist(), "seed": cfg.seed,
            "dt": cfg.dt, "times": traj.times, "states": np.exp(traj.log_states),
            "blowup_time": traj.blowup_time,
            "extinct_times": [None if v != v else float(v) for v in traj.extinct_times],
        }
        _emit(canonical_json(doc) + "\n", args.out)
    return 0


def _histogram_csv(stats) -> str:
    hist = stats.histogram
    n = hist.masses.shape[0]
    lines = ["bin_lo,bin_hi," + ",".join(f"mass_x{i + 1}" for i in range(n))]
    edges = hist.edges
    lo = ["-inf"] + ["%.6f" % v for v in edges]
    hi = ["%.6f" % v for v in edges] + ["inf"]
    for b in range(hist.masses.shape[1]):
        row = f"{lo[b]},{hi[b]},"
        row += ",".join("%.12g" % hist.masses[i, b] for i in range(n))
        lines.append(row)
    return "\n".join(lines) + "\n"


def _exponents_csv(stats) -> str:
    n = stats.y_end.shape[1]
    lines = ["path," + ",".join(f"exponent_x{i + 1}" for i in range(n))]
    for p in range(stats.n_paths):
        lines.append(str(p) + "," + ",".join("%.12g" % v for v in stats.exponents[p]))
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    model = _load(args.model)
    x0 = _parse_x0(args.x0, model)
    cfg = _sim_config(args, args.paths)
    if args.format == "csv" and not args.out:
        raise CLIError("--format csv needs --out to anchor the CSV file names")
    budget = AnalysisBudget(face_sim=replace(AnalysisBudget().face_sim, seed=args.seed))
    t0 = time.perf_counter()
    verdict = classify(model, budget)
    t1 = time.perf_counter()
    verification = None
    stats = None
    if verdict.kind != "Inconclusive":
        verification = verify_verdict(model, verdict, cfg, x0)
        stats = verification.stats
    t2 = time.perf_counter()

    report = RunReport(
        model=model.to_json_dict(),
        verdict=verdict.to_json_dict(),
        seed=args.seed,
        tool_version=__version__,
        verification=None if verification is None else verification.to_json_dict(),
        cli_args={"t": args.t, "dt": args.dt, "paths": args.paths,
                  "x0": [float(v) for v in x0]},
        timing={"classify_s": t1 - t0, "verify_s": t2 - t1},
    )
    if args.out:
        try:
            write_report(report, args.out)
        except OSError as exc:
            raise CLIError(f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(report.to_text())
    # wall-clock stays out of the report bytes so reruns stay byte-identical
    sys.stderr.write(json.dumps({"timing": report.timing}) + "\n")

    if args.format == "csv" and stats is not None:
        base = args.out[:-5] if args.out.endswith(".json") else args.out
        _emit(_histogram_csv(stats), base + ".histogram.csv")
        _emit(_exponents_csv(stats), base + ".exponents.csv")

    if verdict.kind == "Inconclusive":
        return 1
    if verification is not None and verification.status == "FAILED":
        return 1
    return 0


def _cmd_foodchain(args) -> int:
    try:
        params = load_food_chain(args.chain)
    except (OSError, UnicodeDecodeError) as exc:
        raise CLIError(f"cannot read chain: {exc}")
    except FoodChainError as exc:
        raise CLIError(f"invalid chain: {exc}")
    verdict = classify_food_chain(params)
    doc = {"tool_version": __version__, **verdict.to_json_dict()}
    _emit(canonical_json(doc) + "\n", args.out)
    return 1 if verdict.kind == "Inconclusive" else 0


_COMMANDS = {
    "check": _cmd_check,
    "classify": _cmd_classify,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "foodchain": _cmd_foodchain,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # overflow or 0 ** -1 in a model's expressions is reported by the
        # library's own checks; numpy's warning lines would break the
        # one-line stderr contract
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except CLIError as exc:
        sys.stderr.write(json.dumps({"error": "input", "message": str(exc)}) + "\n")
        return 2
    except StokolmoError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
