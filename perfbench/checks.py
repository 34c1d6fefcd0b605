"""Output checks, one set per workload.

Each check takes what the program produced and the reference answer
from oracle.py, and returns a list of problems; an empty list means
the output is right.  Nothing here compares against a saved copy of
the program's own output.
"""

from __future__ import annotations

import json
import re

import numpy as np

from oracle import face_key

# Monte Carlo face rows must sit within this many of their reported
# 95% half widths of the closed-form rate
MC_CI_MULTIPLE = 4.0
# the program keeps every weight >= 1e-6; see floor_tolerance
WEIGHT_FLOOR = 1e-6


def _close(got: float, want: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(got - want) <= max(abs_, rel * max(1.0, abs(want)))


def _exit_problems(res: dict, want_rc: int) -> list[str]:
    if res.get("exception"):
        return [f"raised {res['exception']} instead of returning an exit code"]
    if res["rc"] != want_rc:
        return [f"exit code {res['rc']}, expected {want_rc}: {res['stderr'][-300:]}"]
    return []


def floor_tolerance(rows: np.ndarray, t_star: float) -> float:
    """How far a maximin value with every weight >= WEIGHT_FLOOR may sit from t*.

    Mixing the optimal p with the uniform floor, p' = (1 - k f) p + f,
    is feasible and loses at most f (k |t*| + max_m sum_i |r_mi|).
    """
    k = rows.shape[1]
    return WEIGHT_FLOOR * (k * abs(t_star) + float(np.abs(rows).sum(axis=1).max())) + 1e-9


def check_rate_table(rows: list[dict], lat) -> list[str]:
    """Measure set and closed-form rates of an all-analytic LV table."""
    got = {r["measure"]: np.array(r["rates"], float) for r in rows}
    if set(got) != set(lat.rates):
        return [f"measures {sorted(got)} differ from the oracle's {sorted(lat.rates)}"]
    out = []
    for key, want in lat.rates.items():
        if not np.allclose(got[key], want, rtol=1e-9, atol=1e-9):
            out.append(f"rates of {key} {got[key].tolist()} differ from {want.tolist()}")
    return out


def check_classify(res: dict, lat) -> list[str]:
    """`stokolmo classify` on an LV model against the bottom-up oracle."""
    problems = _exit_problems(res, 0)
    doc = res.get("doc")
    if doc is None:
        return problems or ["no report written"]
    if doc["verdict"] != lat.kind:
        return problems + [f"verdict {doc['verdict']}, expected {lat.kind}"
                           + (f" ({doc['refusal']['reason']})" if "refusal" in doc else "")]
    problems += check_rate_table(doc["invasion_rates"]["rows"], lat)
    if problems:
        return problems
    keys = list(lat.rates)
    if lat.kind == "Persistent":
        t = doc["certificate"]["t_star"]
        tol = floor_tolerance(lat.table(keys), lat.t_star)
        if not abs(t - lat.t_star) <= tol:
            problems.append(f"t* {t} differs from HiGHS {lat.t_star} by more than {tol:.3g}")
        return problems
    part = doc["partition"]
    if set(part["sinks"]) != set(lat.sinks) or set(part["others"]) != set(lat.others):
        problems.append(f"partition sinks {part['sinks']} others {part['others']}, "
                        f"expected {lat.sinks} and {lat.others}")
    if lat.repulsion_t is not None:
        t = part.get("repulsion_margin")
        tol = floor_tolerance(lat.table(lat.others), lat.repulsion_t)
        if t is None or not abs(t - lat.repulsion_t) <= tol:
            problems.append(f"repulsion margin {t} differs from HiGHS {lat.repulsion_t}")
    for target in doc.get("extinction_targets", []):
        key = target["measure"]
        want_ext = [i + 1 for i in range(len(lat.rates["origin"]))
                    if i not in lat.supports.get(key, ())]
        if key not in lat.sinks or target["extinct"] != want_ext:
            problems.append(f"target {key} extinct {target['extinct']} is not an oracle sink")
            continue
        want = [lat.rates[key][i - 1] for i in want_ext]
        if not np.allclose(target["extinction_rates"], want, rtol=1e-9, atol=1e-12):
            problems.append(f"decay rates at {key} {target['extinction_rates']}, expected {want}")
    if len(doc.get("extinction_targets", [])) != len(lat.sinks):
        problems.append("one extinction target per oracle sink expected")
    return problems


def check_cli_error(res: dict) -> list[str]:
    """Bad input must end in exit 2 with exactly one JSON line on stderr."""
    problems = _exit_problems(res, 2)
    if problems:
        return problems
    lines = res["stderr"].splitlines()
    if len(lines) != 1:
        return [f"{len(lines)} lines on stderr, expected one JSON diagnostic"]
    try:
        diag = json.loads(lines[0])
    except ValueError:
        return [f"stderr line is not JSON: {lines[0][:200]}"]
    if not isinstance(diag, dict) or "error" not in diag:
        return [f"diagnostic without an error field: {lines[0][:200]}"]
    return []


_RATE_CHECK = re.compile(r"extinction_rate_(.+)_species_(\d+)$")


def check_verify(res: dict, expect: dict) -> list[str]:
    """`stokolmo verify` report against closed-form expectations.

    expect holds "kind", and by kind "moments" (Persistent, interior
    equilibrium or None), "rates" (Extinction, key -> full rate vector)
    or nothing more (BlowUpRisk).
    """
    problems = _exit_problems(res, 0)
    doc = res.get("doc")
    if doc is None:
        return problems or ["no report written"]
    kind = doc["verdict"]["verdict"]
    if kind != expect["kind"]:
        return problems + [f"verdict {kind}, expected {expect['kind']}"]
    ver = doc["verification"]
    if ver["status"] != "PASSED":
        failed = [c["name"] for c in ver["checks"] if c["status"] == "FAILED"]
        problems.append(f"verification FAILED: {failed}")
    checks = {c["name"]: c for c in ver["checks"]}
    if kind == "Persistent" and expect.get("moments") is not None:
        c = checks.get("interior_moments_match_equilibrium")
        if c is None:
            problems.append("no interior moment check in the report")
        else:
            got = np.array(c["values"]["measured"], float)
            want = np.asarray(expect["moments"], float)
            rel = np.abs(got - want) / np.abs(want)
            if not np.all(rel <= 0.03):
                problems.append(f"ensemble means {got.tolist()} not within 3% of {want.tolist()}")
    elif kind == "Extinction":
        rates = expect["rates"]
        compared = 0
        for name, c in checks.items():
            m = _RATE_CHECK.match(name)
            if not m:
                continue
            key, sp = m.group(1), int(m.group(2))
            if key not in rates:
                problems.append(f"{name}: {key} is not an oracle sink")
                continue
            want = rates[key][sp - 1]
            v = c["values"]
            if not abs(v["measured"] - want) <= 3.0 * v["se"]:
                problems.append(f"{name}: measured {v['measured']} +- {v['se']} is not "
                                f"within 3 SE of {want}")
            if not _close(v["predicted"], want, 1e-6):
                problems.append(f"{name}: predicted {v['predicted']}, closed form {want}")
            compared += 1
        if compared == 0:
            problems.append("no extinction rate was measured")
    elif kind == "BlowUpRisk":
        classes = ver["path_classes"]
        frac = classes.get("blow-up", 0) / ver["n_paths"]
        if frac < 0.99:
            problems.append(f"only {frac:.3f} of paths flagged as blow-up")
    return problems


def check_face_mc(verdict: dict, lat) -> list[str]:
    """Library `classify` with Monte Carlo faces against closed-form LV rates.

    One-species faces must come from the density quadrature and match
    the closed form to 1e-6; two-species faces from Monte Carlo, within
    MC_CI_MULTIPLE of their reported interval.  Every row must meet the
    zero-rate identity on its own support.
    """
    problems = []
    if verdict["verdict"] != lat.kind:
        reason = verdict.get("refusal", {}).get("reason", "")
        return [f"verdict {verdict['verdict']}, expected {lat.kind} {reason}".strip()]
    kinds = {face_key([i - 1 for i in m["support"]]): m["kind"] for m in verdict["measures"]}
    rows = {r["measure"]: r for r in verdict["invasion_rates"]["rows"]}
    if set(rows) != set(lat.rates):
        return [f"measures {sorted(rows)} differ from the oracle's {sorted(lat.rates)}"]
    for key, row in rows.items():
        support = lat.supports[key]
        rates = np.array(row["rates"], float)
        ci = np.array(row["ci"], float)
        want = lat.rates[key]
        expected_kind = {0: "dirac-origin", 1: "density-1d"}.get(len(support), "empirical")
        if kinds.get(key) != expected_kind:
            problems.append(f"{key} represented as {kinds.get(key)}, expected {expected_kind}")
        for i in support:
            if abs(rates[i]) > max(1e-10, ci[i]):
                problems.append(f"{key}: rate of species {i + 1} on its support is "
                                f"{rates[i]:.4g}, beyond {ci[i]:.4g}")
        off = [j for j in range(rates.shape[0]) if j not in support]
        if expected_kind == "empirical":
            for j in off:
                if not (ci[j] > 0.0 and abs(rates[j] - want[j]) <= MC_CI_MULTIPLE * ci[j]):
                    problems.append(f"{key}: species {j + 1} rate {rates[j]:.4g} +- {ci[j]:.3g} "
                                    f"is not within {MC_CI_MULTIPLE:g} intervals of {want[j]:.6g}")
        else:
            for j in off:
                if not abs(rates[j] - want[j]) <= 1e-6:
                    problems.append(f"{key}: species {j + 1} rate {rates[j]!r} differs from "
                                    f"the closed form {want[j]!r} by more than 1e-6")
    return problems
