"""Monte Carlo cross-validation of verdicts.

Classification happens analytically: rate tables, linear algebra, an LP.
This module makes the claims earn their keep against simulation.  Each
verdict kind has its own evidence:

Persistent   no species' empirical growth exponent significantly
             negative, the occupation histogram settling (successive
             window total-variation distances small and not growing),
             and for Lotka-Volterra models the interior occupation
             moments matching the solved equilibrium.
Extinction   paths sorted by which species are below the extinction
             threshold at the horizon; the assigned fractions estimate
             the basin probabilities, and the extinct species' measured
             log-slopes must match the predicted rates within 3 standard
             errors.
BlowUpRisk   the flagged fraction and the measured drift of the weighted
             log-total, which the certificate says is positive.

Every kind takes one flow through ``verify_verdict``: one ensemble pass
(which for BlowUpRisk also stores the first 32 paths as slope probes),
one sort of its paths under the sink sets of ``verdict.targets`` (none
for Persistent and BlowUpRisk), one exponent summary, and then the kind's
grader, which returns its checks and the report fields it fills.

A disagreement marks the report FAILED with the offending statistic.
Verification never edits the verdict; it attaches evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import Verdict
from .engine import (EXTINCT_LOG_THRESHOLD, EngineError, EnsembleStats,
                     OccupationHistogram, SimConfig, simulate_ensemble)
# Not called here any more.  perfbench/tracing.py wraps verify.simulate_path
# by name and fails if the attribute is missing, so the name stays importable.
from .engine import simulate_path  # noqa: F401
from .errors import StokolmoError
from .measures import MeasureError, lv_face_equilibrium
from .model import KolmogorovModel


class VerifyError(StokolmoError):
    """A verification asked of something it is not defined for."""


def tv_distance(h1: OccupationHistogram, h2: OccupationHistogram) -> float:
    """Largest per-species total-variation distance between two histograms."""
    if not h1.same_grid(h2):
        raise VerifyError("histograms live on different grids")
    return float(np.max(0.5 * np.sum(np.abs(h1.masses - h2.masses), axis=1)))


@dataclass
class CheckResult:
    name: str
    status: str            # pass | FAILED | flag
    detail: str
    values: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail,
                "values": self.values}


@dataclass
class BasinEstimate:
    measure: str
    count: int
    total: int
    p_hat: float
    ci: float                      # 95% binomial half width
    survivor_moments: list | None = None   # mean occupation of the survivors

    def to_json_dict(self) -> dict:
        out = {"measure": self.measure, "count": int(self.count),
               "total": int(self.total), "p_hat": float(self.p_hat),
               "ci": float(self.ci)}
        if self.survivor_moments is not None:
            out["survivor_moments"] = self.survivor_moments
        return out


@dataclass
class EnsembleReport:
    verdict_kind: str
    status: str                    # PASSED | FAILED
    x0: list
    n_paths: int
    seed: int
    path_classes: dict             # class label -> path count; sums to n_paths
    exponent_mean: list
    exponent_se: list
    checks: list
    basins: list = field(default_factory=list)
    tv_curve: list = field(default_factory=list)
    low_confidence: bool = False
    notes: list = field(default_factory=list)
    stats: EnsembleStats | None = field(default=None, repr=False)  # not serialized

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict_kind,
            "status": self.status,
            "x0": self.x0,
            "n_paths": int(self.n_paths),
            "seed": int(self.seed),
            "path_classes": {k: int(v) for k, v in self.path_classes.items()},
            "exponent_mean": self.exponent_mean,
            "exponent_se": self.exponent_se,
            "checks": [c.to_json_dict() for c in self.checks],
            "basins": [b.to_json_dict() for b in self.basins],
            "tv_curve": self.tv_curve,
            "low_confidence": bool(self.low_confidence),
            "notes": list(self.notes),
        }


def _binomial_ci(count: int, total: int) -> float:
    if total == 0:
        return 1.0
    p = count / total
    if count == 0 or count == total:
        return 3.0 / total    # rule of three at the edge
    return 1.96 * float(np.sqrt(p * (1.0 - p) / total))


def classify_paths(stats: EnsembleStats,
                   extinct_sets: dict[str, frozenset]) -> tuple[dict[str, int], np.ndarray]:
    """Sort paths by terminal state: sink key, 'interior', 'blow-up', 'unassigned'.

    A path belongs to a sink when the species below the extinction log
    threshold at the horizon are exactly that sink's predicted extinct set
    (the first such sink, in dict order).  A path that hit the blow-up
    threshold is 'blow-up' whatever its terminal state, and one with no
    species below the threshold is 'interior'.  The returned labels array
    holds one class per path; the counts dict is exhaustive and sums to the
    number of paths.
    """
    below = stats.y_end < EXTINCT_LOG_THRESHOLD
    labels = np.full(stats.n_paths, "unassigned", dtype=object)
    for key, ext in reversed(extinct_sets.items()):
        sink = np.zeros(below.shape[1], dtype=bool)
        sink[list(ext)] = True
        labels[(below == sink).all(axis=1)] = key
    labels[~below.any(axis=1)] = "interior"
    labels[np.isfinite(stats.blowup_time)] = "blow-up"
    counts = {key: int(np.count_nonzero(labels == key))
              for key in [*extinct_sets, "interior", "blow-up", "unassigned"]}
    return counts, labels


def estimate_basin_probabilities(stats: EnsembleStats, verdict: Verdict,
                                 ) -> tuple[list[BasinEstimate], dict[str, int], np.ndarray, bool]:
    """Per-sink path fractions with binomial intervals, plus the raw split.

    Returns (estimates, class counts, per-path labels, low_confidence);
    low confidence is flagged when more than 10% of all paths, blown ones
    included in the total, ended up interior or unassigned (matched to no
    predicted sink): the horizon was too short to sort them.
    """
    counts, labels = classify_paths(
        stats, {t.measure.key: frozenset(t.extinct) for t in verdict.targets})
    total = stats.n_paths
    estimates = []
    for t in verdict.targets:
        key = t.measure.key
        c = counts[key]
        sm = None
        if c > 0 and t.measure.support:
            surv = stats.path_mean_state[labels == key][:, list(t.measure.support)]
            sm = [float(v) for v in surv.mean(axis=0)]
        estimates.append(BasinEstimate(
            measure=key, count=c, total=total, p_hat=c / total,
            ci=_binomial_ci(c, total), survivor_moments=sm))
    not_sorted = counts["interior"] + counts["unassigned"]
    low_confidence = not_sorted > 0.10 * total
    return estimates, counts, labels, low_confidence


def _ensemble(model: KolmogorovModel, cfg: SimConfig | None, x0, probes: bool):
    """(cfg, x0, stats) of the one ensemble pass, cfg and x0 defaulted.  With
    ``probes``, which only two species allow, the pass also stores paths
    0 .. 31 for the blow-up slope."""
    if probes and model.n != 2:
        raise VerifyError("the blow-up signature is defined for two species")
    cfg = cfg or SimConfig()
    x0 = np.ones(model.n) if x0 is None else np.asarray(x0, dtype=float)
    keep = min(32, cfg.n_paths) if probes else 0
    return cfg, x0, simulate_ensemble(model, x0, cfg, keep=keep)


def _signature(model: KolmogorovModel, stats: EnsembleStats, x0: np.ndarray,
               counts: dict) -> dict:
    """The blow-up signature read off the probe paths ``stats`` stores."""
    w = np.ones(2)
    if model.is_lv:
        b = -np.diag(model.drift.B)
        if np.all(b > 0.0):
            w = np.array([b[1], b[0]])
    # the ensemble terminal of a blown path is one post-threshold Euler step,
    # numerically stiff and meaningless as a state; the slope is measured on
    # the probe paths at half the halt time (pre-explosion); the first
    # aborted probe in id order raises
    y0 = np.log(x0)
    n_probe = len(stats.paths)
    slopes = np.empty(n_probe)
    for pid, traj in enumerate(stats.paths):
        if traj.error is not None:
            raise EngineError(traj.error)
        last = traj.log_states.shape[0] - 1
        idx = max(1, last // 2) if traj.blowup_time is not None else last
        slopes[pid] = float(w @ (traj.log_states[idx] - y0)) / traj.times[idx]
    halted = stats.blowup_time[np.isfinite(stats.blowup_time)]
    return {
        "weights": [float(v) for v in w],
        "slope_mean": float(slopes.mean()),
        "slope_se": (float(slopes.std(ddof=1) / np.sqrt(n_probe)) if n_probe > 1
                     else float("nan")),
        "blowup_fraction": counts["blow-up"] / stats.n_paths,
        "median_halt_time": float(np.median(halted)) if halted.size else None,
    }


def detect_blowup_signature(model: KolmogorovModel, cfg: SimConfig | None = None,
                            x0: np.ndarray | None = None) -> dict:
    """Measured drift of the weighted log-total b2*ln X1 + b1*ln X2.

    For two-species Lotka-Volterra models the weights come from the
    self-limitation coefficients (the combination whose interaction terms
    cancel); otherwise both weights are 1.  A positive slope beyond its
    uncertainty is the blow-up signature.
    """
    _, x0, stats = _ensemble(model, cfg, x0, probes=True)
    return {**_signature(model, stats, x0, classify_paths(stats, {})[0]), "stats": stats}


# ---------------------------------------------------------------------------
# per-verdict evidence: each grader returns (checks, report fields)

def _grade_persistent(model, stats: EnsembleStats, counts: dict,
                      mean: np.ndarray, se: np.ndarray) -> tuple[list, dict]:
    checks = [CheckResult(
        name="paths_stay_interior",
        status="pass" if counts["interior"] == stats.n_paths else "FAILED",
        detail="no species may sit below the extinction threshold at the horizon",
        values={"interior": counts["interior"], "total": stats.n_paths})]

    for i in range(model.n):
        bad = np.isfinite(mean[i]) and np.isfinite(se[i]) and mean[i] + 3.0 * se[i] < 0.0
        checks.append(CheckResult(
            name=f"exponent_nonnegative_species_{i + 1}",
            status="FAILED" if bad else "pass",
            detail="empirical growth exponent must not be significantly negative",
            values={"mean": float(mean[i]), "se": float(se[i])}))

    wins = stats.window_histograms
    curve = [tv_distance(a, b) for a, b in zip(wins, wins[1:])]
    if curve:
        # the curve hovers at an MC noise floor once stationary, so a strict
        # final <= first comparison is a coin flip; growth only counts when
        # the last point clears both the start and twice the settled floor
        grew = curve[-1] > max(curve[0], 2.0 * min(curve))
        ok = curve[-1] < 0.05 and not grew
        checks.append(CheckResult(
            name="occupation_tv_settles",
            status="pass" if ok else "FAILED",
            detail=("successive-window total variation must end below 0.05 "
                    "and not climb clear of its settled floor"),
            values={"curve": curve}))

    if model.is_lv:
        try:
            eq, _ = lv_face_equilibrium(model, tuple(range(model.n)))
            rel = np.abs(stats.mean_state - eq) / np.abs(eq)
            checks.append(CheckResult(
                name="interior_moments_match_equilibrium",
                status="pass" if np.all(rel <= 0.03) else "FAILED",
                detail="occupation means must match the solved moments within 3%",
                values={"measured": [float(v) for v in stats.mean_state],
                        "predicted": [float(v) for v in eq],
                        "rel_err": [float(v) for v in rel]}))
        except MeasureError as exc:
            checks.append(CheckResult(
                name="interior_moments_match_equilibrium", status="flag",
                detail=f"no solvable interior equilibrium to compare against: {exc}",
                values={}))
    return checks, {"tv_curve": curve}


def _grade_extinction(verdict, stats: EnsembleStats, counts: dict, labels: np.ndarray,
                      basins: list, low_conf: bool) -> tuple[list, dict]:
    assigned = sum(counts[t.measure.key] for t in verdict.targets)
    checks = [CheckResult(
        name="paths_reach_predicted_sinks",
        status="pass" if assigned > 0 else "FAILED",
        detail="at least some paths must land in a predicted sink",
        values={"assigned": assigned, "total": stats.n_paths})]
    if low_conf:
        checks.append(CheckResult(
            name="unassigned_fraction", status="flag",
            detail="more than 10% of paths not sorted at the horizon: "
                   "extend t_max for stronger evidence",
            values={"interior": counts["interior"],
                    "unassigned": counts["unassigned"]}))

    for t in verdict.targets:
        key = t.measure.key
        sel = np.flatnonzero(labels == key)
        if sel.size < 2:
            if counts[key] > 0:
                checks.append(CheckResult(
                    name=f"extinction_rates_{key}", status="flag",
                    detail="too few assigned paths to measure the decay rates",
                    values={"count": int(sel.size)}))
            continue
        exps = stats.exponents[sel]
        for i, lam in zip(t.extinct, t.rates):
            m = float(exps[:, i].mean())
            se = float(exps[:, i].std(ddof=1) / np.sqrt(sel.size))
            ok = abs(m - lam) <= 3.0 * se
            checks.append(CheckResult(
                name=f"extinction_rate_{key}_species_{i + 1}",
                status="pass" if ok else "FAILED",
                detail="measured log-slope must match the predicted rate within 3 SE",
                values={"measured": m, "se": se, "predicted": float(lam)}))
    return checks, {"basins": basins, "low_confidence": low_conf}


def _grade_blowup(model, stats: EnsembleStats, counts: dict,
                  x0: np.ndarray) -> tuple[list, dict]:
    sig = _signature(model, stats, x0, counts)
    return [
        CheckResult(
            name="blowup_fraction",
            status="pass" if sig["blowup_fraction"] >= 0.99 else "FAILED",
            detail="at least 99% of paths must hit the blow-up threshold",
            values={"fraction": sig["blowup_fraction"],
                    "median_halt_time": sig["median_halt_time"]}),
        CheckResult(
            name="log_total_drifts_up",
            status=("pass" if np.isfinite(sig["slope_se"])
                    and sig["slope_mean"] - 3.0 * sig["slope_se"] > 0.0 else "FAILED"),
            detail="weighted log-total slope must be positive beyond 3 SE",
            values={"slope": sig["slope_mean"], "se": sig["slope_se"],
                    "weights": sig["weights"]}),
    ], {}


def verify_verdict(model: KolmogorovModel, verdict: Verdict,
                   cfg: SimConfig | None = None,
                   x0: np.ndarray | None = None) -> EnsembleReport:
    """Simulate and grade the verdict's claims; returns the evidence report."""
    if verdict.kind == "Inconclusive":
        raise VerifyError("an Inconclusive verdict makes no claim to verify")
    cfg, x0, stats = _ensemble(model, cfg, x0, probes=verdict.kind == "BlowUpRisk")
    notes = []
    if stats.path_errors:
        pid, msg = next(iter(stats.path_errors.items()))
        notes.append(f"{len(stats.path_errors)} paths aborted on evaluation "
                     f"errors (first: path {pid}: {msg})")
    basins, counts, labels, low_conf = estimate_basin_probabilities(stats, verdict)
    mean, se = stats.exponent_summary()

    if verdict.kind == "Persistent":
        checks, fields = _grade_persistent(model, stats, counts, mean, se)
    elif verdict.kind == "Extinction":
        checks, fields = _grade_extinction(verdict, stats, counts, labels, basins, low_conf)
    else:
        checks, fields = _grade_blowup(model, stats, counts, x0)
    if verdict.kind != "BlowUpRisk":
        claim = "a persistent system" if verdict.kind == "Persistent" else "an extinction verdict"
        checks.insert(0, CheckResult(
            name="no_blowup_paths",
            status="pass" if counts["blow-up"] == 0 else "FAILED",
            detail=f"{claim} must not explode",
            values={"blowup_fraction": counts["blow-up"] / stats.n_paths}))

    return EnsembleReport(
        verdict_kind=verdict.kind,
        status="FAILED" if any(c.status == "FAILED" for c in checks) else "PASSED",
        x0=[float(v) for v in x0],
        n_paths=stats.n_paths,
        seed=cfg.seed,
        path_classes=counts,
        exponent_mean=[float(v) for v in mean],
        exponent_se=[float(v) for v in se],
        checks=checks,
        notes=notes,
        stats=stats,
        **fields,
    )
