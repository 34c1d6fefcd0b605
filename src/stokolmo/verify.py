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

A disagreement marks the report FAILED with the offending statistic.
Verification never edits the verdict; it attaches evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import Verdict
from .engine import (EngineError, EnsembleStats, OccupationHistogram, SimConfig,
                     simulate_ensemble, simulate_paths)
# Not called here any more.  perfbench/tracing.py wraps verify.simulate_path
# by name and fails if the attribute is missing, so the name stays importable.
from .engine import simulate_path  # noqa: F401
from .measures import MeasureError, lv_face_equilibrium
from .model import KolmogorovModel, LVDrift


def tv_distance(h1: OccupationHistogram, h2: OccupationHistogram) -> float:
    """Largest per-species total-variation distance between two histograms."""
    if not h1.same_grid(h2) or h1.masses.shape != h2.masses.shape:
        raise ValueError("histograms live on different grids")
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


def classify_paths(stats: EnsembleStats, extinct_sets: dict[str, frozenset],
                   threshold: float) -> tuple[dict[str, int], np.ndarray]:
    """Sort paths by terminal state: sink key, 'interior', 'blow-up', 'unassigned'.

    A path belongs to a sink when the species below the log threshold at
    the horizon are exactly that sink's predicted extinct set.  The
    returned labels array holds one class per path; the counts dict is
    exhaustive and sums to the number of paths.
    """
    P = stats.n_paths
    labels = np.empty(P, dtype=object)
    counts = {key: 0 for key in extinct_sets}
    counts["interior"] = 0
    counts["blow-up"] = 0
    counts["unassigned"] = 0
    for p in range(P):
        if np.isfinite(stats.blowup_time[p]):
            labels[p] = "blow-up"
        else:
            below = frozenset(int(i) for i in np.flatnonzero(stats.y_end[p] < threshold))
            if not below:
                labels[p] = "interior"
            else:
                for key, ext in extinct_sets.items():
                    if below == ext:
                        labels[p] = key
                        break
                else:
                    labels[p] = "unassigned"
        counts[labels[p]] += 1
    return counts, labels


def estimate_basin_probabilities(stats: EnsembleStats, verdict: Verdict,
                                 ) -> tuple[list[BasinEstimate], dict[str, int], np.ndarray, bool]:
    """Per-sink path fractions with binomial intervals, plus the raw split.

    Returns (estimates, class counts, per-path labels, low_confidence);
    low confidence is flagged when more than 10% of the non-blown paths
    ended up neither interior-free nor matched to a predicted sink: the
    horizon was too short to sort them.
    """
    extinct_sets = {
        t.measure.key: frozenset(t.extinct) for t in verdict.targets}
    threshold = stats.cfg.extinct_log_threshold
    counts, labels = classify_paths(stats, extinct_sets, threshold)
    total = stats.n_paths
    estimates = []
    for t in verdict.targets:
        key = t.measure.key
        c = counts[key]
        sm = None
        if c > 0 and t.measure.support:
            sel = np.flatnonzero(labels == key)
            surv = stats.path_mean_state[sel][:, list(t.measure.support)]
            sm = [float(v) for v in surv.mean(axis=0)]
        estimates.append(BasinEstimate(
            measure=key, count=c, total=total, p_hat=c / total,
            ci=_binomial_ci(c, total), survivor_moments=sm))
    not_sorted = counts["interior"] + counts["unassigned"]
    low_confidence = not_sorted > 0.10 * total
    return estimates, counts, labels, low_confidence


def detect_blowup_signature(model: KolmogorovModel, cfg: SimConfig | None = None,
                            x0: np.ndarray | None = None) -> dict:
    """Measured drift of the weighted log-total b2*ln X1 + b1*ln X2.

    For two-species Lotka-Volterra models the weights come from the
    self-limitation coefficients (the combination whose interaction terms
    cancel); otherwise both weights are 1.  A positive slope beyond its
    uncertainty is the blow-up signature.
    """
    if model.n != 2:
        raise ValueError("the blow-up signature is defined for two species")
    cfg = cfg or SimConfig()
    if x0 is None:
        x0 = np.ones(model.n)
    x0 = np.asarray(x0, dtype=float)
    w = np.ones(2)
    if isinstance(model.drift, LVDrift):
        b = -np.diag(model.drift.B)
        if np.all(b > 0.0):
            w = np.array([b[1], b[0]])
    stats = simulate_ensemble(model, x0, cfg)
    # the ensemble terminal of a blown path is one post-threshold Euler step,
    # numerically stiff and meaningless as a state; the slope is measured on
    # stored trajectories instead, at half the halt time (pre-explosion), on
    # a probe subset that replays the exact same paths by counter-based ids,
    # as one block; the first aborted path in id order raises
    n_probe = min(32, cfg.n_paths)
    y0 = np.log(x0)
    slopes = np.empty(n_probe)
    for pid, traj in enumerate(simulate_paths(model, x0, cfg, range(n_probe))):
        if traj.error is not None:
            raise EngineError(traj.error)
        last = traj.log_states.shape[0] - 1
        idx = max(1, last // 2) if traj.blowup_time is not None else last
        slopes[pid] = float(w @ (traj.log_states[idx] - y0)) / traj.times[idx]
    mean = float(slopes.mean())
    se = float(slopes.std(ddof=1) / np.sqrt(n_probe)) if n_probe > 1 else float("nan")
    frac = float(np.mean(np.isfinite(stats.blowup_time)))
    halted = stats.blowup_time[np.isfinite(stats.blowup_time)]
    return {
        "weights": [float(v) for v in w],
        "slope_mean": mean,
        "slope_se": se,
        "blowup_fraction": frac,
        "median_halt_time": float(np.median(halted)) if halted.size else None,
        "stats": stats,
    }


# ---------------------------------------------------------------------------
# per-verdict evidence

def _passed(checks: list[CheckResult]) -> str:
    return "FAILED" if any(c.status == "FAILED" for c in checks) else "PASSED"


def _verify_persistent(model, verdict, stats: EnsembleStats) -> tuple[list[CheckResult], list]:
    checks = []
    frac_blow = float(np.mean(np.isfinite(stats.blowup_time)))
    checks.append(CheckResult(
        name="no_blowup_paths",
        status="pass" if frac_blow == 0.0 else "FAILED",
        detail="a persistent system must not explode",
        values={"blowup_fraction": frac_blow}))

    counts, _ = classify_paths(stats, {}, stats.cfg.extinct_log_threshold)
    n_interior = counts["interior"]
    checks.append(CheckResult(
        name="paths_stay_interior",
        status="pass" if n_interior == stats.n_paths else "FAILED",
        detail="no species may sit below the extinction threshold at the horizon",
        values={"interior": n_interior, "total": stats.n_paths}))

    mean, se = stats.exponent_summary()
    for i in range(model.n):
        bad = np.isfinite(mean[i]) and np.isfinite(se[i]) and mean[i] + 3.0 * se[i] < 0.0
        checks.append(CheckResult(
            name=f"exponent_nonnegative_species_{i + 1}",
            status="FAILED" if bad else "pass",
            detail="empirical growth exponent must not be significantly negative",
            values={"mean": float(mean[i]), "se": float(se[i])}))

    curve = []
    wins = stats.window_histograms
    for a, b in zip(wins, wins[1:]):
        curve.append(tv_distance(a, b))
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
            values={"curve": [float(v) for v in curve]}))

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
    return checks, curve


def _verify_extinction(model, verdict, stats: EnsembleStats
                       ) -> tuple[list[CheckResult], list[BasinEstimate], dict, bool]:
    checks = []
    estimates, counts, labels, low_conf = estimate_basin_probabilities(stats, verdict)

    frac_blow = counts["blow-up"] / stats.n_paths
    checks.append(CheckResult(
        name="no_blowup_paths",
        status="pass" if counts["blow-up"] == 0 else "FAILED",
        detail="an extinction verdict must not explode",
        values={"blowup_fraction": frac_blow}))

    assigned = sum(counts[t.measure.key] for t in verdict.targets)
    checks.append(CheckResult(
        name="paths_reach_predicted_sinks",
        status="pass" if assigned > 0 else "FAILED",
        detail="at least some paths must land in a predicted sink",
        values={"assigned": assigned, "total": stats.n_paths}))
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
    return checks, estimates, counts, low_conf


def _verify_blowup(model, verdict, cfg, x0) -> tuple[list[CheckResult], dict, EnsembleStats]:
    sig = detect_blowup_signature(model, cfg, x0)
    stats = sig.pop("stats")
    checks = [
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
    ]
    return checks, sig, stats


def verify_verdict(model: KolmogorovModel, verdict: Verdict,
                   cfg: SimConfig | None = None,
                   x0: np.ndarray | None = None) -> EnsembleReport:
    """Simulate and grade the verdict's claims; returns the evidence report."""
    if verdict.kind == "Inconclusive":
        raise ValueError("an Inconclusive verdict makes no claim to verify")
    cfg = cfg or SimConfig()
    if x0 is None:
        x0 = np.ones(model.n)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n,) or np.any(x0 <= 0.0) or not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be strictly positive and finite for every species")

    notes: list[str] = []
    basins: list[BasinEstimate] = []
    tv_curve: list = []
    low_conf = False

    if verdict.kind == "BlowUpRisk":
        checks, sig, stats = _verify_blowup(model, verdict, cfg, x0)
        counts, _ = classify_paths(stats, {}, cfg.extinct_log_threshold)
    else:
        stats = simulate_ensemble(model, x0, cfg)
        if stats.path_errors:
            pid, msg = next(iter(stats.path_errors.items()))
            notes.append(f"{len(stats.path_errors)} paths aborted on evaluation "
                         f"errors (first: path {pid}: {msg})")
        if verdict.kind == "Persistent":
            checks, tv_curve = _verify_persistent(model, verdict, stats)
            counts, _ = classify_paths(stats, {}, cfg.extinct_log_threshold)
        else:
            checks, basins, counts, low_conf = _verify_extinction(model, verdict, stats)

    mean, se = stats.exponent_summary()
    return EnsembleReport(
        verdict_kind=verdict.kind,
        status=_passed(checks),
        x0=[float(v) for v in x0],
        n_paths=stats.n_paths,
        seed=cfg.seed,
        path_classes=counts,
        exponent_mean=[float(v) for v in mean],
        exponent_se=[float(v) for v in se],
        checks=checks,
        basins=basins,
        tv_curve=[float(v) for v in tv_curve],
        low_confidence=low_conf,
        notes=notes,
        stats=stats,
    )
