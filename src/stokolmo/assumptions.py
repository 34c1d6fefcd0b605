"""Standing-hypothesis checks: noise nondegeneracy, tightness, growth bound.

The classification theory needs three things from a model before its
conclusions mean anything: the driving noise must be uniformly
nondegenerate on compacts, a Lyapunov-type boundedness condition must
hold so mass cannot escape to infinity, and (for the sharper extinction
statements) a growth bound on the noise relative to the coefficients.
None of these are decidable for arbitrary coefficient expressions, so
each check returns a status from

    pass            proved for a structured class we recognize
    heuristic-pass  sampled evidence only, believed but not proved
    heuristic-fail  sampled evidence against
    fail            proved to fail (with the witness / reason)

and the classifier treats them accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ConstantNoise, KolmogorovModel, ModelError


@dataclass
class AssumptionCheck:
    name: str
    status: str                  # pass | heuristic-pass | heuristic-fail | fail
    detail: str = ""
    witness: dict | None = None  # offending point / eigenvalue / reason payload

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "status": self.status, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class AssumptionReport:
    nondegenerate: AssumptionCheck
    tightness: AssumptionCheck
    growth: AssumptionCheck
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "nondegenerate": self.nondegenerate.to_json_dict(),
            "tightness": self.tightness.to_json_dict(),
            "growth": self.growth.to_json_dict(),
            "notes": list(self.notes),
        }


# pointwise conditions are probed on a box [0, radius]^n: a grid plus a
# random fill of this many points from this seed
_SAMPLE_RADIUS = 10.0
_SAMPLE_RANDOM_POINTS = 100
_SAMPLE_SEED = 2024
# the grid has per_axis^n points; past this many (12 species), only the
# origin and the grid points on the axes are probed
_SAMPLE_GRID_BUDGET = 4096


def _per_axis(n: int) -> int:
    # grid including the faces (coordinates exactly 0) plus uniform fill;
    # at least 100 points total regardless of dimension
    return min(max(2, int(np.ceil(100 ** (1.0 / n)))), 12)


def _sample_points(n: int) -> np.ndarray:
    """The grid, origin first, then the random fill.  A grid over the budget
    is cut to the origin followed by the axis points, axis by axis."""
    axis = np.linspace(0.0, _SAMPLE_RADIUS, _per_axis(n))
    if axis.size ** n <= _SAMPLE_GRID_BUDGET:
        mesh = np.meshgrid(*[axis] * n, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=-1)
    else:
        m = axis.size - 1
        grid = np.zeros((1 + n * m, n))
        for i in range(n):
            grid[1 + i * m:1 + (i + 1) * m, i] = axis[1:]
    rng = np.random.Generator(np.random.Philox(key=np.array([_SAMPLE_SEED, 0], dtype=np.uint64)))
    rand = rng.uniform(0.0, _SAMPLE_RADIUS, size=(_SAMPLE_RANDOM_POINTS, n))
    return np.vstack([grid, rand])


def check_nondegeneracy(model: KolmogorovModel) -> AssumptionCheck:
    """Sampled positive-definiteness of the diffusion matrix g_i g_j sigma_ij.

    The theory requires x^T A(x) x >= gamma ||x||^2 with A_ij(x) =
    g_i(x) g_j(x) sigma_ij on every compact.  We probe a grid (including
    boundary faces, where state-dependent amplitudes most often die) and
    random points, and report the worst eigenvalue with its first witness.
    Constant amplitudes give the same matrix at every point, so only the
    first point, the origin, is decomposed and no grid is built; the report
    still counts every point.  State-dependent amplitudes are evaluated and
    decomposed at all points at once; a grid over ``_SAMPLE_GRID_BUDGET``
    points is cut to its axis points, and the report says so.
    """
    n = model.n
    constant = isinstance(model.noise, ConstantNoise)
    pts = np.zeros((1, n)) if constant else _sample_points(n)
    grid = _per_axis(n) ** n
    G = model.noise_amp_at(pts)
    _require_finite("nondegenerate-noise", pts, G)
    lams = np.linalg.eigvalsh(G[:, :, None] * G[:, None, :] * model.sigma)[:, 0]
    lams[np.isnan(lams)] = np.inf    # an overflowing matrix has no eigenvalue to rank
    k = int(np.argmin(lams))
    worst, worst_x = float(lams[k]), pts[k]
    scale = max(1.0, float(np.max(np.abs(model.sigma))))
    if worst <= 1e-10 * scale:
        return AssumptionCheck(
            name="nondegenerate-noise",
            status="fail",
            detail=(f"diffusion matrix loses rank: smallest eigenvalue "
                    f"{worst:.6g} at the witness point"),
            witness={"point": [float(v) for v in worst_x], "eigenvalue": worst},
        )
    if constant:
        # constant amplitudes with positive definite sigma: exact statement
        return AssumptionCheck(
            name="nondegenerate-noise", status="pass",
            detail=(f"constant noise amplitudes and positive definite covariance; "
                    f"sampled minimum eigenvalue {worst:.6g} over "
                    f"{grid + _SAMPLE_RANDOM_POINTS} points"),
        )
    cut = ("" if grid <= _SAMPLE_GRID_BUDGET else
           f" (the origin, the axis points and the random fill: the full grid of "
           f"{grid} points is over the budget of {_SAMPLE_GRID_BUDGET})")
    return AssumptionCheck(
        name="nondegenerate-noise", status="heuristic-pass",
        detail=(f"state-dependent amplitudes: sampled minimum eigenvalue "
                f"{worst:.6g} over {len(pts)} points in [0, {_SAMPLE_RADIUS}]^n{cut}"),
    )


# ---------------------------------------------------------------------------
# tightness

# dissipativity penalty weight and direction seed of the sampled bracket
_GAMMA_B = 1e-3
_BRACKET_SEED = 77
_RADII = (10.0, 100.0, 1000.0, 10000.0)
_BRACKET_PASSED = "negative and improving with radius"
_BRACKET_FAILED = "fails to certify boundedness"


def _require_finite(check: str, pts: np.ndarray, *values: np.ndarray):
    """Refuse drift or noise values, one row per sample point, that are not
    all finite, naming the check and the first such point."""
    ok = np.all([np.isfinite(v).all(axis=1) for v in values], axis=0)
    if not ok.all():
        raise ModelError(f"{check}: drift or noise is not finite at the sample "
                         f"point {[float(v) for v in pts[np.argmin(ok)]]}")


def _on_spheres(model: KolmogorovModel, check: str, seed: int, stream: int,
                tilted: bool):
    """Yield (radius, points, f, g) on growing spheres: the n half-axes (each
    followed, when ``tilted`` and n > 1, by its ray tilted 0.05 toward the
    others), then 50 random rays from the Philox key (seed, stream).  A
    non-finite f or g is a model error of ``check``."""
    n = model.n
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, stream], dtype=np.uint64)))
    dirs = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        dirs.append(e)
        if tilted and n > 1:
            e2 = np.ones(n) * 0.05
            e2[i] = 1.0
            dirs.append(e2 / np.linalg.norm(e2))
    for _ in range(50):
        v = rng.uniform(0.05, 1.0, size=n)
        dirs.append(v / np.linalg.norm(v))
    dirs = np.array(dirs)
    for r in _RADII:
        pts = dirs * r
        f, g = model.drift_at(pts), model.noise_amp_at(pts)
        _require_finite(check, pts, f, g)
        yield r, pts, f, g


def _sampled_tightness(model: KolmogorovModel, lead: str, passed: str,
                       failed: str) -> AssumptionCheck:
    """The Lyapunov bracket with unit weights c, probed on growing spheres,
    as a tightness verdict: ``lead`` followed by ``passed`` or ``failed``.

    The bracket is  sum_i c_i x_i f_i / (1 + c.x)
                    - (1/2) sum_ij sigma_ij c_i c_j x_i x_j g_i g_j / (1 + c.x)^2
                    + _GAMMA_B (1 + sum_i (|f_i| + g_i^2)),
    which must be negative for large ||x||.  Directions: the 2n half-axes
    and tilted axes plus 50 random rays; radii 10^1..10^4.  It passes when
    the worst value improves monotonically with radius and is negative at
    the largest one.
    """
    c = np.ones(model.n)
    table = []
    worst = []
    for r, pts, f, g in _on_spheres(model, "tightness", _BRACKET_SEED, 1, tilted=True):
        cx = pts @ c
        lin = (pts * f) @ c / (1.0 + cx)
        quad = np.einsum("pi,ij,pj->p", pts * g * c, model.sigma, pts * g) / (1.0 + cx) ** 2
        pen = _GAMMA_B * (1.0 + np.sum(np.abs(f) + g * g, axis=1))
        worst.append(float(np.max(lin - 0.5 * quad + pen)))
        table.append({"radius": r, "worst_bracket": worst[-1]})
    ok = worst[-1] < 0.0 and all(worst[k + 1] <= worst[k] + 1e-9
                                 for k in range(len(worst) - 1))
    return AssumptionCheck(
        name="tightness",
        status="heuristic-pass" if ok else "heuristic-fail",
        detail=lead + (passed if ok else failed),
        witness={"c": [1.0] * model.n, "radii": table},
    )


def check_tightness(model: KolmogorovModel) -> AssumptionCheck:
    """Boundedness-in-probability certificate, by structure when possible.

    Recognized structured cases (Lotka-Volterra drift, constant noise):

    * self-limiting with no positive interactions (all B_ij <= 0, B_ii < 0):
      holds with weights c = (1, .., 1);
    * two species, prey supporting one predator (B_21 >= 0 >= B_12, both
      diagonals negative, predator declines alone): holds with the classic
      cross weights c = (B_21, -B_12), which cancel the predation transfer;
    * two species helping each other (B_12, B_21 > 0): when
      B_11 B_22 - B_12 B_21 < 0 the mutual boost beats self-limitation and
      the check provably fails; the weighted log-sum drifts upward at a
      positive rate, which is the blow-up signature the classifier reports.

    Everything else falls back to sampling the Lyapunov bracket with unit
    weights on growing spheres.
    """
    if model.is_lv:
        B = model.drift.B
        n = model.n
        diag_neg = all(B[i, i] < 0.0 for i in range(n))
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        if diag_neg and all(B[i, j] <= 0.0 for i, j in off):
            return AssumptionCheck(
                name="tightness", status="pass",
                detail=("self-limiting interactions (all off-diagonal coefficients "
                        "non-positive, negative diagonal): bounded with unit weights"),
                witness={"c": [1.0] * n},
            )
        if n == 2 and diag_neg:
            # mutual-benefit pattern first: it is the dangerous one
            if B[0, 1] > 0.0 and B[1, 0] > 0.0:
                disc = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
                if disc < 0.0:
                    b1, b2 = -B[0, 0], -B[1, 1]
                    c1, c2 = B[0, 1], B[1, 0]
                    r0 = model.growth_rate_origin()
                    drift_rate = b2 * r0[0] + b1 * r0[1]
                    return AssumptionCheck(
                        name="tightness", status="fail",
                        detail=(f"mutual-benefit coupling beats self-limitation: "
                                f"b1*b2 - c1*c2 = {disc:.6g} < 0; the weighted "
                                f"log-state b2*ln(x1) + b1*ln(x2) has drift at least "
                                f"{drift_rate:.6g} plus a positive state-dependent term"),
                        witness={
                            "reason": "b1*b2 - c1*c2 < 0",
                            "b1*b2 - c1*c2": float(disc),
                            "log_weights": [float(b2), float(b1)],
                            "drift_lower_bound": float(drift_rate),
                        },
                    )
                return _sampled_tightness(
                    model, "mutual-benefit coupling with b1*b2 - c1*c2 > 0: no "
                    "structured certificate, sampled bracket ",
                    "negative and improving", "not conclusive")
            for p, q in ((0, 1), (1, 0)):
                # species p is prey for predator q
                if B[q, p] > 0.0 and B[p, q] < 0.0 and model.drift.a[q] <= 0.0:
                    c = np.zeros(2)
                    c[p] = B[q, p]
                    c[q] = -B[p, q]
                    return AssumptionCheck(
                        name="tightness", status="pass",
                        detail=("predator-prey pattern: cross weights cancel the "
                                "predation transfer and self-limitation does the rest"),
                        witness={"c": [float(v) for v in c]},
                    )
        if diag_neg:
            return _sampled_tightness(
                model, "mixed interaction signs: sampled Lyapunov bracket with "
                "unit weights ", _BRACKET_PASSED, _BRACKET_FAILED)
        return AssumptionCheck(
            name="tightness", status="heuristic-fail",
            detail="a species lacks self-limitation (nonnegative diagonal entry)",
            witness={"diagonal": [float(B[i, i]) for i in range(n)]},
        )
    return _sampled_tightness(
        model, "general coefficients: sampled Lyapunov bracket ",
        _BRACKET_PASSED, _BRACKET_FAILED)


# ---------------------------------------------------------------------------
# growth bound

# growth exponent delta1 < 1 of the bound and direction seed of its sampling
_DELTA1 = 0.5
_GROWTH_SEED = 91


def check_growth_condition(model: KolmogorovModel) -> AssumptionCheck:
    """Noise-versus-coefficients growth bound behind the decay-rate claims.

    Requires  ||x||^delta1 * sum_i g_i^2(x) / (1 + sum_i (|f_i| + |g_i|^2))
    to vanish as ||x|| grows, with delta1 = ``_DELTA1`` < 1.  Lotka-Volterra
    drift with constant noise passes analytically: the numerator grows
    like ||x||^delta1 while the denominator grows linearly.  Otherwise the
    ratio is sampled on growing spheres and must decay monotonically below
    1e-3.
    """
    if model.is_lv:
        return AssumptionCheck(
            name="growth-bound", status="pass",
            detail=(f"constant noise with affine drift: ratio decays like "
                    f"||x||^({_DELTA1} - 1)"),
        )
    worst = []
    table = []
    for r, _pts, f, g in _on_spheres(model, "growth-bound", _GROWTH_SEED, 2, tilted=False):
        num = r ** _DELTA1 * np.sum(g * g, axis=1)
        den = 1.0 + np.sum(np.abs(f) + g * g, axis=1)
        w = float(np.max(num / den))
        worst.append(w)
        table.append({"radius": r, "worst_ratio": w})
    decaying = all(worst[k + 1] < worst[k] for k in range(len(worst) - 1))
    small = worst[-1] < 1e-3
    if decaying and small:
        return AssumptionCheck(
            name="growth-bound", status="heuristic-pass",
            detail=f"sampled ratio decays to {worst[-1]:.3g} at radius {_RADII[-1]:g}",
            witness={"radii": table},
        )
    return AssumptionCheck(
        name="growth-bound", status="heuristic-fail",
        detail=(f"sampled ratio does not vanish (last value {worst[-1]:.3g}"
                + ("" if decaying else ", not even decreasing") + ")"),
        witness={"radii": table},
    )


def run_assumption_checks(model: KolmogorovModel) -> AssumptionReport:
    return AssumptionReport(
        nondegenerate=check_nondegeneracy(model),
        tightness=check_tightness(model),
        growth=check_growth_condition(model),
    )
