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

from .model import ConstantNoise, KolmogorovModel, LVDrift


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


def _sample_points(n: int) -> np.ndarray:
    # grid including the faces (coordinates exactly 0) plus uniform fill;
    # at least 100 points total regardless of dimension
    per_axis = max(2, int(np.ceil(100 ** (1.0 / n))))
    per_axis = min(per_axis, 12)
    axes = [np.linspace(0.0, _SAMPLE_RADIUS, per_axis) for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    rng = np.random.Generator(np.random.Philox(key=np.array([_SAMPLE_SEED, 0], dtype=np.uint64)))
    rand = rng.uniform(0.0, _SAMPLE_RADIUS, size=(_SAMPLE_RANDOM_POINTS, n))
    return np.vstack([grid, rand])


def check_nondegeneracy(model: KolmogorovModel) -> AssumptionCheck:
    """Sampled positive-definiteness of the diffusion matrix g_i g_j sigma_ij.

    The theory requires x^T A(x) x >= gamma ||x||^2 with A_ij(x) =
    g_i(x) g_j(x) sigma_ij on every compact.  We probe a grid (including
    boundary faces, where state-dependent amplitudes most often die) and
    random points, and report the worst eigenvalue with its witness.
    """
    pts = _sample_points(model.n)
    worst = np.inf
    worst_x = None
    for x in pts:
        g = model.noise_amp_at(x)
        A = np.outer(g, g) * model.sigma
        lam = float(np.linalg.eigvalsh(A)[0])
        if lam < worst:
            worst = lam
            worst_x = x
    scale = max(1.0, float(np.max(np.abs(model.sigma))))
    if worst <= 1e-10 * scale:
        return AssumptionCheck(
            name="nondegenerate-noise",
            status="fail",
            detail=(f"diffusion matrix loses rank: smallest eigenvalue "
                    f"{worst:.6g} at the witness point"),
            witness={"point": [float(v) for v in worst_x], "eigenvalue": worst},
        )
    if isinstance(model.noise, ConstantNoise):
        # constant amplitudes with positive definite sigma: exact statement
        return AssumptionCheck(
            name="nondegenerate-noise", status="pass",
            detail=(f"constant noise amplitudes and positive definite covariance; "
                    f"sampled minimum eigenvalue {worst:.6g} over {len(pts)} points"),
        )
    return AssumptionCheck(
        name="nondegenerate-noise", status="heuristic-pass",
        detail=(f"state-dependent amplitudes: sampled minimum eigenvalue "
                f"{worst:.6g} over {len(pts)} points in [0, {_SAMPLE_RADIUS}]^n"),
    )


# ---------------------------------------------------------------------------
# tightness

def _lv_blocks(model: KolmogorovModel):
    if not isinstance(model.drift, LVDrift) or not isinstance(model.noise, ConstantNoise):
        return None
    return model.drift.a, model.drift.B, model.noise.g


def _sampled_dissipativity(model: KolmogorovModel, c: np.ndarray,
                           gamma_b: float = 1e-3, seed: int = 77) -> tuple[bool, list]:
    """Probe the Lyapunov bracket with weight vector c on growing spheres.

    The bracket is  sum_i c_i x_i f_i / (1 + c.x)
                    - (1/2) sum_ij sigma_ij c_i c_j x_i x_j g_i g_j / (1 + c.x)^2
                    + gamma_b (1 + sum_i (|f_i| + g_i^2)),
    which must be negative for large ||x||.  Directions: the 2n half-axes
    plus 50 random rays; radii 10^1..10^4.  Returns (ok, table) where ok
    means the worst value improves monotonically with radius and is
    negative at the largest one.
    """
    n = model.n
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    dirs = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        dirs.append(e)
        if n > 1:
            e2 = np.ones(n) * 0.05
            e2[i] = 1.0
            dirs.append(e2 / np.linalg.norm(e2))
    for _ in range(50):
        v = rng.uniform(0.05, 1.0, size=n)
        dirs.append(v / np.linalg.norm(v))
    dirs = np.array(dirs)
    radii = [10.0, 100.0, 1000.0, 10000.0]
    sig = model.sigma
    table = []
    worst_by_radius = []
    for r in radii:
        pts = dirs * r
        f = model.drift_at(pts)
        g = model.noise_amp_at(pts)
        cx = pts @ c
        lin = (pts * f) @ c / (1.0 + cx)
        quad = np.einsum("pi,ij,pj->p", pts * g * c, sig, pts * g) / (1.0 + cx) ** 2
        pen = gamma_b * (1.0 + np.sum(np.abs(f) + g * g, axis=1))
        vals = lin - 0.5 * quad + pen
        worst = float(np.max(vals))
        worst_by_radius.append(worst)
        table.append({"radius": r, "worst_bracket": worst})
    ok = worst_by_radius[-1] < 0.0 and all(
        worst_by_radius[k + 1] <= worst_by_radius[k] + 1e-9
        for k in range(len(worst_by_radius) - 1)
    )
    return ok, table


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
    blocks = _lv_blocks(model)
    if blocks is not None:
        a, B, g = blocks
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
                    drift_rate = (b2 * (a[0] - 0.5 * model.sigma[0, 0] * g[0] ** 2)
                                  + b1 * (a[1] - 0.5 * model.sigma[1, 1] * g[1] ** 2))
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
                ok, table = _sampled_dissipativity(model, np.ones(2))
                return AssumptionCheck(
                    name="tightness",
                    status="heuristic-pass" if ok else "heuristic-fail",
                    detail=("mutual-benefit coupling with b1*b2 - c1*c2 > 0: no "
                            "structured certificate, sampled bracket "
                            + ("negative and improving" if ok else "not conclusive")),
                    witness={"c": [1.0, 1.0], "radii": table},
                )
            for p, q in ((0, 1), (1, 0)):
                # species p is prey for predator q
                if B[q, p] > 0.0 and B[p, q] < 0.0 and a[q] <= 0.0:
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
            ok, table = _sampled_dissipativity(model, np.ones(n))
            return AssumptionCheck(
                name="tightness",
                status="heuristic-pass" if ok else "heuristic-fail",
                detail=("mixed interaction signs: sampled Lyapunov bracket with unit "
                        "weights " + ("negative and improving with radius"
                                      if ok else "fails to certify boundedness")),
                witness={"c": [1.0] * n, "radii": table},
            )
        return AssumptionCheck(
            name="tightness", status="heuristic-fail",
            detail="a species lacks self-limitation (nonnegative diagonal entry)",
            witness={"diagonal": [float(B[i, i]) for i in range(n)]},
        )
    ok, table = _sampled_dissipativity(model, np.ones(model.n))
    return AssumptionCheck(
        name="tightness",
        status="heuristic-pass" if ok else "heuristic-fail",
        detail=("general coefficients: sampled Lyapunov bracket "
                + ("negative and improving with radius" if ok
                   else "fails to certify boundedness")),
        witness={"c": [1.0] * model.n, "radii": table},
    )


# ---------------------------------------------------------------------------
# growth bound

def check_growth_condition(model: KolmogorovModel, delta1: float = 0.5,
                           seed: int = 91) -> AssumptionCheck:
    """Noise-versus-coefficients growth bound behind the decay-rate claims.

    Requires  ||x||^delta1 * sum_i g_i^2(x) / (1 + sum_i (|f_i| + |g_i|^2))
    to vanish as ||x|| grows.  Lotka-Volterra drift with constant noise
    passes analytically: the numerator grows like ||x||^delta1 with
    delta1 < 1 while the denominator grows linearly.  Otherwise the ratio
    is sampled on growing spheres and must decay monotonically below 1e-3.
    """
    if _lv_blocks(model) is not None and delta1 < 1.0:
        return AssumptionCheck(
            name="growth-bound", status="pass",
            detail=(f"constant noise with affine drift: ratio decays like "
                    f"||x||^({delta1} - 1)"),
        )
    n = model.n
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2], dtype=np.uint64)))
    dirs = [np.eye(n)[i] for i in range(n)]
    for _ in range(50):
        v = rng.uniform(0.05, 1.0, size=n)
        dirs.append(v / np.linalg.norm(v))
    dirs = np.array(dirs)
    radii = [10.0, 100.0, 1000.0, 10000.0]
    worst = []
    table = []
    for r in radii:
        pts = dirs * r
        f = model.drift_at(pts)
        g = model.noise_amp_at(pts)
        num = r ** delta1 * np.sum(g * g, axis=1)
        den = 1.0 + np.sum(np.abs(f) + g * g, axis=1)
        w = float(np.max(num / den))
        worst.append(w)
        table.append({"radius": r, "worst_ratio": w})
    decaying = all(worst[k + 1] < worst[k] for k in range(len(worst) - 1))
    small = worst[-1] < 1e-3
    if decaying and small:
        return AssumptionCheck(
            name="growth-bound", status="heuristic-pass",
            detail=f"sampled ratio decays to {worst[-1]:.3g} at radius {radii[-1]:g}",
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
