"""Boundary ergodic measures and invasion rates.

Every verdict in this package reduces to one table: the boundary of the
positive orthant decomposes into faces (subsets of surviving species),
each face supports at most one ergodic measure giving mass to its
interior, and each measure mu is summarized by the invasion rates

    lambda_i(mu) = integral of (f_i(x) - sigma_ii g_i(x)^2 / 2) mu(dx),

the average per-capita growth rate of species i when the rest of the
community is distributed according to mu.  For a species inside mu's
support this integral vanishes; off the support its sign says whether
species i invades or dies against that community.

Measures are found bottom-up over the face lattice.  The point mass at
the origin always exists.  A face acquires an interior measure exactly
when the subsystem restricted to it passes the maximin persistence test
against the measures already found on its own boundary; the measure is
then represented analytically (Lotka-Volterra moments), by quadrature
(one-dimensional stationary density), or by Monte Carlo occupation, in
that order of preference.  Anything that cannot be resolved marks the
face, and every superface, as unresolved rather than guessing.

Every sign decision is one rule, :func:`maximin_decision`, on a block of
the rate table: pin on-support rates and half widths to zero, require
every other sign to be known, solve for the maximin weights p and margin
t*, take as band the largest p . ci over the binding rows (p . rates <=
t* + 1e-12 + 1e-9 |t*|), and decide the sign of t* only beyond
max(decision_tol, band).  Discovery and every verdict test use it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .engine import EngineError, SimConfig, simulate_paths
# Not called here any more.  perfbench/tracing.py wraps measures.simulate_path
# by name and fails if the attribute is missing, so the name stays importable.
from .engine import simulate_path  # noqa: F401
from .model import ConstantNoise, KolmogorovModel, LVDrift, restrict_to_face
from .simplex import solve_maximin

_MASK64 = (1 << 64) - 1

# two-sided 97.5% Student t quantiles for batch-mean intervals
_T975 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093,
    20: 2.086,
}


def t_quantile_975(df: int) -> float:
    if df < 1:
        raise ValueError("need at least one degree of freedom")
    return _T975.get(df, 1.96 + 2.52 / df)


class MeasureError(ValueError):
    pass


class DensityError(MeasureError):
    pass


@dataclass(frozen=True)
class AnalysisBudget:
    """Numerical effort knobs for boundary discovery and classification."""

    face_sim: SimConfig = field(default_factory=lambda: SimConfig(n_paths=4))
    batches: int = 20
    decision_tol: float = 1e-9          # |value| below this counts as an exact zero

    def __post_init__(self):
        if self.batches < 2:
            raise ValueError("need at least two batches for an interval")
        if self.decision_tol <= 0.0:
            raise ValueError("decision_tol must be positive")


# ---------------------------------------------------------------------------
# measure representations

@dataclass
class EmpiricalPayload:
    batch_rates: np.ndarray      # (batches, n_full) integrand batch means
    batch_moments: np.ndarray    # (batches, |face|) state batch means
    sim_time: float
    n_paths: int


@dataclass
class ErgodicMeasure:
    """One boundary (or interior) ergodic measure of the system.

    ``support`` holds 0-based indices into the full model; empty support
    is the point mass at the origin.  ``moments`` embeds the first
    moments into the full coordinate space with zeros off the support.
    """

    support: tuple[int, ...]
    kind: str                    # dirac-origin | lv-moments | density-1d | empirical
    provenance: str              # analytic | quadrature | monte-carlo
    moments: np.ndarray
    moments_ci: np.ndarray | None = None
    density: "StationaryDensity1D | None" = None
    empirical: EmpiricalPayload | None = None
    residual: float = 0.0        # defining-equation residual for the representation

    @property
    def key(self) -> str:
        if not self.support:
            return "origin"
        return "face_" + "_".join(str(i + 1) for i in self.support)

    def support_labels(self) -> list[int]:
        return [i + 1 for i in self.support]

    def to_json_dict(self) -> dict:
        out = {
            "support": self.support_labels(),
            "kind": self.kind,
            "provenance": self.provenance,
            "moments": [float(v) for v in self.moments],
            "representation_residual": float(self.residual),
        }
        if self.moments_ci is not None:
            out["moments_ci"] = [float(v) for v in self.moments_ci]
        if self.density is not None:
            out["density"] = self.density.summary_dict()
        return out


# ---------------------------------------------------------------------------
# Lotka-Volterra face equilibria

def lv_face_equilibrium(model: KolmogorovModel, face) -> tuple[np.ndarray, float]:
    """First moments of the interior measure on a face, for LV models.

    On the face the stationary moments solve the linear system
        a_i - sigma_ii g_i^2 / 2 + sum_{j in face} B_ij m_j = 0, i in face.
    Returns (moments embedded in full space, residual).  Raises
    :class:`MeasureError` when the system is singular or the solution is
    not strictly positive, in which case the face carries no interior
    measure representable this way.
    """
    if not isinstance(model.drift, LVDrift) or not isinstance(model.noise, ConstantNoise):
        raise MeasureError("face equilibrium needs Lotka-Volterra drift with constant noise")
    idx = sorted(set(int(i) for i in face))
    if not idx:
        raise MeasureError("face must contain at least one species")
    sel = np.array(idx, dtype=int)
    A = model.drift.B[np.ix_(sel, sel)]
    rhs = -(model.drift.a[sel]
            - 0.5 * np.diag(model.sigma)[sel] * model.noise.g[sel] ** 2)
    try:
        m = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        raise MeasureError(
            f"face {{{', '.join(str(i + 1) for i in idx)}}}: singular interaction "
            "block, no unique interior equilibrium") from None
    scale = max(1.0, float(np.max(np.abs(A))), float(np.max(np.abs(rhs))))
    residual = float(np.max(np.abs(A @ m - rhs)))
    if residual > 1e-10 * scale:
        raise MeasureError(
            f"face {{{', '.join(str(i + 1) for i in idx)}}}: ill-conditioned "
            f"interaction block (residual {residual:.3g})")
    if np.any(m <= 0.0):
        raise MeasureError(
            f"face {{{', '.join(str(i + 1) for i in idx)}}}: equilibrium has a "
            "non-positive component, no interior measure on this face")
    full = np.zeros(model.n)
    full[sel] = m
    return full, residual


# ---------------------------------------------------------------------------
# one-dimensional stationary density

@dataclass
class StationaryDensity1D:
    """Normalized stationary density of a single-species subsystem.

    Built from the scale/speed construction
        p(u) proportional to (sigma u^2 g^2(u))^-1 exp(psi(u)),
        psi(u) = integral 2 f(v) / (sigma v g^2(v)) dv,
    on a log-space grid wide enough that head and tail mass are verified
    negligible.  ``expectation`` integrates callables against the density
    with composite Simpson on the same grid.
    """

    u: np.ndarray                # grid, ascending, odd length
    pdf: np.ndarray              # normalized density values on the grid
    log_w: np.ndarray            # grid in w = ln u
    mass_weights: np.ndarray     # Simpson weights for integral of h(u) p(u) du
    mean: float
    second_moment: float
    tail_mass: float             # estimated mass above u[-1], relative
    head_mass: float             # estimated mass below u[0], relative
    weak_residual: float
    quad_ci: float               # nominal accuracy scale of expectations

    def expectation(self, h) -> float:
        """Integral of h(u) against the density; h must accept an array."""
        vals = np.asarray(h(self.u), dtype=float)
        return float(np.dot(self.mass_weights, vals))

    def summary_dict(self) -> dict:
        return {
            "grid_points": int(self.u.shape[0]),
            "u_lo": float(self.u[0]),
            "u_max": float(self.u[-1]),
            "mean": float(self.mean),
            "second_moment": float(self.second_moment),
            "tail_mass": float(self.tail_mass),
            "head_mass": float(self.head_mass),
            "weak_residual": float(self.weak_residual),
        }


def _simpson_weights(n: int, h: float) -> np.ndarray:
    # n odd; classic 1-4-2-...-4-1 pattern
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _cumulative_simpson(vals: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral on a uniform grid, fourth order, vals at all nodes."""
    n = vals.shape[0]
    out = np.zeros(n)
    # odd nodes by the three-point half rule, even nodes by full Simpson pairs
    pair = (h / 3.0) * (vals[0:-2:2] + 4.0 * vals[1:-1:2] + vals[2::2])
    half = (h / 12.0) * (5.0 * vals[0:-2:2] + 8.0 * vals[1:-1:2] - vals[2::2])
    out[2::2] = np.cumsum(pair)
    out[1::2] = out[0:-2:2] + half
    return out


_DENSITY_GRID = 4097       # first refinement grid, odd for Simpson
_DENSITY_REL_TOL = 1e-9    # refinement stops once mass and mean move less


def stationary_density_1d(model1d: KolmogorovModel) -> StationaryDensity1D:
    """Stationary density of a one-species model, or a reasoned refusal.

    Raises :class:`DensityError` when no normalizable density exists:
    either the boundary exponent at zero is not integrable (the species'
    growth rate at the origin is non-positive) or mass escapes to
    infinity (unnormalizable tail).
    """
    if model1d.n != 1:
        raise MeasureError("stationary_density_1d needs a one-species model")
    sigma = float(model1d.sigma[0, 0])

    def f_of(u_arr: np.ndarray) -> np.ndarray:
        return model1d.drift_at(u_arr[:, None])[:, 0]

    def g2_of(u_arr: np.ndarray) -> np.ndarray:
        g = model1d.noise_amp_at(u_arr[:, None])[:, 0]
        return g * g

    lam0 = float(model1d.growth_rate_origin()[0])
    if lam0 <= 1e-12:
        raise DensityError(
            f"no normalizable stationary density: growth rate at the origin is "
            f"{lam0:.6g}, so the density is not integrable near zero")

    drop = 26.0 * np.log(10.0)  # require endpoints this many log units under the peak

    def build(w_lo: float, w_hi: float, m: int):
        w = np.linspace(w_lo, w_hi, m)
        h = w[1] - w[0]
        u = np.exp(w)
        d = 2.0 * f_of(u) / (sigma * g2_of(u))
        psi = _cumulative_simpson(d, h)
        logq = -np.log(sigma * g2_of(u)) - 2.0 * w + psi
        s = logq + w   # log of the mass integrand in w space
        return w, h, u, logq, s

    # locate a window: expand until both endpoints are far below the peak
    w_lo, w_hi = -3.0, 3.0
    for _ in range(80):
        w, h, u, logq, s = build(w_lo, w_hi, 513)
        smax = float(np.max(s))
        grew_hi = False
        if s[-1] > smax - drop:
            if w_hi > 230.0:   # u beyond 1e100: nothing physical decays this slowly
                raise DensityError(
                    "density tail does not decay: no normalizable stationary "
                    "density (mass escapes to infinity)")
            w_hi += max(2.0, 0.25 * (w_hi - w_lo))
            grew_hi = True
        grew_lo = False
        if s[0] > smax - drop:
            w_lo -= max(2.0, 0.25 * (w_hi - w_lo))
            grew_lo = True
            if w_lo < -500.0:
                raise DensityError(
                    "density head does not decay: no normalizable stationary density")
        if not grew_hi and not grew_lo:
            break
    else:
        raise DensityError("could not bracket the density support")

    # refine until normalization and mean stabilize
    m = _DENSITY_GRID
    prev = None
    for _ in range(6):
        w, h, u, logq, s = build(w_lo, w_hi, m)
        shift = float(np.max(s))
        weights = _simpson_weights(m, h)
        core = np.exp(s - shift)
        z = float(np.dot(weights, core))
        mean = float(np.dot(weights, core * u)) / z
        if prev is not None:
            dz = abs(z - prev[0]) / prev[0]
            dm = abs(mean - prev[1]) / max(abs(prev[1]), 1e-300)
            if dz < _DENSITY_REL_TOL and dm < _DENSITY_REL_TOL:
                break
        prev = (z, mean)
        m = 2 * m - 1
    second = float(np.dot(weights, core * u * u)) / z

    # monotone-tail mass estimates beyond the grid (geometric extrapolation)
    def edge_mass(side: int) -> float:
        if side > 0:
            slope = (s[-9] - s[-1]) / (8 * h)
            amp = np.exp(s[-1] - shift)
        else:
            slope = (s[8] - s[0]) / (8 * h)
            amp = np.exp(s[0] - shift)
        if slope <= 0.0:
            return float("inf")
        return float(amp / slope / z)

    tail_mass = edge_mass(+1)
    head_mass = edge_mass(-1)
    if not (tail_mass < 1e-6 and head_mass < 1e-6):
        raise DensityError(
            f"density support not captured (head {head_mass:.3g}, tail "
            f"{tail_mass:.3g} of mass outside the grid)")

    pdf = core / (z * u)   # back to u space: p(u) = massdensity_w / u
    mass_weights = weights * core / z

    dens = StationaryDensity1D(
        u=u, pdf=pdf, log_w=w, mass_weights=mass_weights, mean=mean,
        second_moment=second, tail_mass=tail_mass, head_mass=head_mass,
        weak_residual=0.0, quad_ci=0.0,
    )

    # weak-form self test: the generator must integrate to zero against
    # smooth test functions; this exercises psi, the normalization and the
    # grid all at once
    fu = f_of(u)
    g2u = g2_of(u)

    def gen_apply(phi1, phi2):
        # L phi = u f phi' + (sigma/2) u^2 g^2 phi''
        return u * fu * phi1 + 0.5 * sigma * u * u * g2u * phi2

    tests = [
        (u, np.ones_like(u), np.zeros_like(u)),
        (u * u, 2.0 * u, np.full_like(u, 2.0)),
        (u / (1.0 + u), 1.0 / (1.0 + u) ** 2, -2.0 / (1.0 + u) ** 3),
    ]
    worst = 0.0
    for _phi, d1, d2 in tests:
        vals = gen_apply(d1, d2)
        num = abs(float(np.dot(mass_weights, vals)))
        scale = float(np.dot(mass_weights, np.abs(vals)))
        worst = max(worst, num / max(scale, 1e-300))
    dens.weak_residual = worst
    dens.quad_ci = max(1e-10, 100.0 * _DENSITY_REL_TOL)
    if worst > 1e-6:
        raise DensityError(
            f"stationary density failed its weak-form self test (residual {worst:.3g})")
    return dens


# ---------------------------------------------------------------------------
# invasion rates

@dataclass
class InvasionRateTable:
    """lambda_i(mu) for every found measure (rows) and species (columns)."""

    measures: list[ErgodicMeasure]
    rates: np.ndarray        # (n_measures, n)
    ci: np.ndarray           # (n_measures, n) half widths; 0 means exact
    n_species: int
    on_support: np.ndarray = field(init=False, repr=False)   # (n_measures, n) bool

    def __post_init__(self):
        self.on_support = np.array([self._support_row(mu) for mu in self.measures],
                                   dtype=bool).reshape(-1, self.n_species)

    def _support_row(self, mu: ErgodicMeasure) -> list[bool]:
        return [i in mu.support for i in range(self.n_species)]

    def append(self, mu: ErgodicMeasure, rate: np.ndarray, ci: np.ndarray):
        self.measures.append(mu)
        self.rates = np.concatenate([self.rates, [rate]])
        self.ci = np.concatenate([self.ci, [ci]])
        self.on_support = np.concatenate([self.on_support, [self._support_row(mu)]])

    def row(self, key: str) -> np.ndarray:
        for k, mu in enumerate(self.measures):
            if mu.key == key:
                return self.rates[k]
        raise KeyError(key)

    def rows_below(self, face) -> np.ndarray:
        """Rows whose measure support is a proper subset of ``face``."""
        fset = set(face)
        return np.array([k for k, mu in enumerate(self.measures)
                         if set(mu.support) < fset], dtype=int)

    def lp_view(self, rows=None, cols=None):
        """Rates and half widths of a block, with on-support entries pinned
        to zero, and the (row, species) of the block's first entry, in
        measure then species order, whose sign is open (None if every
        sign is known).

        For species inside a measure's support the rate is an exact zero;
        Monte Carlo rows only estimate it, and feeding that noise to the
        weight optimization or to its uncertainty band would wobble the
        decision for no reason.
        """
        rows = np.arange(len(self.measures)) if rows is None else np.asarray(rows, dtype=int)
        cols = np.arange(self.n_species) if cols is None else np.asarray(cols, dtype=int)
        block = (rows[:, None], cols)
        pin = self.on_support[block]
        rates = np.where(pin, 0.0, self.rates[block])
        ci = np.where(pin, 0.0, self.ci[block])
        unknown = np.argwhere((ci > 0.0) & (np.abs(rates) <= ci)) if ci.any() else ()
        first = (int(rows[unknown[0][0]]), int(cols[unknown[0][1]])) if len(unknown) else None
        return rates, ci, first

    def rates_for_lp(self) -> np.ndarray:
        """Copy of the rate matrix with on-support entries pinned to zero."""
        return self.lp_view()[0]

    def to_json_dict(self) -> dict:
        return {
            "species": list(range(1, self.n_species + 1)),
            "rows": [
                {
                    "measure": mu.key,
                    "rates": [float(v) for v in self.rates[k]],
                    "ci": [float(v) for v in self.ci[k]],
                }
                for k, mu in enumerate(self.measures)
            ],
        }


class MaximinDecision(NamedTuple):
    decision: str                # positive | negative | unresolved | undecidable
    p: np.ndarray | None         # optimal species weights over the block's columns
    t_star: float | None         # maximin margin
    band: float                  # Monte Carlo half width of the binding rows
    binding: np.ndarray          # table rows attaining the minimum
    undecidable: tuple[int, int] | None = None   # (table row, species), first unknown sign


def maximin_decision(table: InvasionRateTable, rows=None, cols=None,
                     decision_tol: float = 1e-9) -> MaximinDecision:
    """The maximin persistence test on one block of the table (module docs).

    An entry of unknown sign is reported before any LP is solved."""
    rows = np.arange(len(table.measures)) if rows is None else np.asarray(rows, dtype=int)
    rates, ci, unknown = table.lp_view(rows, cols)
    if unknown is not None:
        return MaximinDecision("undecidable", None, None, 0.0, rows[:0], unknown)
    p, t_star = solve_maximin(rates)
    hit = np.flatnonzero(rates @ p <= t_star + 1e-12 + 1e-9 * abs(t_star))
    band = float(np.max(ci[hit] @ p)) if hit.size else 0.0
    gate = max(decision_tol, band)
    if t_star > gate:
        decision = "positive"
    elif t_star < -gate:
        decision = "negative"
    else:
        decision = "unresolved"
    return MaximinDecision(decision, p, t_star, band, rows[hit])


def _lv_rates(model: KolmogorovModel, moments: np.ndarray) -> np.ndarray:
    a, B = model.drift.a, model.drift.B
    g = model.noise.g
    return a - 0.5 * np.diag(model.sigma) * g * g + B @ moments


def _density_rates(model: KolmogorovModel, species: int,
                   dens: StationaryDensity1D) -> tuple[np.ndarray, np.ndarray]:
    n = model.n
    rates = np.empty(n)
    cis = np.empty(n)
    for i in range(n):
        def integrand(u_arr, i=i):
            X = np.zeros((u_arr.shape[0], n))
            X[:, species] = u_arr
            F = model.drift_at(X)[:, i]
            G = model.noise_amp_at(X)[:, i]
            return F - 0.5 * model.sigma[i, i] * G * G
        rates[i] = dens.expectation(integrand)
        scale = dens.expectation(lambda u_arr, i=i: np.abs(integrand(u_arr, i)))
        cis[i] = dens.quad_ci * max(1.0, abs(scale))
    return rates, cis


def measure_rates(model: KolmogorovModel, mu: ErgodicMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Invasion rates of every species against one measure, with half widths."""
    if mu.kind == "dirac-origin":
        return model.growth_rate_origin(), np.zeros(model.n)
    if mu.kind == "lv-moments":
        return _lv_rates(model, mu.moments), np.zeros(model.n)
    if mu.kind == "density-1d":
        return _density_rates(model, mu.support[0], mu.density)
    if mu.kind == "empirical":
        br = mu.empirical.batch_rates
        b = br.shape[0]
        rate = br.mean(axis=0)
        ci = t_quantile_975(b - 1) * br.std(axis=0, ddof=1) / np.sqrt(b)
        return rate, ci
    raise MeasureError(f"unknown measure kind {mu.kind}")


def invasion_rates(model: KolmogorovModel,
                   measures: list[ErgodicMeasure]) -> InvasionRateTable:
    if not measures:
        raise MeasureError("need at least one measure")
    rows = []
    cis = []
    for mu in measures:
        r, c = measure_rates(model, mu)
        rows.append(r)
        cis.append(c)
    return InvasionRateTable(
        measures=list(measures), rates=np.array(rows), ci=np.array(cis),
        n_species=model.n,
    )


# ---------------------------------------------------------------------------
# Monte Carlo occupation measure on a face

def _face_seed(base: int, face: tuple[int, ...]) -> int:
    bits = 0
    for i in face:
        bits |= 1 << i
    return (base * 0x9E3779B97F4A7C15 + bits + 1) & _MASK64


def _empirical_measure(model: KolmogorovModel, face: tuple[int, ...],
                       budget: AnalysisBudget) -> ErgodicMeasure:
    """Occupation-average representation of a face measure, with batch means."""
    fmodel = restrict_to_face(model, face)
    cfg = replace(budget.face_sim, seed=_face_seed(budget.face_sim.seed, face))
    per_path = max(1, budget.batches // cfg.n_paths)
    sel = np.array(face, dtype=int)
    diag = np.diag(model.sigma)

    batch_rates = []
    batch_moments = []
    # all paths run as one block; errors are raised in path order
    for traj in simulate_paths(fmodel, np.ones(fmodel.n), cfg, range(cfg.n_paths)):
        if traj.error is not None:
            raise EngineError(traj.error)
        if traj.blowup_time is not None:
            raise MeasureError(
                f"face {{{', '.join(str(i + 1) for i in face)}}}: occupation "
                "simulation hit the blow-up threshold")
        if np.any(np.isfinite(traj.extinct_times)):
            raise MeasureError(
                f"face {{{', '.join(str(i + 1) for i in face)}}}: occupation "
                "simulation crossed the extinction threshold, the face does not "
                "hold an interior measure at this budget")
        k0 = cfg.burn_steps + 1
        Xf = np.exp(traj.log_states[k0:])
        S = (Xf.shape[0] // per_path) * per_path
        Xf = Xf[:S]
        X = np.zeros((S, model.n))
        X[:, sel] = Xf
        F = model.drift_at(X)
        G = model.noise_amp_at(X)
        integ = F - 0.5 * diag * G * G
        for seg in np.split(np.arange(S), per_path):
            batch_rates.append(integ[seg].mean(axis=0))
            batch_moments.append(Xf[seg].mean(axis=0))
    br = np.array(batch_rates)
    bm = np.array(batch_moments)
    b = br.shape[0]
    tq = t_quantile_975(b - 1)
    mom_face = bm.mean(axis=0)
    mom_ci_face = tq * bm.std(axis=0, ddof=1) / np.sqrt(b)
    moments = np.zeros(model.n)
    moments[sel] = mom_face
    moments_ci = np.zeros(model.n)
    moments_ci[sel] = mom_ci_face

    rate = br.mean(axis=0)
    ci = tq * br.std(axis=0, ddof=1) / np.sqrt(b)
    for i in face:
        if abs(rate[i]) > max(ci[i], 1e-10):
            raise MeasureError(
                f"face {{{', '.join(str(j + 1) for j in face)}}}: occupation "
                f"average violates the zero-rate identity for species {i + 1} "
                f"({rate[i]:.4g} beyond its interval {ci[i]:.4g}); the "
                "simulation has not equilibrated at this budget")
    payload = EmpiricalPayload(
        batch_rates=br, batch_moments=bm,
        sim_time=cfg.n_paths * (cfg.t_max - cfg.burn_in), n_paths=cfg.n_paths)
    return ErgodicMeasure(
        support=tuple(face), kind="empirical", provenance="monte-carlo",
        moments=moments, moments_ci=moments_ci, empirical=payload,
        residual=float(np.max(np.abs(rate[sel]))),
    )


# ---------------------------------------------------------------------------
# discovery over the face lattice

@dataclass
class BoundaryDiscovery:
    measures: list[ErgodicMeasure]
    table: InvasionRateTable
    unresolved: list[tuple[tuple[int, ...], str]]   # (face, reason)

    def unresolved_labels(self) -> list[dict]:
        return [
            {"face": [i + 1 for i in face], "reason": reason}
            for face, reason in self.unresolved
        ]


def _face_label(face) -> str:
    return "{" + ", ".join(str(i + 1) for i in face) + "}"


def _build_face_measure(model: KolmogorovModel, face: tuple[int, ...],
                        budget: AnalysisBudget) -> ErgodicMeasure:
    if model.is_lv:
        moments, residual = lv_face_equilibrium(model, face)
        return ErgodicMeasure(
            support=face, kind="lv-moments", provenance="analytic",
            moments=moments, residual=residual)
    if len(face) == 1:
        fmodel = restrict_to_face(model, face)
        dens = stationary_density_1d(fmodel)
        moments = np.zeros(model.n)
        moments[face[0]] = dens.mean
        return ErgodicMeasure(
            support=face, kind="density-1d", provenance="quadrature",
            moments=moments, density=dens, residual=dens.weak_residual)
    return _empirical_measure(model, face, budget)


def discover_boundary(model: KolmogorovModel,
                      budget: AnalysisBudget | None = None) -> BoundaryDiscovery:
    """All boundary ergodic measures of the system, found bottom-up.

    The origin is always included.  A proper face of the orthant gets an
    interior measure exactly when the subsystem on it beats the maximin
    persistence test against the measures on its own boundary; a face
    where that test is too close to call (or whose representation cannot
    be built) is reported unresolved, and so is every face above it.
    """
    budget = budget or AnalysisBudget()
    n = model.n
    origin = ErgodicMeasure(
        support=(), kind="dirac-origin", provenance="analytic",
        moments=np.zeros(n))
    r0, c0 = measure_rates(model, origin)
    table = InvasionRateTable(measures=[origin], rates=r0[None], ci=c0[None],
                              n_species=n)
    unresolved: list[tuple[tuple[int, ...], str]] = []

    for size in range(1, n):
        for face in itertools.combinations(range(n), size):
            fset = set(face)
            poisoned = next((u for u, _ in unresolved if set(u) <= fset), None)
            if poisoned is not None:
                unresolved.append(
                    (face, f"contains unresolved face {_face_label(poisoned)}"))
                continue
            d = maximin_decision(table, table.rows_below(face), face,
                                 budget.decision_tol)
            if d.decision == "undecidable":
                k, i = d.undecidable
                unresolved.append((face, (
                    f"invasion rate of species {i + 1} against "
                    f"{table.measures[k].key} is not sign-decidable at this "
                    "Monte Carlo budget")))
            elif d.decision == "positive":
                try:
                    mu = _build_face_measure(model, face, budget)
                except MeasureError as exc:
                    unresolved.append((face, str(exc)))
                else:
                    table.append(mu, *measure_rates(model, mu))
            elif d.decision == "unresolved":
                unresolved.append((face, (
                    f"subsystem maximin value {d.t_star:.3g} is too close to zero "
                    "to resolve")))
            # negative: the subsystem is not persistent, no interior measure here

    return BoundaryDiscovery(measures=list(table.measures), table=table,
                             unresolved=unresolved)


def find_boundary_measures(model: KolmogorovModel,
                           budget: AnalysisBudget | None = None) -> list[ErgodicMeasure]:
    """The measure list of :func:`discover_boundary`; unresolved faces raise."""
    disc = discover_boundary(model, budget)
    if disc.unresolved:
        face, reason = disc.unresolved[0]
        raise MeasureError(f"face {_face_label(face)} unresolved: {reason}")
    return disc.measures
