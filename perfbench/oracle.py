"""Reference answers computed apart from the program under test.

Nothing here imports stokolmo.  Lotka-Volterra face measures come from
their closed-form first moments, the maximin weight problem from
scipy's HiGHS solver with plain p >= 0 (no weight floor), and the one
general-form bundled model (holling2d) from trapezoid sums over the
explicit Gamma density of its single surviving face, the method of the
closed-form oracle in tests/test_acceptance.py.

A measure is keyed the way the program reports it: "origin" for the
point mass at zero, "face_1_3" for the interior measure of the face
holding species 1 and 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# a maximin value at or below this is no evidence of persistence: the
# exact value of a non-persistent table is often 0, which HiGHS returns
# only to within its own tolerance
TOL = 1e-9


def face_key(face) -> str:
    return "origin" if not face else "face_" + "_".join(str(i + 1) for i in face)


def maximin(rows: np.ndarray) -> tuple[float, np.ndarray]:
    """max over p on the simplex (p >= 0) of min_m rows[m] . p, by HiGHS."""
    from scipy.optimize import linprog

    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    m, k = rows.shape
    c = np.zeros(k + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-rows, np.ones((m, 1))])
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0.0, None)] * k + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on a {m}x{k} maximin table: {res.message}")
    return float(-res.fun), res.x[:k]


@dataclass
class LVSystem:
    """dX_i = X_i (a_i + (B X)_i) dt + X_i g_i dE_i with Cov(E) = sigma."""

    a: np.ndarray
    B: np.ndarray
    g: np.ndarray
    sigma: np.ndarray

    @classmethod
    def from_doc(cls, doc: dict) -> "LVSystem":
        lv = doc["lv"]
        return cls(np.array(lv["a"], float), np.array(lv["B"], float),
                   np.array(lv["g"], float), np.array(doc["sigma"], float))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def r0(self) -> np.ndarray:
        """Ito-corrected growth rates at the origin, a_i - sigma_ii g_i^2 / 2."""
        return self.a - 0.5 * np.diag(self.sigma) * self.g ** 2

    def face_moments(self, face) -> np.ndarray:
        """Stationary first moments on a face: B_SS m = -r0_S, zero off the face."""
        m = np.zeros(self.n)
        if face:
            sel = list(face)
            m[sel] = np.linalg.solve(self.B[np.ix_(sel, sel)], -self.r0[sel])
        return m

    def rates(self, moments: np.ndarray) -> np.ndarray:
        return self.r0 + self.B @ moments


@dataclass
class Lattice:
    """Bottom-up face-lattice answer for an LV system."""

    rates: dict              # key -> invasion-rate vector, on-support entries exactly 0
    moments: dict            # key -> first moments
    supports: dict           # key -> 0-based support tuple
    face_t: dict             # proper face -> face_value against its own boundary
    kind: str                # Persistent | Extinction | Undecided
    t_star: float            # maximin over the whole boundary table
    sinks: list
    others: list
    repulsion_t: float | None  # maximin over the rows of the non-sink measures

    def table(self, keys) -> np.ndarray:
        return np.array([self.rates[k] for k in keys])

    def separation(self) -> float:
        """Smallest |value| any sign decision of the program rests on.

        Face values are the bounds face_value returns, so this may
        understate the true margin but never overstates it.  The program
        keeps every weight >= 1e-6 and calls |t*| <= 1e-9 a zero, so a
        separation well above 1e-3 keeps all its decisions clear of both.
        """
        vals = [abs(t) for t in [*self.face_t.values(), self.t_star] if abs(t) > TOL]
        for key, r in self.rates.items():
            vals += [abs(r[i]) for i in range(r.shape[0]) if i not in self.supports[key]]
        for key, m in self.moments.items():
            vals += [m[i] for i in self.supports[key]]
        if self.repulsion_t is not None and abs(self.repulsion_t) > TOL:
            vals.append(abs(self.repulsion_t))
        return min(vals)


def face_value(rows: np.ndarray) -> float:
    """The sign-deciding value of a face's maximin against its own boundary.

    Two cases settle the sign without an LP: uniform weights that make
    every row positive certify persistence (the value returned is then
    their margin, a lower bound of t*), and a row with no positive entry
    rules it out (its largest entry, an upper bound of t*, is returned).
    Everything else goes to HiGHS.
    """
    uniform = float(rows.mean(axis=1).min())
    if uniform > TOL:
        return uniform
    worst = float(rows.max(axis=1).min())
    if worst <= 0.0:
        return worst
    return maximin(rows)[0]


def lv_lattice(sys_: LVSystem) -> Lattice:
    """Measures on every proper face, found bottom-up, and the verdict they imply.

    A face carries an interior measure exactly when the maximin value of
    its subsystem against the measures on its own boundary is positive.
    The verdict is Persistent when the maximin over the whole boundary is
    positive; otherwise the sinks are the measures every outside species
    decays against, and the verdict is Extinction when there is one.
    """
    n = sys_.n
    rates = {"origin": sys_.r0.copy()}
    moments = {"origin": np.zeros(n)}
    supports = {"origin": ()}
    face_t = {}
    for size in range(1, n):
        for face in itertools.combinations(range(n), size):
            fset = set(face)
            subs = [k for k, s in supports.items() if set(s) < fset]
            rows = np.array([rates[k][list(face)] for k in subs])
            t = face_value(rows)
            face_t[face] = t
            if t > TOL:
                key = face_key(face)
                m = sys_.face_moments(face)
                r = sys_.rates(m)
                r[list(face)] = 0.0
                rates[key], moments[key], supports[key] = r, m, face
    keys = list(rates)
    t_star, _ = maximin(np.array([rates[k] for k in keys]))
    sinks, others = [], []
    for k in keys:
        outside = [rates[k][i] for i in range(n) if i not in supports[k]]
        (sinks if max(outside) < 0.0 else others).append(k)
    repulsion_t = maximin(np.array([rates[k] for k in others]))[0] if others else None
    if t_star > TOL:
        kind = "Persistent"
    elif sinks:
        kind = "Extinction"
    else:
        kind = "Undecided"
    return Lattice(rates, moments, supports, face_t, kind, t_star, sinks, others,
                   repulsion_t)


def lv_blows_up(sys_: LVSystem) -> bool:
    """Two-species mutual benefit beating self-limitation: B12, B21 > 0, det B < 0."""
    B = sys_.B
    return (sys_.n == 2 and B[0, 1] > 0.0 and B[1, 0] > 0.0
            and B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0] < 0.0)


def logistic_mean(a: float, b: float, sigma: float) -> float:
    """Stationary mean of dX = X(a - bX)dt + X dE, Var(dE) = sigma dt: (2a - sigma)/(2b)."""
    return (2.0 * a - sigma) / (2.0 * b)


def holling2d_rates() -> dict:
    """Boundary invasion rates of models/holling2d.json, by quadrature.

    f1 = 2 - x1 - x2/(1 + x2), f2 = -0.2 + 2 x1/(1 + x1) - 0.1 x2,
    g = (1, 1), sigma = diag(1, 0.5).  Species 2 declines alone, so the
    boundary holds the origin and the measure on face {1}, whose density
    is x^(2a/s - 2) exp(2 b x / s) = x^2 exp(-2x) with a = 2, b = -1, s = 1.
    """
    s = np.array([1.0, 0.5])
    r0 = np.array([2.0, -0.2]) - 0.5 * s
    x = np.linspace(1e-9, 40.0, 400001)
    q = x ** 2 * np.exp(-2.0 * x)
    z = np.trapezoid(q, x)
    lam2 = -0.2 + 2.0 * np.trapezoid(q * x / (1.0 + x), x) / z - 0.5 * s[1]
    return {"origin": r0, "face_1": np.array([0.0, lam2])}
