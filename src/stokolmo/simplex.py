"""Dense two-phase simplex for the maximin weight problem.

The persistence criterion asks for weights p in the simplex maximizing
the worst weighted invasion rate over the boundary measures:

    maximize t  subject to  sum_i p_i r[m, i] >= t  for every measure m,
                            sum_i p_i = 1,  p_i >= floor.

Tables have a column per species and a row per boundary measure, up to
2^n - 1 rows (1023 at 10 species).  A textbook dense tableau with Bland's
anti-cycling rule keeps the solver simple enough to trust.  The grid-search
oracle in the test suite cross-checks it on random tables.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


class SimplexError(RuntimeError):
    pass


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int):
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _bland_simplex(T: np.ndarray, basis: np.ndarray, n_real: int):
    """Minimize the objective encoded in the last row of tableau T.

    Columns 0..n_real-1 are decision columns, the last column is the
    right-hand side.  Entering variable: lowest-index column with a
    negative reduced cost; leaving: lowest-index basic variable among the
    minimum-ratio rows.  Bland's rule, so termination is guaranteed.
    """
    m = T.shape[0] - 1
    while True:
        col = -1
        for j in range(n_real):
            if T[-1, j] < -_EPS:
                col = j
                break
        if col < 0:
            return
        best = np.inf
        row = -1
        for r in range(m):
            a = T[r, col]
            if a > _EPS:
                ratio = T[r, -1] / a
                if ratio < best - _EPS or (abs(ratio - best) <= _EPS and
                                           (row < 0 or basis[r] < basis[row])):
                    best = ratio
                    row = r
        if row < 0:
            raise SimplexError("linear program is unbounded")
        _pivot(T, basis, row, col)


def solve_maximin(rates: np.ndarray, floor: float = 1e-6) -> tuple[np.ndarray, float]:
    """Best worst-case weighted rate over rows of ``rates``.

    rates has shape (n_measures, n_species).  Returns (p, t_star) with p
    on the simplex, every p_i >= floor, and t_star = min over rows of
    p . row, maximized.  t_star may well be negative; that is the signal
    the persistence test needs.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 2 or rates.shape[0] < 1 or rates.shape[1] < 1:
        raise ValueError("rates must be a nonempty 2-D array")
    if not np.all(np.isfinite(rates)):
        raise ValueError("rates must be finite")
    m, k = rates.shape
    if k == 1:
        return np.ones(1), float(rates[:, 0].min())
    if floor * k >= 1.0:
        raise ValueError("floor too large for the simplex")

    # variables: q_i = p_i - floor (k), t+ , t-, slacks s_m (m)
    # rows: sum q_i = 1 - k*floor
    #       sum q_i r_mi - t+ + t- - s_m = -floor * sum_i r_mi
    nvar = k + 2 + m
    A = np.zeros((m + 1, nvar))
    b = np.zeros(m + 1)
    A[0, :k] = 1.0
    b[0] = 1.0 - k * floor
    for r in range(m):
        A[r + 1, :k] = rates[r]
        A[r + 1, k] = -1.0
        A[r + 1, k + 1] = 1.0
        A[r + 1, k + 2 + r] = -1.0
        b[r + 1] = -floor * rates[r].sum()
    # minimize -(t+ - t-) = -t
    c = np.zeros(nvar)
    c[k] = -1.0
    c[k + 1] = 1.0

    rows = m + 1
    for r in range(rows):
        if b[r] < 0.0:
            A[r] *= -1.0
            b[r] *= -1.0

    # phase 1: artificial basis
    T = np.zeros((rows + 1, nvar + rows + 1))
    T[:rows, :nvar] = A
    T[:rows, nvar:nvar + rows] = np.eye(rows)
    T[:rows, -1] = b
    basis = np.arange(nvar, nvar + rows)
    T[-1, :nvar] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    _bland_simplex(T, basis, nvar)
    if T[-1, -1] < -1e-9:
        raise SimplexError("maximin program infeasible (floor too tight?)")
    # drive leftover artificials out of the basis where possible
    for r in range(rows):
        if basis[r] >= nvar:
            for j in range(nvar):
                if abs(T[r, j]) > _EPS:
                    _pivot(T, basis, r, j)
                    break

    # phase 2
    T2 = np.zeros((rows + 1, nvar + 1))
    T2[:rows, :nvar] = T[:rows, :nvar]
    T2[:rows, -1] = T[:rows, -1]
    T2[-1, :nvar] = c
    for r in range(rows):
        if basis[r] < nvar and abs(T2[-1, basis[r]]) > _EPS:
            T2[-1] -= T2[-1, basis[r]] * T2[r]
    _bland_simplex(T2, basis, nvar)

    x = np.zeros(nvar)
    for r in range(rows):
        if basis[r] < nvar:
            x[basis[r]] = T2[r, -1]
    p = x[:k] + floor
    t_star = float(x[k] - x[k + 1])
    # tidy tiny negatives from roundoff and renormalize exactly
    p = np.maximum(p, floor)
    p = p / p.sum()
    achieved = float(np.min(rates @ p))
    if abs(achieved - t_star) > 1e-7 * max(1.0, abs(t_star)):
        # fall back to the directly recomputed value; the certificate must
        # always be consistent with its own weights
        t_star = achieved
    return p, t_star
