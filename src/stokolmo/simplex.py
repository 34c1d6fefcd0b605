"""Dense two-phase simplex for the maximin weight problem.

The persistence criterion asks for weights p in the simplex maximizing
the worst weighted invasion rate over the boundary measures:

    maximize t  subject to  sum_i p_i r[m, i] >= t  for every measure m,
                            sum_i p_i = 1,  p_i >= _FLOOR.

The weight floor is the constant ``_FLOOR`` = 1e-6: every weight stays
strictly positive, which the persistence certificate needs.

Tables have a column per species and a row per boundary measure, up to
2^n - 1 rows (1023 at 10 species).  A dense tableau with Bland's rule
keeps the solver simple enough to trust; the tests check it against a
grid-search oracle and, bit for bit, against the scalar tableau it replaced.

The tableau is (m + 2) x (m + k + 3), with no artificial columns (nothing
reads them); phase 2 reuses it under a new cost row.  A pivot updates the
rows with a nonzero pivot-column entry in one array expression, each as
T[r] - T[r, col] * T[row], and Bland's choices follow the scalar loop's
order, so the pivots are the same.  Both phases are bounded (phase 1 below
by 0, t above by the smallest row maximum), so an entering column with no
leaving row has a roundoff reduced cost, not a ray: the solver stops there
as optimal and checks as usual.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12
_FLOOR = 1e-6                       # smallest weight any species gets
_T_COLS = np.array([-1.0, 1.0])     # coefficients of t+ and t- in every measure row


class SimplexError(RuntimeError):
    pass


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int, a: np.ndarray):
    """Pivot on (row, col); ``a`` is a copy of column ``col``, taken before."""
    prow = T[row]
    prow /= a[row]
    rows = a.nonzero()[0]
    a[row] = -0.0               # x - (-0.0 * x) is x: the pivot row passes unchanged
    lo, hi = rows[0], rows[-1] + 1
    if hi - lo == rows.size:    # one band of rows, updated in place
        band = T[lo:hi]
        band -= a[lo:hi, None] * prow
    else:
        band = T.take(rows, 0)
        band -= a.take(rows)[:, None] * prow
        T[rows] = band
    basis[row] = col


def _bland_simplex(T: np.ndarray, basis: np.ndarray, n_real: int):
    """Minimize the objective in T's last row by Bland's rule: enter the
    lowest-index column of 0..n_real-1 with a negative reduced cost, leave
    by the lowest-index basic variable among the minimum-ratio rows, ties
    judged in row order.  The last column is the right-hand side."""
    cost, rhs = T[-1, :n_real], T[:, -1]
    while True:
        neg = cost < -_EPS
        col = neg.argmax()
        if not neg[col]:
            return
        a = T[:, col].copy()
        cand = (a > _EPS).nonzero()[0]      # the cost row entry is negative
        if cand.size > 1:
            ratios = (rhs.take(cand) / a.take(cand)).tolist()
            bas = basis.take(cand).tolist()
            best, i = ratios[0], 0
            for j, ratio in enumerate(ratios[1:], 1):
                if ratio < best - _EPS or (abs(ratio - best) <= _EPS and bas[j] < bas[i]):
                    best, i = ratio, j
            cand = cand[i:]
        elif not cand.size:
            return                          # roundoff, not a ray (module docs)
        _pivot(T, basis, cand[0], col, a)


def solve_maximin(rates: np.ndarray) -> tuple[np.ndarray, float]:
    """Best worst-case weighted rate over rows of ``rates``.

    rates has shape (n_measures, n_species).  Returns (p, t_star) with p
    on the simplex, every p_i >= _FLOOR, and t_star = min over rows of
    p . row, maximized.  t_star may well be negative; that is the signal
    the persistence test needs.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 2 or rates.shape[0] < 1 or rates.shape[1] < 1:
        raise ValueError("rates must be a nonempty 2-D array")
    if not np.isfinite(rates).all():
        raise ValueError("rates must be finite")
    m, k = rates.shape
    if k == 1:
        return np.ones(1), float(rates[:, 0].min())
    # variables: q_i = p_i - floor (k), t+ , t-, slacks s_m (m)
    # rows: sum q_i = 1 - k*floor
    #       sum q_i r_mi - t+ + t- - s_m = -floor * sum_i r_mi
    nvar = k + 2 + m
    T = np.zeros((m + 2, nvar + 1))
    T[0, :k] = 1.0
    T[0, -1] = 1.0 - k * _FLOOR
    T[1:-1, :k] = rates
    T[1:-1, k:k + 2] = _T_COLS
    T.ravel()[nvar + k + 3::nvar + 2][:m] = -1.0       # slack diagonal
    np.multiply(np.ascontiguousarray(rates).sum(axis=1), -_FLOOR, out=T[1:-1, -1])
    cons = T[:-1]
    np.negative(cons, out=cons, where=(cons[:, -1] < 0.0)[:, None])  # b >= 0

    # phase 1: minimize the sum of the artificials, basic in every row
    np.negative(cons.sum(axis=0), out=T[-1])
    T[-1, -1] = -cons[:, -1].sum()      # apart: a 1-D sum is pairwise, a column sum is not
    basis = np.arange(nvar, nvar + m + 1)
    _bland_simplex(T, basis, nvar)
    if T[-1, -1] < -1e-9:
        raise SimplexError("maximin program infeasible (floor too tight?)")
    # drive leftover artificials out of the basis where possible
    b = basis.tolist()
    if max(b) >= nvar:
        for r in (basis >= nvar).nonzero()[0]:
            nz = np.abs(T[r, :nvar]) > _EPS
            j = nz.argmax()
            if nz[j]:
                _pivot(T, basis, r, j, T[:, j].copy())
        b = basis.tolist()

    # phase 2: minimize -t; basic columns are unit columns and the t+ and
    # t- columns are negatives of each other, so one row at most is subtracted
    T[-1] = 0.0
    T[-1, k] = -1.0
    T[-1, k + 1] = 1.0
    for j in (k, k + 1):
        if j in b:
            T[-1] -= T[-1, j] * T[b.index(j)]
    _bland_simplex(T, basis, nvar)

    x = np.zeros(nvar + m + 1)          # artificial basics land past nvar
    x.put(basis, cons[:, -1])
    p = x[:k] + _FLOOR
    t_star = float(x[k] - x[k + 1])
    # tidy tiny negatives from roundoff and renormalize exactly
    np.maximum(p, _FLOOR, out=p)
    p /= p.sum()
    achieved = float((rates @ p).min())
    if abs(achieved - t_star) > 1e-7 * max(1.0, abs(t_star)):
        # fall back to the directly recomputed value; the certificate must
        # always be consistent with its own weights
        t_star = achieved
    return p, t_star
