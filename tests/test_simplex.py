import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stokolmo.simplex import SimplexError, solve_maximin

FLOOR = 1e-6


def grid_maximin(rates, step):
    """Brute-force maximin over a simplex grid, the independent oracle."""
    m, k = rates.shape
    best = -np.inf
    ticks = int(round(1.0 / step))
    if k == 2:
        for i in range(ticks + 1):
            p = np.array([i * step, 1.0 - i * step])
            best = max(best, float(np.min(rates @ p)))
        return best
    for combo in itertools.product(range(ticks + 1), repeat=k - 1):
        if sum(combo) > ticks:
            continue
        p = np.array(list(combo) + [ticks - sum(combo)], dtype=float) * step
        best = max(best, float(np.min(rates @ p)))
    return best


def test_single_species_shortcut():
    p, t = solve_maximin(np.array([[2.0], [-1.0], [0.5]]))
    assert p.tolist() == [1.0]
    assert t == -1.0


def test_textbook_two_measure_game():
    # value of the matrix game [[3, -1], [-1, 1]] is 1/3 at p = (1/3, 2/3)
    rates = np.array([[3.0, -1.0], [-1.0, 1.0]])
    p, t = solve_maximin(rates, floor=0.0)
    assert np.allclose(p, [1.0 / 3.0, 2.0 / 3.0], atol=1e-9)
    assert np.isclose(t, 1.0 / 3.0, atol=1e-9)


def test_symmetric_cross_rates():
    # rows (-1, 2) and (2, -1): equal weights give margin 0.5 on both rows,
    # and no tilt improves the worse one
    p, t = solve_maximin(np.array([[-1.0, 2.0], [2.0, -1.0]]), floor=0.0)
    assert np.allclose(p, [0.5, 0.5], atol=1e-9)
    assert np.isclose(t, 0.5, atol=1e-9)


def test_all_rows_losing_has_no_certificate():
    # rows (-1, 0) and (0, -1): every mixture leaves some row nonpositive
    _, t = solve_maximin(np.array([[-1.0, 0.0], [0.0, -1.0]]), floor=0.0)
    assert t <= 0.0


def test_dominant_row_pins_to_floor():
    # species 2 hurts every row; optimum puts it at the floor
    rates = np.array([[1.0, -5.0], [2.0, -7.0]])
    p, t = solve_maximin(rates, floor=FLOOR)
    assert np.isclose(p[1], FLOOR)
    assert np.isclose(t, rates[0] @ p)


def test_matches_grid_oracle_small():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rates = rng.uniform(-3.0, 3.0, size=(3, 3))
        p, t = solve_maximin(rates, floor=0.0)
        assert t >= grid_maximin(rates, 1e-2) - 1e-9
        # achievability: the reported weights really deliver t
        assert np.isclose(np.min(rates @ p), t, atol=1e-9)


# the 4x3 table once raised a false "linear program is unbounded"
@settings(max_examples=80, deadline=None)
@given(hnp.arrays(np.float64, (4, 3),
                  elements=st.floats(min_value=-10.0, max_value=10.0)))
@example(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                   [0.0, -1.0, 0.3125], [-1.0, 0.0, 1e-5]]))
def test_solution_is_feasible_and_achievable(rates):
    p, t = solve_maximin(rates)
    assert np.isclose(p.sum(), 1.0, atol=1e-9)
    assert np.all(p >= FLOOR - 1e-12)
    assert np.isclose(np.min(rates @ p), t, atol=1e-8 * max(1.0, np.abs(rates).max()))


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, (3, 2),
                  elements=st.floats(min_value=-5.0, max_value=5.0)),
       st.floats(min_value=0.1, max_value=50.0))
def test_positive_scaling_scales_value(rates, c):
    p1, t1 = solve_maximin(rates)
    p2, t2 = solve_maximin(c * rates)
    assert np.isclose(t2, c * t1, rtol=1e-7, atol=1e-9)
    # optimum may be non-unique, so only the value is compared; the
    # returned weights must still achieve it under scaling
    assert np.min(c * rates @ p1) <= t2 + 1e-7 * max(1.0, abs(t2))


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, (3, 3),
                  elements=st.floats(min_value=-5.0, max_value=5.0)))
def test_adding_a_row_never_helps(rates):
    _, t_all = solve_maximin(rates)
    _, t_sub = solve_maximin(rates[:2])
    assert t_all <= t_sub + 1e-9


def test_infeasible_floor_rejected():
    with pytest.raises(ValueError):
        solve_maximin(np.array([[1.0, 1.0]]), floor=0.6)


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        solve_maximin(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        solve_maximin(np.array([[np.inf, 1.0]]))


# --- the false "unbounded" result -------------------------------------------

def _on_floored_simplex(p, floor=FLOOR):
    return np.isclose(p.sum(), 1.0, atol=1e-12) and np.all(p >= floor - 1e-12)


def test_roundoff_reduced_cost_is_not_unbounded():
    # once raised "linear program is unbounded": the entering column's
    # reduced cost was roundoff with no row to leave.  The optimum puts
    # every weight but the last at the floor: t* = 1e-5 - 1e-6 - 2e-11.
    rates = np.array([[0.0, -1.0, 0.3125], [-1.0, 0.0, 1e-5]])
    p, t = solve_maximin(rates)
    assert t == pytest.approx(8.99998e-06, rel=1e-9)
    assert _on_floored_simplex(p)
    assert np.min(rates @ p) == pytest.approx(t, abs=1e-15)


def test_roundoff_stop_with_zero_rows():
    # the same two rows under two all-zero rows: nothing beats t* = 0
    rates = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                      [0.0, -1.0, 0.3125], [-1.0, 0.0, 1e-5]])
    p, t = solve_maximin(rates)
    assert t == 0.0
    assert _on_floored_simplex(p)
    assert np.min(rates @ p) == pytest.approx(t, abs=1e-15)


def _competitive_face_table(face):
    """Face table of the 12-species competitive LV system from
    ``default_rng(0)``: one row per measure on a proper subface of ``face``
    (origin first, then by size and lexicographically, as discovery adds
    them), with closed-form face moments B_SS m = -r0_S and on-support
    entries set to zero."""
    rng = np.random.default_rng(0)
    a = rng.uniform(1.0, 2.0, 12)
    B = -rng.uniform(0.0, 1.0 / 12.0, (12, 12))
    np.fill_diagonal(B, -1.0)
    r0 = a - 0.5                        # g = 1, sigma = I
    rows = []
    for size in range(len(face)):
        for sub in itertools.combinations(face, size):
            m = np.zeros(12)
            if sub:
                s = list(sub)
                m[s] = np.linalg.solve(B[np.ix_(s, s)], -r0[s])
            r = r0 + B @ m
            r[list(sub)] = 0.0
            rows.append(r[list(face)])
    return np.array(rows)


def test_twelve_species_face_table_is_solved():
    # the 1023x10 table of face {1,2,3,5,...,11} (1-based) raised a false
    # "unbounded" and stopped `stokolmo classify` on the whole system
    rates = _competitive_face_table((0, 1, 2, 4, 5, 6, 7, 8, 9, 10))
    assert rates.shape == (1023, 10)
    p, t = solve_maximin(rates)
    assert _on_floored_simplex(p)
    assert np.min(rates @ p) == pytest.approx(t, abs=1e-12)
    # scipy 1.17 linprog(method="highs") on the same table with p_i >= 1e-6,
    # run once off-line: 0.061051680512235196
    assert t == pytest.approx(0.061051680512235196, abs=1e-9)


# --- bit identity with the scalar tableau -------------------------------------
# The scalar two-phase tableau with artificial columns that solve_maximin
# replaced.  The vectorised solver makes the same pivots in the same order,
# so its (p, t*) must match this reference to the last bit.

def _ref_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _ref_bland(T, basis, n_real):
    m = T.shape[0] - 1
    while True:
        col = next((j for j in range(n_real) if T[-1, j] < -1e-12), -1)
        if col < 0:
            return
        best, row = np.inf, -1
        for r in range(m):
            a = T[r, col]
            if a > 1e-12:
                ratio = T[r, -1] / a
                if ratio < best - 1e-12 or (abs(ratio - best) <= 1e-12 and
                                            (row < 0 or basis[r] < basis[row])):
                    best, row = ratio, r
        if row < 0:
            raise SimplexError("linear program is unbounded")
        _ref_pivot(T, basis, row, col)


def _ref_solve_maximin(rates, floor=FLOOR):
    m, k = rates.shape
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
    c = np.zeros(nvar)
    c[k], c[k + 1] = -1.0, 1.0
    rows = m + 1
    for r in range(rows):
        if b[r] < 0.0:
            A[r] *= -1.0
            b[r] *= -1.0
    T = np.zeros((rows + 1, nvar + rows + 1))
    T[:rows, :nvar] = A
    T[:rows, nvar:nvar + rows] = np.eye(rows)
    T[:rows, -1] = b
    basis = np.arange(nvar, nvar + rows)
    T[-1, :nvar] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    _ref_bland(T, basis, nvar)
    if T[-1, -1] < -1e-9:
        raise SimplexError("maximin program infeasible (floor too tight?)")
    for r in range(rows):
        if basis[r] >= nvar:
            j = next((j for j in range(nvar) if abs(T[r, j]) > 1e-12), None)
            if j is not None:
                _ref_pivot(T, basis, r, j)
    T2 = np.zeros((rows + 1, nvar + 1))
    T2[:rows, :nvar] = T[:rows, :nvar]
    T2[:rows, -1] = T[:rows, -1]
    T2[-1, :nvar] = c
    for r in range(rows):
        if basis[r] < nvar and abs(T2[-1, basis[r]]) > 1e-12:
            T2[-1] -= T2[-1, basis[r]] * T2[r]
    _ref_bland(T2, basis, nvar)
    x = np.zeros(nvar)
    for r in range(rows):
        if basis[r] < nvar:
            x[basis[r]] = T2[r, -1]
    p = np.maximum(x[:k] + floor, floor)
    p = p / p.sum()
    t_star = float(x[k] - x[k + 1])
    achieved = float(np.min(rates @ p))
    if abs(achieved - t_star) > 1e-7 * max(1.0, abs(t_star)):
        t_star = achieved
    return p, t_star


def _lattice_table(rng, k):
    """(2^k - 1) x k: a row per proper subset of the k species, its
    on-support entries pinned to zero as ``InvasionRateTable.lp_view`` does."""
    rows = []
    for size in range(k):
        for sub in itertools.combinations(range(k), size):
            r = rng.uniform(-1.0, 2.0, k)
            r[list(sub)] = 0.0
            rows.append(r)
    return np.array(rows)


def _bit_identity_cases():
    """(rates, floor) pairs: lattice tables at the program's floor, and
    small tables at that floor and at zero."""
    rng = np.random.default_rng(2024)
    cases = [(_lattice_table(rng, k), FLOOR) for k in range(2, 9) for _ in range(2)]
    for m in range(1, 8):
        for k in (2, 3, 5):
            for rates in (rng.uniform(-3.0, 3.0, (m, k)),
                          # coarse values make ties and degenerate pivots common
                          rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], (m, k))):
                cases += [(rates, FLOOR), (rates, 0.0)]
    # entries near _EPS leave an artificial basic after phase 1 and so
    # take the drive-out pivots
    cases += [(np.array([[0.0, 3e-12], [1e-06, -1.0], [-1e-13, 1e-13]]), 0.0),
              (np.array([[1e-06, 1.0, 1.0], [3e-12, 1e-06, 0.0],
                         [-1.0, 0.0, 0.0], [1e-13, 1.0, 3e-12]]), 0.0)]
    return cases


def test_bitwise_equal_to_scalar_tableau():
    for rates, floor in _bit_identity_cases():
        want_p, want_t = _ref_solve_maximin(rates, floor)
        p, t = solve_maximin(rates, floor)
        assert p.tobytes() == want_p.tobytes(), (rates, floor)
        assert np.float64(t).tobytes() == np.float64(want_t).tobytes(), (rates, floor)
