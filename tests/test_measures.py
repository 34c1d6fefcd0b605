import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stokolmo.measures as measures_mod
from stokolmo.classify import classify
from stokolmo.engine import EngineError, SimConfig, simulate_path
from stokolmo.measures import (_BATCHES, FACE_BUDGET, AnalysisBudget, DensityError,
                               ErgodicMeasure, InvasionRateTable, MeasureError,
                               _batch_interval, _bound_decision, _empirical_measure,
                               _face_seed, _lv_rates, discover_boundary,
                               lv_face_equilibrium, maximin_decision,
                               stationary_density_1d, t_quantile_975)
from stokolmo.assumptions import run_assumption_checks
from stokolmo.model import parse_model, restrict_to_face


def logistic_1d(a, b=1.0, sigma=1.0, g=1.0):
    return parse_model(json.dumps({
        "n": 1, "lv": {"a": [a], "B": [[-b]], "g": [g]},
        "sigma": [[sigma]]}))


# -- one-dimensional stationary density ---------------------------------------
#
# For dX = X(a - bX)dt + X dE with E = sqrt(sigma) B the stationary density
# is Gamma with shape 2a/sigma - 1 and rate 2b/sigma, which gives closed
# forms for every moment.  These are the frozen oracles.

@pytest.mark.parametrize("a,b,sigma", [
    (2.0, 1.0, 1.0),       # shape 3, rate 2
    (3.0, 1.0, 1.0),       # shape 5, rate 2
    (2.0, 2.0, 2.0),       # shape 1 (exponential), rate 2
    (1.0, 0.5, 0.25),      # shape 7, rate 4
])
def test_density_matches_gamma_closed_form(a, b, sigma):
    shape = 2.0 * a / sigma - 1.0
    rate = 2.0 * b / sigma
    d = stationary_density_1d(logistic_1d(a, b, sigma))
    assert math.isclose(d.mean, shape / rate, rel_tol=1e-9)
    assert math.isclose(d.second_moment, shape * (shape + 1.0) / rate ** 2,
                        rel_tol=1e-9)
    assert d.weak_residual < 1e-6
    assert d.tail_mass < 1e-6 and d.head_mass < 1e-6
    # pointwise shape check at u = 1 (linear interpolation on the grid)
    truth = rate ** shape / math.gamma(shape) * math.exp(-rate)
    assert math.isclose(float(np.interp(1.0, d.u, d.pdf)), truth, rel_tol=1e-4)


def test_density_expectation_is_normalized():
    d = stationary_density_1d(logistic_1d(2.0))
    assert math.isclose(d.expectation(lambda u: np.ones_like(u)), 1.0,
                        abs_tol=1e-6)
    assert math.isclose(d.expectation(lambda u: u), d.mean, rel_tol=1e-12)


@pytest.mark.parametrize("a", [0.5, 0.3])
def test_density_refuses_non_integrable_origin(a):
    # per-capita growth at 0 is a - sigma/2 <= 0: mass piles up at the
    # origin and no normalizable density exists
    with pytest.raises(DensityError):
        stationary_density_1d(logistic_1d(a))


def test_density_refuses_runaway_tail():
    # no self-limitation (B = 0): the scale density diverges at infinity
    with pytest.raises(DensityError):
        stationary_density_1d(logistic_1d(2.0, b=0.0))


# 0.6 - x1 plus a term that is 0 at x1 = 0 and at every x1 the assumption
# checks sample, but inf - inf = nan for x1 between about 1e-242 and 1e-58,
# a stretch the density grid of this weak growth rate (0.1 at the origin)
# has to reach
NAN_NEAR_ZERO = "0.6 - x1 + (x1/(x1*x1 + 1e-300)*1e250 - x1/(x1*x1 + 1e-300)*1e250)"


def test_density_refuses_a_non_finite_drift_on_its_grid():
    m = parse_model(json.dumps({"n": 1, "general": {"f": [NAN_NEAR_ZERO], "g": ["1"]},
                                "sigma": [[1.0]]}))
    with np.errstate(invalid="ignore", over="ignore"):
        assert run_assumption_checks(m).tightness.status == "heuristic-pass"
        with pytest.raises(DensityError) as exc:
            stationary_density_1d(m)
    message = str(exc.value)
    assert message.startswith("drift or noise is not finite at the grid point u=")
    u = float(message.rsplit("=", 1)[1])
    assert 1e-242 < u < 1e-58
    assert np.isnan(m.drift_at(np.array([u])))[0]
    # in a community the face is unresolved, with that reason
    two = parse_model(json.dumps({
        "n": 2, "general": {"f": [NAN_NEAR_ZERO, "-0.5 + x1 - x2"], "g": ["1", "1"]},
        "sigma": np.eye(2).tolist()}))
    with np.errstate(invalid="ignore", over="ignore"):
        disc = discover_boundary(two)
    assert disc.unresolved == [((0,), message)]


def test_density_needs_one_species():
    m = parse_model(json.dumps({
        "n": 2, "lv": {"a": [1.0, 1.0], "B": [[-1.0, 0.0], [0.0, -1.0]],
                       "g": [1.0, 1.0]}, "sigma": np.eye(2).tolist()}))
    with pytest.raises(MeasureError):
        stationary_density_1d(m)


# -- Lotka-Volterra face equilibria -------------------------------------------

def test_face_equilibrium_oracles(bundled):
    m, res = lv_face_equilibrium(bundled["lv_coexist"], (0, 1))
    assert np.allclose(m, [5.0 / 6.0, 5.0 / 6.0], atol=1e-12)
    assert res <= 1e-10

    m, _ = lv_face_equilibrium(bundled["lv_coexist"], (0,))
    assert np.allclose(m, [1.25, 0.0], atol=1e-12)

    m, _ = lv_face_equilibrium(bundled["two_pred_one_prey"], (0, 1))
    assert np.allclose(m, [5.0 / 3.0, 11.0 / 6.0, 0.0], atol=1e-12)


def test_face_equilibrium_rejects_nonpositive_solution(bundled):
    # predator alone decays; the face holds no interior measure
    with pytest.raises(MeasureError):
        lv_face_equilibrium(bundled["predprey"], (1,))


def test_face_equilibrium_rejects_singular_system():
    m = parse_model(json.dumps({
        "n": 1, "lv": {"a": [1.0], "B": [[0.0]], "g": [1.0]},
        "sigma": [[1.0]]}))
    with pytest.raises(MeasureError):
        lv_face_equilibrium(m, (0,))


def test_face_equilibrium_needs_lv(bundled):
    with pytest.raises(MeasureError):
        lv_face_equilibrium(bundled["holling2d"], (0,))


# -- invasion rates ------------------------------------------------------------

def rows_by_key(table: InvasionRateTable) -> dict[str, np.ndarray]:
    return {mu.key: table.rates[k] for k, mu in enumerate(table.measures)}


def test_rate_oracles(bundled):
    disc = discover_boundary(bundled["lv_coexist"])
    assert [mu.key for mu in disc.measures] == ["origin", "face_1", "face_2"]
    assert not disc.unresolved
    row = rows_by_key(disc.table)
    assert np.allclose(row["origin"], [2.5, 2.5], atol=1e-12)
    # against the single-species measure at m = 1.25 the rates are
    # (0, 1.25): zero on support, positive for the invader
    assert np.allclose(row["face_1"], [0.0, 1.25], atol=1e-12)
    assert np.allclose(row["face_2"], [1.25, 0.0], atol=1e-12)


def test_extinction_rate_oracles(bundled):
    row = rows_by_key(discover_boundary(bundled["lv_single_extinct"]).table)
    assert np.isclose(row["face_1"][1], -6.5, atol=1e-12)
    row = rows_by_key(discover_boundary(bundled["two_pred_one_prey"]).table)
    assert np.isclose(row["face_1_2"][2], -31.0 / 12.0, atol=1e-12)


def test_on_support_rates_vanish_for_lv_models(bundled):
    for name in ("lv_coexist", "lv_single_extinct", "lv_bistable",
                 "predprey", "two_pred_one_prey"):
        table = discover_boundary(bundled[name]).table
        for k, mu in enumerate(table.measures):
            for i in mu.support:
                tol = max(1e-10, table.ci[k, i])
                assert abs(table.rates[k, i]) <= tol, (name, mu.key, i)


def test_lp_rates_pin_support_entries(bundled):
    table = discover_boundary(bundled["lv_coexist"]).table
    pinned = table.lp_view()[0]
    for k, mu in enumerate(table.measures):
        for i in mu.support:
            assert pinned[k, i] == 0.0


def hand_table(supports, rates, ci) -> InvasionRateTable:
    rates = np.array(rates, dtype=float)
    measures = [ErgodicMeasure(support=tuple(s), kind="empirical",
                               provenance="monte-carlo",
                               moments=np.zeros(rates.shape[1]))
                for s in supports]
    return InvasionRateTable(measures=measures, rates=rates,
                             ci=np.array(ci, dtype=float),
                             n_species=rates.shape[1])


def test_lp_view_pins_support_rates_and_half_widths():
    t = hand_table([(), (0,)], [[1.0, 2.0], [0.03, -0.5]],
                   [[0.0, 0.0], [0.1, 0.2]])
    rates, ci, first = t.lp_view()
    assert np.array_equal(rates, [[1.0, 2.0], [0.0, -0.5]])
    assert np.array_equal(ci, [[0.0, 0.0], [0.0, 0.2]])
    assert first is None    # the on-support 0.03 +- 0.1 does not count
    rates, ci, first = t.lp_view([1], [1])
    assert np.array_equal(rates, [[-0.5]]) and np.array_equal(ci, [[0.2]])


def test_rows_below_are_proper_subfaces():
    t = hand_table([(), (0,), (1,), (0, 1), (2,)], np.zeros((5, 3)),
                   np.zeros((5, 3)))
    assert t.rows_below((0, 1)).tolist() == [0, 1, 2]
    assert t.rows_below((0,)).tolist() == [0]
    # random supports, repeats included, against every face of 5 species
    rng = np.random.default_rng(3)
    supports = [tuple(int(i) for i in np.flatnonzero(rng.random(5) < 0.4))
                for _ in range(40)]
    t = hand_table(supports, np.zeros((40, 5)), np.zeros((40, 5)))
    assert np.array_equal(t.on_support, [[i in s for i in range(5)] for s in supports])
    for size in range(1, 6):
        for face in itertools.combinations(range(5), size):
            expect = [k for k, s in enumerate(supports) if set(s) < set(face)]
            assert t.rows_below(face).tolist() == expect, face


def test_binding_slack_scales_with_margin():
    # the second row sits 1e-10 above t* = 0.2: outside a fixed 1e-12
    # slack but inside 1e-12 + 1e-9 |t*|, so it binds and its band
    # (larger than t* itself) leaves the sign unresolved; the third row
    # is clear of both slacks and does not bind
    t = hand_table([(), (), ()], [[0.2], [0.2 + 1e-10], [0.2 + 1e-6]],
                   [[0.0], [0.2 + 5e-11], [0.2]])
    d = maximin_decision(t)
    assert d.t_star == 0.2
    assert d.binding.tolist() == [0, 1]
    assert d.band == 0.2 + 5e-11
    assert d.decision == "unresolved"
    assert d.undecidable is None


def test_band_excludes_on_support_half_widths():
    # the on-support entries carry Monte Carlo noise of half width 0.6;
    # counted, the band 0.3 would swamp t* = 0.25
    t = hand_table([(), (0,), (1,)],
                   [[1.0, 1.0], [0.05, 0.5], [0.5, -0.04]],
                   [[0.0, 0.0], [0.6, 0.0], [0.0, 0.6]])
    d = maximin_decision(t)
    assert d.t_star == pytest.approx(0.25)
    assert d.binding.tolist() == [1, 2]
    assert d.band == 0.0
    assert d.decision == "positive"


def test_first_undecidable_entry_in_measure_species_order():
    t = hand_table([(), (0,), (1,), (2,)],
                   [[1.0, 1.0, 1.0], [0.01, 0.5, 0.5],
                    [0.3, 0.0, 0.05], [0.02, 0.3, 0.0]],
                   [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0],
                    [0.0, 0.0, 0.1], [0.1, 0.0, 0.0]])
    d = maximin_decision(t)
    assert d.decision == "undecidable" and d.undecidable == (2, 2)
    assert d.p is None and d.t_star is None
    assert maximin_decision(t, cols=[0, 1]).undecidable == (3, 0)
    assert maximin_decision(t, rows=[0, 1], cols=[0, 1]).undecidable is None


def _ulps(x: float, n: int) -> float:
    """x moved by n units in the last place."""
    for _ in range(abs(n)):
        x = float(np.nextafter(x, np.inf if n > 0 else -np.inf))
    return x


@st.composite
def rate_blocks(draw):
    """A hand table with pinned on-support entries, Monte Carlo half widths
    up to a gate G and rates in [-1, 1] (so the bound slack is 1e-7), many
    of them within a few ulps of +-G or +-(G + slack)."""
    m, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    G = draw(st.sampled_from([1e-9, 1e-6, 0.01, 0.2]))
    edge = st.builds(lambda e, sign, n: sign * _ulps(e, n),
                     st.sampled_from([G, G + 1e-7]), st.sampled_from([-1.0, 1.0]),
                     st.integers(-3, 3))
    value = st.one_of(st.floats(-1.0, 1.0), edge, st.just(0.0))
    rates = np.array(draw(st.lists(value, min_size=m * k, max_size=m * k))).reshape(m, k)
    ci = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5 * G, G]),
                                min_size=m * k, max_size=m * k))).reshape(m, k)
    supports = draw(st.lists(st.sets(st.integers(0, k - 1), max_size=k - 1),
                             min_size=m, max_size=m))
    ci[(ci >= np.abs(rates))] = 0.0     # off support, every sign is known
    return hand_table([sorted(s) for s in supports], rates, ci)


@settings(max_examples=300, deadline=None)
@given(rate_blocks())
def test_bound_decision_agrees_with_the_lp(table):
    rates, ci, unknown = table.lp_view()
    assert unknown is None
    bound = _bound_decision(rates, ci)
    if bound is not None:
        assert maximin_decision(table).decision == bound


def test_origin_row_equals_growth_rate(bundled):
    m = bundled["two_pred_one_prey"]
    table = discover_boundary(m).table
    assert table.measures[0].key == "origin"
    assert np.array_equal(table.rates[0], m.growth_rate_origin())
    assert np.all(table.ci[0] == 0.0)


# -- discovery over the face lattice ------------------------------------------

def test_two_pred_one_prey_lattice(bundled):
    disc = discover_boundary(bundled["two_pred_one_prey"])
    assert [mu.key for mu in disc.measures] == ["origin", "face_1", "face_1_2"]
    assert not disc.unresolved


def test_density_face_for_expression_model(bundled):
    disc = discover_boundary(bundled["holling2d"])
    keys = [mu.key for mu in disc.measures]
    assert keys == ["origin", "face_1"]
    mu = disc.measures[1]
    assert mu.kind == "density-1d" and mu.provenance == "quadrature"
    # prey alone is logistic a=2, b=1, sigma=1: Gamma(3, 2), mean 3/2
    assert math.isclose(mu.moments[0], 1.5, rel_tol=1e-9)
    # the predator invasion rate, frozen from an independent trapezoid
    # evaluation of E[2 u/(1+u)] under Gamma(3, 2)
    k = keys.index("face_1")
    assert math.isclose(disc.table.rates[k, 1], 0.6593710648942188,
                        rel_tol=1e-9)


def test_borderline_face_poisons_superfaces():
    # species 1 sits exactly at the integrability boundary a = sigma/2, so
    # its edge cannot be resolved and everything above it is abandoned
    m = parse_model(json.dumps({
        "n": 3,
        "lv": {"a": [0.5, 2.0, 2.0],
               "B": (-np.eye(3)).tolist(),
               "g": [1.0, 1.0, 1.0]},
        "sigma": np.eye(3).tolist()}))
    disc = discover_boundary(m)
    bad = [face for face, _ in disc.unresolved]
    assert bad == [(0,), (0, 1), (0, 2)]
    assert "too close to zero" in disc.unresolved[0][1]
    assert "contains unresolved face" in disc.unresolved[1][1]
    found = [mu.key for mu in disc.measures]
    assert found == ["origin", "face_2", "face_3", "face_2_3"]


def test_first_unresolved_subface_is_named():
    # species 3 sits at the integrability boundary, and species 2 invades
    # species 1 at a rate of exactly zero, so {3} and then {1, 2} are
    # unresolved; {1, 2, 3} lies above both and names {3}, the first in
    # discovery order, although {1, 2} has the smaller support bitmask
    B = [[-1.0, -0.5, -0.1, -0.1], [-1.0, -1.0, -0.1, -0.1],
         [-0.1, -0.1, -1.0, -0.1], [-0.1, -0.1, -0.1, -1.0]]
    m = parse_model(json.dumps({
        "n": 4, "lv": {"a": [2.0, 2.0, 0.5, 2.0], "B": B, "g": [1.0] * 4},
        "sigma": np.eye(4).tolist()}))
    reason = dict(discover_boundary(m).unresolved)
    assert "too close to zero" in reason[(2,)]
    assert "too close to zero" in reason[(0, 1)]
    assert reason[(0, 1, 2)] == "contains unresolved face {3}"
    assert reason[(0, 1, 3)] == "contains unresolved face {1, 2}"


def lv_community(kind: str, n: int, seed: int):
    """A generated Lotka-Volterra community: weak competition (every face
    carries a measure) or a prey under n - 1 predator levels."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.6, 1.2, n)
    if kind == "competitive":
        a = rng.uniform(2.0, 3.0, n)
        B = -rng.uniform(0.0, 0.3 / n, (n, n))
        np.fill_diagonal(B, -rng.uniform(0.8, 1.2, n))
    else:
        a = np.concatenate([[rng.uniform(3.0, 5.0)], -rng.uniform(0.2, 0.8, n - 1)])
        B = np.diag(-rng.uniform(0.3, 0.8, n))
        for j in range(1, n):
            loss = rng.uniform(0.8, 1.2)
            B[j - 1, j] = -loss
            B[j, j - 1] = loss * rng.uniform(0.5, 0.95)
    return parse_model(json.dumps({
        "n": n, "lv": {"a": a.tolist(), "B": B.tolist(), "g": [1.0] * n},
        "sigma": np.diag(s).tolist()}))


def reference_lv_table(model) -> InvasionRateTable:
    """Discovery as one maximin LP per face, rows picked by set comparison
    from a table of every measure found so far."""
    n = model.n
    measures = [ErgodicMeasure(support=(), kind="dirac-origin", provenance="analytic",
                               moments=np.zeros(n))]
    rates = [model.growth_rate_origin()]

    def table():
        return InvasionRateTable(measures=list(measures), rates=np.array(rates),
                                 ci=np.zeros((len(rates), n)), n_species=n)

    for size in range(1, n):
        for face in itertools.combinations(range(n), size):
            rows = [k for k, mu in enumerate(measures) if set(mu.support) < set(face)]
            d = maximin_decision(table(), rows, face)
            assert d.decision in ("positive", "negative")
            if d.decision == "positive":
                moments, residual = lv_face_equilibrium(model, face)
                measures.append(ErgodicMeasure(support=face, kind="lv-moments",
                                               provenance="analytic", moments=moments,
                                               residual=residual))
                rates.append(_lv_rates(model, moments))
    return table()


@pytest.mark.parametrize("kind", ["competitive", "food_chain"])
def test_bounds_decide_faces_as_the_lp_does(kind, monkeypatch):
    model = lv_community(kind, 7, seed=5)
    calls = []
    real = measures_mod.solve_maximin

    def spy(rates):
        calls.append(rates.shape)
        return real(rates)

    monkeypatch.setattr(measures_mod, "solve_maximin", spy)
    disc = discover_boundary(model)
    monkeypatch.undo()
    if kind == "competitive":
        assert calls == []
        assert len(disc.measures) == 2 ** 7 - 1
    ref = reference_lv_table(model)
    assert [mu.key for mu in disc.measures] == [mu.key for mu in ref.measures]
    assert np.array_equal(disc.table.rates, ref.rates)
    assert np.array_equal(disc.table.ci, ref.ci)
    assert not disc.unresolved


def test_empirical_face_measure_matches_lv_truth():
    # Lotka-Volterra dynamics written as expression strings: the face
    # {1, 2} measure must be built by occupation simulation, and its
    # moments and invasion rates must reproduce the analytic values
    m = parse_model(json.dumps({
        "n": 3,
        "general": {
            "f": ["3 - 2*x1 - x2 - 0.1*x3",
                  "3 - x1 - 2*x2 - 0.1*x3",
                  "-1 + 0.1*x1 + 0.1*x2 - x3"],
            "g": ["1", "1", "1"],
        },
        "sigma": np.eye(3).tolist()}))
    budget = AnalysisBudget(
        face_sim=SimConfig(n_paths=4, t_max=80.0, burn_in=10.0, seed=0))
    disc = discover_boundary(m, budget)
    keys = [mu.key for mu in disc.measures]
    assert "face_1_2" in keys and not disc.unresolved
    k = keys.index("face_1_2")
    mu = disc.measures[k]
    assert mu.kind == "empirical" and mu.provenance == "monte-carlo"
    assert np.all(np.abs(mu.moments[:2] - 5.0 / 6.0)
                  <= 5.0 * mu.moments_ci[:2] + 0.02)
    lam3 = disc.table.rates[k, 2]
    ci3 = disc.table.ci[k, 2]
    assert abs(lam3 - (-4.0 / 3.0)) <= 5.0 * ci3 + 0.02
    # zero-rate identity on the support was enforced during construction
    assert mu.residual <= max(np.max(disc.table.ci[k, :2]), 1e-10)


def reference_batches(model, face, budget):
    """Batch means of a face measure, one stored path at a time."""
    fmodel = restrict_to_face(model, face)
    cfg = dataclasses.replace(budget.face_sim,
                              seed=_face_seed(budget.face_sim.seed, face))
    per_path = max(1, _BATCHES // cfg.n_paths)
    diag = np.diag(model.sigma)
    rates, moments = [], []
    for pid in range(cfg.n_paths):
        traj = simulate_path(fmodel, np.ones(fmodel.n), cfg, path_id=pid)
        if traj.blowup_time is not None:
            raise MeasureError("blow-up threshold")
        if np.any(np.isfinite(traj.extinct_times)):
            raise MeasureError("extinction threshold")
        Xf = np.exp(traj.log_states[cfg.burn_steps + 1:])
        S = (Xf.shape[0] // per_path) * per_path
        Xf = Xf[:S]
        X = np.zeros((S, model.n))
        X[:, list(face)] = Xf
        G = model.noise_amp_at(X)
        integ = model.drift_at(X) - 0.5 * diag * G * G
        for seg in np.split(np.arange(S), per_path):
            rates.append(integ[seg].mean(axis=0))
            moments.append(Xf[seg].mean(axis=0))
    return np.array(rates), np.array(moments)


def test_empirical_measure_matches_path_by_path_batches():
    m = parse_model(json.dumps({
        "n": 3,
        "general": {"f": ["3 - 2*x1 - x2 - 0.1*x3", "3 - x1 - 2*x2 - 0.1*x3",
                          "-1 + 0.1*x1 + 0.1*x2 - x3"],
                    "g": ["1", "1 + 0.1*x1", "1"]},
        "sigma": np.eye(3).tolist()}))
    budget = AnalysisBudget(face_sim=SimConfig(
        n_paths=3, t_max=30.0, dt=1e-2, burn_in=5.0, seed=1))
    br, bm = reference_batches(m, (0, 1), budget)
    mu, rate, ci = _empirical_measure(m, (0, 1), budget)
    assert br.shape == (18, 3)
    assert rate.tobytes() == br.mean(axis=0).tobytes()
    assert ci.tobytes() == _batch_interval(br).tobytes()
    assert mu.moments.tobytes() == np.append(bm.mean(axis=0), 0.0).tobytes()
    assert mu.moments_ci.tobytes() == np.append(_batch_interval(bm), 0.0).tobytes()


# paths on face {1, 2} end in every way: clean, blow-up, extinction, and a
# domain error once x1 passes 4
FRAGILE = parse_model(json.dumps({
    "n": 3,
    "general": {"f": ["1 - 0.2*x1", "0.1 + 0.1*x2", "-1"],
                "g": ["sqrt(4 - x1)", "0.7", "1"]},
    "sigma": np.eye(3).tolist()}))


def test_empirical_measure_raises_the_first_failure_in_path_order():
    kinds = []
    for seed in range(6):
        budget = AnalysisBudget(face_sim=SimConfig(
            n_paths=6, t_max=20.0, dt=1e-2, burn_in=1.0, seed=seed))
        with pytest.raises((EngineError, MeasureError)) as ref:
            reference_batches(FRAGILE, (0, 1), budget)
        with pytest.raises(type(ref.value)) as got:
            _empirical_measure(FRAGILE, (0, 1), budget)
        if isinstance(ref.value, EngineError):
            assert str(got.value) == str(ref.value)
            kinds.append("domain error")
        else:
            assert str(ref.value) in str(got.value)
            kinds.append(str(ref.value))
    # the seeds cover a domain error first and a threshold crossing first
    assert "domain error" in kinds and len(set(kinds)) > 1


def test_face_seed_distinct_and_stable():
    s1 = _face_seed(0, (0, 1))
    s2 = _face_seed(0, (0, 2))
    assert s1 != s2
    assert s1 == _face_seed(0, (0, 1))
    assert _face_seed(1, (0, 1)) != s1


def test_t_quantile_table():
    assert t_quantile_975(1) == 12.706
    assert t_quantile_975(20) == 2.086
    assert 1.96 < t_quantile_975(100) < 2.0
    with pytest.raises(MeasureError):
        t_quantile_975(0)



# the face_mc benchmark's two-predator community in expression form
TWO_PREDATORS3 = {
    "n": 3, "general": {"f": ["4.0 - 1.0*x1 - 1.0*x2 - 1.0*x3",
                              "-0.5 + 1.5*x1 - 1.0*x2", "-0.5 + 1.5*x1 - 1.0*x3"],
                        "g": ["1", "1", "1"]},
    "sigma": np.eye(3).tolist()}


@pytest.mark.parametrize("name", ["holling2d", "two_predators3"])
def test_density_rates_keep_every_bit_of_per_species_expectations(bundled, name):
    model = (bundled[name] if name in bundled
             else parse_model(json.dumps(TWO_PREDATORS3)))
    dens = stationary_density_1d(restrict_to_face(model, (0,)))
    rates, cis = measures_mod._density_rates(model, 0, dens)
    for i in range(model.n):
        # the model evaluated once per species and per integral, as before
        def integrand(u, i=i):
            X = np.zeros((u.shape[0], model.n))
            X[:, 0] = u
            G = model.noise_amp_at(X)[:, i]
            return model.drift_at(X)[:, i] - 0.5 * model.sigma[i, i] * G * G
        scale = dens.expectation(lambda u: np.abs(integrand(u)))
        assert rates[i].tobytes() == np.float64(dens.expectation(integrand)).tobytes()
        assert cis[i].tobytes() == np.float64(
            dens.quad_ci * max(1.0, abs(scale))).tobytes()


def test_face_lattice_over_the_budget_is_refused():
    assert 2 ** 14 - 2 == FACE_BUDGET
    with pytest.raises(MeasureError, match="15 species have 32766 boundary faces, "
                                           "over the face budget of 16382"):
        discover_boundary(lv_community("competitive", 15, seed=0))


def test_a_face_too_short_for_its_batches_is_unresolved():
    # the face_mc benchmark's competitive community in expression form: one
    # path of 10 post-burn-in steps cannot fill 20 batches, so the face is
    # refused rather than averaging empty batches into nan rates
    a = [3.0, 3.0, 3.0]
    B = [[-2.0, -0.5, -0.5], [-0.5, -2.0, -0.5], [-0.5, -0.5, -2.0]]
    f = [f"{a[i]}" + "".join(f" + ({B[i][j]})*x{j + 1}" for j in range(3)) for i in range(3)]
    budget = AnalysisBudget(face_sim=SimConfig(n_paths=1, t_max=0.1, dt=0.01, burn_in=0.0))
    v = classify(parse_model(json.dumps(
        {"n": 3, "general": {"f": f, "g": ["1"] * 3}, "sigma": np.eye(3).tolist()})), budget)
    assert v.kind == "Inconclusive"
    assert v.refusal.reason == (
        "boundary face {1, 2} unresolved: face {1, 2}: 10 steps past burn-in "
        "cannot fill 20 batches per path")
    # a Lotka-Volterra model needs no Monte Carlo face under the same budget
    lv = parse_model(json.dumps({"n": 3, "lv": {"a": a, "B": B, "g": [1.0] * 3},
                                 "sigma": np.eye(3).tolist()}))
    assert classify(lv, budget).kind == "Persistent"
