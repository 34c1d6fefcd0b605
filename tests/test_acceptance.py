"""End-to-end checks at the published budgets and tolerances.

Each test covers one headline guarantee of the tool: stationary moments,
the zero-rate identity on measure supports, the four qualitative regimes
of the two-species competition family, basin splits, food chain depth,
blow-up diagnosis, the weight optimizer, and bitwise reproducibility.
These run the full default Monte Carlo budget, so the file takes a few
minutes; everything else in the suite uses reduced budgets.
"""

import json
import time

import numpy as np
import pytest

from stokolmo import AnalysisBudget, classify, load_model
from stokolmo.classify import maximin_weights
from stokolmo.cli import main as cli_main
from stokolmo import engine
from stokolmo.engine import SimConfig, simulate_ensemble
from stokolmo.foodchain import classify_food_chain, foodchain_to_model, load_food_chain
from stokolmo.measures import (ErgodicMeasure, InvasionRateTable, discover_boundary,
                               stationary_density_1d)
from stokolmo.verify import detect_blowup_signature, verify_verdict
from tests.conftest import model_path

FULL = SimConfig(n_paths=200, t_max=500.0, dt=1e-3, burn_in=50.0, seed=0)

# heavyweight verify runs, shared between the tests that need them
_RUNS: dict = {}


def full_verify(name: str, cfg: SimConfig = FULL):
    if name not in _RUNS:
        model = load_model(model_path(name))
        verdict = classify(model, AnalysisBudget())
        report = verify_verdict(model, verdict, cfg, np.ones(model.n))
        _RUNS[name] = (model, verdict, report)
    return _RUNS[name]


# -- 1: logistic stationary mean by quadrature and by simulation ------------

def test_logistic_stationary_mean():
    t0 = time.perf_counter()
    model = load_model(model_path("logistic"))
    density = stationary_density_1d(model)
    stats = simulate_ensemble(model, np.array([1.0]), FULL)
    # dX = X(2 - X)dt + X dB settles at mean (2a - sigma)/(2b) = 1.5
    assert density.mean == pytest.approx(1.5, rel=0.02)
    assert stats.mean_state[0] == pytest.approx(1.5, rel=0.02)
    # the two routes also agree with each other, tighter than with 1.5
    assert stats.mean_state[0] == pytest.approx(density.mean, rel=0.01)
    assert time.perf_counter() - t0 < 60


# -- 2: invasion rates vanish on the support of every measure ----------------

def test_zero_rate_identity_on_support(bundled):
    t0 = time.perf_counter()
    checked = 0
    for name, model in sorted(bundled.items()):
        disc = discover_boundary(model, AnalysisBudget())
        assert not disc.unresolved, name
        table = disc.table
        for k, mu in enumerate(table.measures):
            for i in mu.support:
                tol = max(1e-10, float(table.ci[k, i]))
                assert abs(table.rates[k, i]) <= tol, (name, mu.key, i + 1)
                checked += 1
    assert checked >= 10
    assert time.perf_counter() - t0 < 120


# -- 3: the four qualitative regimes, against closed-form rates --------------

def _closed_form_rows(doc: dict) -> dict[str, np.ndarray]:
    """Boundary invasion rates straight from the coefficients.

    Every proper face of these two-species systems carries at most one
    measure: the origin, plus one Gamma edge measure per species whose
    solo growth rate is positive.  The edge mean is integrated here by
    plain trapezoid sums over the explicit density x^(2a/s - 2) e^(2Bx/s),
    so nothing below depends on the library's own quadrature or algebra.
    """
    a = np.array(doc["lv"]["a"], dtype=float)
    B = np.array(doc["lv"]["B"], dtype=float)
    g = np.array(doc["lv"]["g"], dtype=float)
    sig = np.diag(np.array(doc["sigma"], dtype=float))
    s = sig * g * g
    r0 = a - 0.5 * s
    rows = {"origin": r0.copy()}
    for i in range(a.shape[0]):
        if r0[i] <= 0.0:
            continue
        guess = r0[i] / (-B[i, i])
        x = np.linspace(1e-9, 25.0 * max(1.0, guess), 400001)
        q = x ** (2.0 * a[i] / s[i] - 2.0) * np.exp(2.0 * B[i, i] * x / s[i])
        xbar = np.trapezoid(q * x, x) / np.trapezoid(q, x)
        lam = a + B[:, i] * xbar - 0.5 * s
        lam[i] = 0.0
        rows[f"face_{i + 1}"] = lam
    return rows


def test_four_regime_reproduction(bundled, verdict_of):
    t0 = time.perf_counter()
    expected = {
        "lv_coexist": "Persistent",
        "lv_single_extinct": "Extinction",
        "lv_bistable": "Extinction",
        "lv_total_extinct": "Extinction",
    }
    for name, kind in expected.items():
        verdict = verdict_of(name)
        assert verdict.kind == kind, name
        with open(model_path(name), encoding="utf-8") as fh:
            oracle = _closed_form_rows(json.load(fh))
        table = verdict.discovery.table
        assert {mu.key for mu in table.measures} == set(oracle)
        for k, mu in enumerate(table.measures):
            for j in range(2):
                if j in mu.support:
                    continue
                got, want = table.rates[k, j], oracle[mu.key][j]
                assert np.sign(got) == np.sign(want), (name, mu.key, j + 1)
                assert got == pytest.approx(want, rel=1e-4, abs=1e-8)

    assert verdict_of("lv_single_extinct").partition.sinks == ["face_1"]
    assert {*verdict_of("lv_bistable").partition.sinks} == {"face_1", "face_2"}
    assert verdict_of("lv_total_extinct").partition.sinks == ["origin"]

    # the predicted decay of the dying competitor is seen path by path
    _, verdict, report = full_verify("lv_single_extinct")
    assert report.status == "PASSED"
    assert float(verdict.targets[0].rates[0]) == pytest.approx(-6.5)
    band = 3.0 * report.exponent_se[1]
    assert band <= 0.3
    assert abs(report.exponent_mean[1] - (-6.5)) <= band

    # and the persistent instance's occupation statistics have settled
    _, _, report = full_verify("lv_coexist")
    assert report.status == "PASSED"
    assert report.tv_curve[-1] < 0.05
    assert time.perf_counter() - t0 < 300


# -- 4: bistable basin split --------------------------------------------------

def test_bistable_basin_split():
    t0 = time.perf_counter()
    _, _, report = full_verify("lv_bistable")
    assert report.status == "PASSED"
    basins = {b.measure: b for b in report.basins}
    c1, c2 = basins["face_1"].count, basins["face_2"].count
    assigned = c1 + c2
    assert assigned >= 0.95 * report.n_paths
    assert c1 / assigned + c2 / assigned == pytest.approx(1.0)
    assert basins["face_1"].p_hat > 0.1
    assert basins["face_2"].p_hat > 0.1
    assert time.perf_counter() - t0 < 300


# -- 5: food chain depth ------------------------------------------------------

def test_food_chain_depth_and_agreement():
    t0 = time.perf_counter()
    persist = load_food_chain(model_path("foodchain3_persist"))
    apex = load_food_chain(model_path("foodchain3_apex"))
    vp = classify_food_chain(persist)
    va = classify_food_chain(apex)
    assert (vp.kind, vp.j_star, vp.survivors()) == ("Persistent", 3, [1, 2, 3])
    assert (va.kind, va.j_star, va.survivors()) == ("Extinction", 2, [1, 2])

    # the two-level equilibrium both verdicts share solves the chain
    # model's face block B x = -r(0) on {1, 2}
    chain = foodchain_to_model(persist)
    A, b = chain.drift.B[:2, :2], -chain.growth_rate_origin()[:2]
    for v in (vp, va):
        x2 = np.asarray(v.equilibria[1])
        assert x2 == pytest.approx([5.0 / 3.0, 11.0 / 6.0], rel=1e-9)
        assert np.max(np.abs(A @ x2 - b)) < 1e-10
        assert v.residual < 1e-10

    # the general pipeline, fed the same dynamics, lands on the same survivors
    gp = classify(foodchain_to_model(persist), AnalysisBudget())
    ga = classify(foodchain_to_model(apex), AnalysisBudget())
    assert gp.kind == "Persistent"
    assert ga.kind == "Extinction"
    assert ga.partition.sinks == ["face_1_2"]
    assert time.perf_counter() - t0 < 120


# -- 6: cooperative blow-up ---------------------------------------------------

def test_cooperative_blowup_diagnosis():
    t0 = time.perf_counter()
    model = load_model(model_path("coop_blowup"))
    verdict = classify(model, AnalysisBudget())
    assert verdict.kind == "BlowUpRisk"
    assert verdict.assumptions.tightness.status == "fail"
    assert verdict.blowup_witness["reason"] == "b1*b2 - c1*c2 < 0"

    cfg = SimConfig(n_paths=200, t_max=100.0, dt=1e-3, burn_in=10.0, seed=0)
    report = verify_verdict(model, verdict, cfg, np.ones(2))
    assert report.status == "PASSED"
    assert report.path_classes["blow-up"] >= 0.99 * cfg.n_paths

    sig = detect_blowup_signature(
        model, SimConfig(n_paths=64, t_max=40.0, burn_in=5.0, seed=0))
    assert sig["slope_mean"] - 3.0 * sig["slope_se"] > 0.0
    assert time.perf_counter() - t0 < 120


# -- 7: weight optimizer against a brute grid ---------------------------------

def _synthetic_table(rates: np.ndarray) -> InvasionRateTable:
    m, n = rates.shape
    measures = [ErgodicMeasure(support=(), kind="dirac-origin",
                               provenance="analytic", moments=np.zeros(n))
                for _ in range(m)]
    return InvasionRateTable(measures=measures, rates=rates,
                             ci=np.zeros_like(rates), n_species=n)


def _grid_value(P: np.ndarray, rates: np.ndarray) -> tuple[float, np.ndarray]:
    vals = (P @ rates.T).min(axis=1)
    j = int(np.argmax(vals))
    return float(vals[j]), P[j]


def _grid_t_star(rates: np.ndarray) -> float:
    if rates.shape[1] == 2:
        p1 = np.linspace(0.0, 1.0, 10001)
        best, _ = _grid_value(np.stack([p1, 1.0 - p1], axis=1), rates)
        return best
    # the objective is a minimum of linear functions, hence concave on the
    # simplex; refining around the coarse grid winner reaches 1e-4 resolution
    lo = np.zeros(2)
    hi = np.ones(2)
    for step in (1e-2, 1e-3, 1e-4):
        p1 = np.arange(max(0.0, lo[0]), min(1.0, hi[0]) + step / 2, step)
        p2 = np.arange(max(0.0, lo[1]), min(1.0, hi[1]) + step / 2, step)
        P1, P2 = np.meshgrid(p1, p2, indexing="ij")
        P3 = 1.0 - P1 - P2
        keep = P3 >= -1e-12
        P = np.stack([P1[keep], P2[keep], np.clip(P3[keep], 0.0, None)], axis=1)
        best, at = _grid_value(P, rates)
        lo, hi = at[:2] - 2 * step, at[:2] + 2 * step
    return best


def test_maximin_matches_grid_search():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    for trial in range(25):
        n = 2 if trial % 2 == 0 else 3
        m = int(rng.integers(2, 6))
        rates = rng.uniform(-2.0, 2.0, size=(m, n))
        p, t_star = maximin_weights(_synthetic_table(rates))
        assert p.shape == (n,) and np.isclose(p.sum(), 1.0)
        assert abs(t_star - _grid_t_star(rates)) <= 1e-3, (trial, rates)
    assert time.perf_counter() - t0 < 60


# -- 8: reports are identical whatever the block width ------------------------

def test_reports_identical_across_block_widths(tmp_path, monkeypatch, capsys):
    blobs = []
    for width in (64, 100):   # 3 blocks of 64 against 2 of 96
        # lv_bistable has 2 species
        monkeypatch.setattr(engine, "_BLOCK_BYTES", engine._CHUNK * 8 * 2 * width)
        dest = tmp_path / f"report-{width}wide.json"
        code = cli_main(["verify", model_path("lv_bistable"),
                         "--t", "80", "--paths", "192", "--seed", "5",
                         "--out", str(dest)])
        capsys.readouterr()
        assert code == 0
        blobs.append(dest.read_bytes())
    assert blobs[0] == blobs[1]
